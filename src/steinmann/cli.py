"""Command-line front end: enumeration, algebra, and verification with JSON I/O.

Every subcommand prints one JSON document on standard output.  Values that
take structured input accept either inline JSON or ``@path`` to read a file.
Exit codes: 0 success, 1 domain error (a mathematically invalid request),
2 usage error (bad flags or malformed JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arrangement as arr
from . import functionals as fn
from . import hopf
from . import serialize as ser
from . import verify, zie
from .compositions import GroundSet, enumerate_compositions, enumerate_partitions, standard_ground
from .errors import DomainError, UsageError
from .rat import rat_str


def _load_json(value: str):
    try:
        if value.startswith("@"):
            with open(value[1:]) as fh:
                return json.load(fh)
        return json.loads(value)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed JSON input: {exc}") from exc


def _resolve_ground(args) -> GroundSet:
    if getattr(args, "ground", None):
        return GroundSet(tuple(x.strip() for x in args.ground.split(",") if x.strip()))
    if getattr(args, "n", None) is not None:
        return standard_ground(args.n)
    raise UsageError("specify --n or --ground")


def _parse_split(spec: str):
    if ";" not in spec:
        raise UsageError("split must look like 'a,b;c'")
    s, t = (tuple(x.strip() for x in side.split(",") if x.strip()) for side in spec.split(";", 1))
    labels = s + t
    for i, x in enumerate(labels):
        if x in labels[:i]:
            raise UsageError(f"split repeats label {x!r}")
    return s, t


def _emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")


def _add_ground_flags(p):
    p.add_argument("--n", type=int, help="ground set 1..n (string labels)")
    p.add_argument("--ground", help="comma-separated ground labels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmann",
        description="Exact Hopf algebras of set compositions and adjoint-arrangement functionals",
    )
    parser.add_argument("--cache-dir", help="chamber cache directory")
    parser.add_argument(
        "--max-n", type=int, default=arr.DEFAULT_MAX_N, help="safety bound for enumeration"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list compositions, partitions or chambers")
    p.add_argument("kind", choices=["compositions", "partitions", "chambers"])
    _add_ground_flags(p)

    p = sub.add_parser("mul", help="multiply two elements over disjoint grounds")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--basis", choices=list(hopf.BASES), help="convert inputs first")

    p = sub.add_parser("comul", help="coproduct component at a split")
    p.add_argument("--x", required=True)
    p.add_argument("--split", required=True, help="'a,b;c' ordered split")

    p = sub.add_parser("antipode", help="antipode of an element")
    p.add_argument("--x", required=True)

    p = sub.add_parser("pair", help="pair dual elements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("basis", help="change of basis")
    p.add_argument("--x", required=True)
    p.add_argument("--to", required=True, choices=list(hopf.BASES))

    p = sub.add_parser("tits", help="Tits product of compositions or H elements")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = sub.add_parser("cone", help="cone element of a preposet with expansions")
    p.add_argument("--preposet", required=True)

    p = sub.add_parser("zie", help="Lie algebra / coalgebra operations")
    p.add_argument("action", choices=["reduce", "embed", "project", "bracket", "cobracket"])
    p.add_argument("--tree")
    p.add_argument("--x")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--split")
    p.add_argument("--to", choices=["p", "m", "c"])

    p = sub.add_parser("chambers", help="adjoint chambers")
    p.add_argument("action", choices=["count", "list"])
    _add_ground_flags(p)

    p = sub.add_parser("steinmann", help="Steinmann relations and functionals")
    p.add_argument("action", choices=["relations", "check", "coords"])
    _add_ground_flags(p)
    p.add_argument("--f", help="chamber functional JSON")

    p = sub.add_parser("derivative", help="discrete derivative across a hyperplane")
    p.add_argument("--f", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eulerian", help="Eulerian chamber combination")
    _add_ground_flags(p)

    p = sub.add_parser("dynkin", help="primitive element of a chamber")
    p.add_argument("action", choices=["mbasis", "egs"])
    _add_ground_flags(p)
    p.add_argument("--chamber", required=True, help="sign string in canonical order")

    p = sub.add_parser("expand", help="comb coefficients and reconstruction")
    p.add_argument("--f", required=True)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    _add_ground_flags(p)

    return parser


def _element(arg: str) -> hopf.BasisElement:
    return ser.element_from_json(_load_json(arg))


def _cmd_enumerate(args):
    g = _resolve_ground(args)
    if args.kind == "compositions":
        comps = enumerate_compositions(g)
        _emit(
            {
                "ground": ser.ground_to_json(g),
                "count": len(comps),
                "compositions": [ser.composition_to_json(c) for c in comps],
            }
        )
    elif args.kind == "partitions":
        parts = enumerate_partitions(g)
        _emit(
            {
                "ground": ser.ground_to_json(g),
                "count": len(parts),
                "partitions": [ser.partition_to_json(p) for p in parts],
            }
        )
    else:
        chambers = arr.enumerate_chambers(g)
        _emit(
            {
                "ground": ser.ground_to_json(g),
                "n": len(g),
                "hyperplanes": [list(tb.S) for tb in arr.hyperplane_splits(g)],
                "count": len(chambers),
                "chambers": [ser.chamber_to_json(c) for c in chambers],
            }
        )


def _cmd_chambers(args):
    g = _resolve_ground(args)
    if args.action == "count":
        _emit({"n": len(g), "chambers": arr.chamber_count(g)})
    else:
        args.kind = "chambers"
        _cmd_enumerate(args)


def _cmd_zie(args):
    if args.action == "reduce":
        if not args.tree:
            raise UsageError("zie reduce needs --tree")
        t = ser.tree_from_json(_load_json(args.tree))
        _emit(ser.zie_to_json(zie.reduce_tree(t)))
    elif args.action == "embed":
        if not args.x:
            raise UsageError("zie embed needs --x (comb coordinates)")
        z = ser.zie_from_json(_load_json(args.x))
        _emit(ser.element_to_json(zie.embed_U(z)))
    elif args.action == "project":
        if not args.x:
            raise UsageError("zie project needs --x (an M/P/C element)")
        x = _element(args.x)
        _emit(ser.zie_dual_to_json(zie.project_Ustar(x, basis=args.to)))
    elif args.action == "bracket":
        if not (args.a and args.b):
            raise UsageError("zie bracket needs --a and --b")
        za = ser.zie_from_json(_load_json(args.a))
        zb = ser.zie_from_json(_load_json(args.b))
        _emit(ser.zie_to_json(zie.bracket(za, zb)))
    else:  # cobracket
        if not (args.x and args.split):
            raise UsageError("zie cobracket needs --x and --split")
        d = ser.zie_dual_from_json(_load_json(args.x))
        split = _parse_split(args.split)
        terms = zie.cobracket(d, split)
        left, right = (d.ground.subset(side) for side in split)
        doc = ser.tensor_to_json(hopf.TensorElement(left, right, d.basis, terms))
        _emit({"basis": d.basis, "terms": doc["terms"]})


def _cmd_steinmann(args):
    if args.action == "relations":
        g = _resolve_ground(args)
        rels = fn.steinmann_relations(g)
        _emit(
            {
                "ground": ser.ground_to_json(g),
                "count": len(rels),
                "relations": [ser.relation_to_json(r) for r in rels],
            }
        )
        return
    if not args.f:
        raise UsageError(f"steinmann {args.action} needs --f")
    f = ser.functional_from_json(_load_json(args.f))
    if args.action == "check":
        _emit({"steinmann": fn.is_steinmann(f)})
    else:
        coords = fn.steinmann_basis_coords(f)
        if coords is None:
            _emit({"steinmann": False, "coords": None})
        else:
            _emit({"steinmann": True, "coords": ser.term_list(coords)})


def _dispatch(args):
    if args.command == "enumerate":
        _cmd_enumerate(args)
    elif args.command == "mul":
        a, b = _element(args.a), _element(args.b)
        if args.basis:
            a, b = hopf.change_basis(a, args.basis), hopf.change_basis(b, args.basis)
        _emit(ser.element_to_json(hopf.multiply(a, b)))
    elif args.command == "comul":
        x = _element(args.x)
        split = _parse_split(args.split)
        _emit(ser.tensor_to_json(hopf.comultiply(x, split)))
    elif args.command == "antipode":
        _emit(ser.element_to_json(hopf.antipode(_element(args.x))))
    elif args.command == "pair":
        value = hopf.pairing(_element(args.a), _element(args.b))
        _emit({"value": rat_str(value)})
    elif args.command == "basis":
        _emit(ser.element_to_json(hopf.change_basis(_element(args.x), args.to)))
    elif args.command == "tits":
        fdoc, gdoc = _load_json(args.f), _load_json(args.g)
        if isinstance(fdoc, dict) and isinstance(gdoc, dict):
            result = hopf.tits_h(ser.element_from_json(fdoc), ser.element_from_json(gdoc))
            _emit(ser.element_to_json(result))
        else:
            f = ser.composition_from_json(fdoc)
            g2 = ser.composition_from_json(gdoc)
            _emit(ser.composition_to_json(hopf.tits(f, g2)))
    elif args.command == "cone":
        p = ser.preposet_from_json(_load_json(args.preposet))
        expansion = hopf.normalize_c_keys(hopf.cone_element(p))
        _emit(
            {
                "preposet": ser.preposet_to_json(p),
                "expansion": ser.element_to_json(expansion),
                "monomial": ser.element_to_json(hopf.change_basis(expansion, "M")),
            }
        )
    elif args.command == "zie":
        _cmd_zie(args)
    elif args.command == "chambers":
        _cmd_chambers(args)
    elif args.command == "steinmann":
        _cmd_steinmann(args)
    elif args.command == "derivative":
        f = ser.functional_from_json(_load_json(args.f))
        split = _parse_split(args.split)
        tensor = fn.derivative(f, split, seed=args.seed)
        _emit(ser.functional_tensor_to_json(tensor))
    elif args.command == "eulerian":
        g = _resolve_ground(args)
        _emit(ser.chamber_sum_to_json(fn.eulerian_element(g)))
    elif args.command == "dynkin":
        g = _resolve_ground(args)
        idx = arr.chamber_index(g)
        if args.chamber not in idx:
            raise DomainError(f"no chamber with signs {args.chamber!r}")
        ch = idx[args.chamber]
        result = fn.dynkin(ch) if args.action == "mbasis" else fn.egs_expansion(ch)
        _emit(ser.element_to_json(result))
    elif args.command == "expand":
        f = ser.functional_from_json(_load_json(args.f))
        coeffs = fn.comb_coefficients(f)
        _emit(
            {
                "coefficients": ser.term_list(coeffs),
                "reconstruction": ser.functional_to_json(
                    fn.reconstruct(f.ground, coeffs)
                ),
            }
        )
    elif args.command == "verify":
        g = _resolve_ground(args)
        result = verify.SUITES[args.suite](len(g))
        _emit(result)
    else:  # pragma: no cover - argparse enforces choices
        raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir:
        os.environ[arr.CACHE_ENV] = args.cache_dir
    arr.set_max_n(args.max_n)
    try:
        _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
