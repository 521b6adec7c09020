"""Batch invariant suites: Hopf axioms, duality, Steinmann, Dynkin.

Each suite returns ``{"ok": bool, "checks": [{"name", "ok", "detail"}, ...]}``
and is deterministic for a fixed ground size (randomized instances use a
fixed seed).  The CLI exposes these as ``verify <suite> --n <k>``; the test
suite calls them directly.
"""

from __future__ import annotations

import functools
import itertools
import random

from . import arrangement as arr
from . import functionals as fn
from . import hopf
from . import preposets as pp
from . import ratgeom
from . import zie
from .compositions import GroundSet, enumerate_compositions, standard_ground
from .lincomb import extend_bilinearly, extend_linearly
from .rat import ONE, ZERO, rat


def _splits(g: GroundSet, proper_only=False):
    labels = g.labels
    out = []
    start = 1 if proper_only else 0
    stop = len(labels) - 1 if proper_only else len(labels)
    for r in range(start, stop + 1):
        for s in itertools.combinations(labels, r):
            out.append((s, tuple(x for x in labels if x not in s)))
    return out


def _random_element(g: GroundSet, basis: str, rnd: random.Random, size=4) -> hopf.BasisElement:
    comps = enumerate_compositions(g)
    picks = rnd.sample(comps, min(size, len(comps)))
    return hopf.BasisElement(g, basis, {k: rat(rnd.randint(-3, 3)) for k in picks})


def _check(checks, name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def verify_hopf(n: int, bases=("M", "P", "C", "H", "Q"), samples: int = 20, seed: int = 0):
    """Associativity, coassociativity, compatibility, unit/counit, antipode."""
    rnd = random.Random(seed)
    checks = []
    g = standard_ground(n)
    exhaustive = n <= 3

    def instances(ground, basis, count):
        comps = enumerate_compositions(ground)
        if exhaustive:
            return [hopf.basis_vector(basis, k) for k in comps]
        return [_random_element(ground, basis, rnd) for _ in range(count)]

    for basis in bases:
        product = functools.partial(hopf._key_product, basis)
        coproduct = functools.partial(hopf._key_coproduct, basis)

        # associativity over three-way splits
        ok = True
        for part in _three_way_splits(g):
            ga, gb, gc = (g.subset(p) for p in part)
            if exhaustive:
                trios = itertools.product(
                    instances(ga, basis, 0), instances(gb, basis, 0), instances(gc, basis, 0)
                )
            else:
                trios = [
                    (
                        _random_element(ga, basis, rnd, 2),
                        _random_element(gb, basis, rnd, 2),
                        _random_element(gc, basis, rnd, 2),
                    )
                    for _ in range(max(1, samples // 8))
                ]
            for a, b, c in trios:
                left = hopf.multiply(hopf.multiply(a, b), c)
                right = hopf.multiply(a, hopf.multiply(b, c))
                if left != right:
                    ok = False
        _check(checks, f"associativity[{basis}]", ok)

        # coassociativity: split I = A|B|C two ways
        ok = all(
            _coassociative(coproduct, x, *map(frozenset, part))
            for x in instances(g, basis, samples)
            for part in _three_way_splits(g)
        )
        _check(checks, f"coassociativity[{basis}]", ok)

        # bimonoid compatibility
        ok = True
        compat_cases = 0
        for s_l, t_l in _splits(g):
            gs, gt = g.subset(s_l), g.subset(t_l)
            if exhaustive:
                pairs = itertools.product(instances(gs, basis, 0), instances(gt, basis, 0))
            else:
                pairs = [
                    (_random_element(gs, basis, rnd, 2), _random_element(gt, basis, rnd, 2))
                    for _ in range(max(1, samples // 12))
                ]
            for a, b in pairs:
                for u_l, v_l in _splits(g):
                    if not _compat_case(product, coproduct, a, b, s_l, t_l, u_l, v_l):
                        ok = False
                    compat_cases += 1
        _check(checks, f"bimonoid-compatibility[{basis}]", ok, f"{compat_cases} cases")

        # unit and counit
        ok = True
        unit_el = hopf.unit(basis)
        for x in instances(g, basis, 4):
            if hopf.multiply(unit_el, x) != x or hopf.multiply(x, unit_el) != x:
                ok = False
            t = hopf.comultiply(x, ((), g.labels))
            collapsed = {kr: v for (kl, kr), v in t.terms.items()}
            if collapsed != x.terms:
                ok = False
        _check(checks, f"unit-counit[{basis}]", ok)

        # antipode convolution identity S * id = unit . counit: zero in
        # positive degree, x itself in degree 0
        ok = True
        antipode_of = functools.cache(lambda k: hopf.antipode(hopf.basis_vector(basis, k)).terms)
        for x in instances(g, basis, 4):
            total = extend_linearly(
                {p: v for split in _splits(g) for p, v in hopf.comultiply(x, split).terms.items()},
                lambda p: extend_bilinearly(antipode_of(p[0]), {p[1]: ONE}, product),
            )
            if _nonzero(total) != (x.terms if n == 0 else {}):
                ok = False
        _check(checks, f"antipode-identity[{basis}]", ok)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def _three_way_splits(g: GroundSet):
    out = []
    labels = g.labels
    for assign in itertools.product(range(3), repeat=len(labels)):
        part = (
            tuple(l for l, a in zip(labels, assign) if a == 0),
            tuple(l for l, a in zip(labels, assign) if a == 1),
            tuple(l for l, a in zip(labels, assign) if a == 2),
        )
        out.append(part)
    return out


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


def _coassociative(coproduct, x, a, b, c) -> bool:
    """(Delta_{A,B} (x) id) Delta_{A+B,C} x against (id (x) Delta_{B,C}) Delta_{A,B+C} x."""
    left = extend_linearly(x.terms, lambda k: extend_linearly(
        coproduct(k, a | b, c), lambda p: {(*q, p[1]): v for q, v in coproduct(p[0], a, b).items()}
    ))
    right = extend_linearly(x.terms, lambda k: extend_linearly(
        coproduct(k, a, b | c), lambda p: {(p[0], *q): v for q, v in coproduct(p[1], b, c).items()}
    ))
    return _nonzero(left) == _nonzero(right)


def _compat_case(product, coproduct, a, b, s_l, t_l, u_l, v_l) -> bool:
    """Delta_{U,V}(a . b) against the four-fold reshuffle composite."""
    s, t, u, v = map(frozenset, (s_l, t_l, u_l, v_l))
    ab = extend_bilinearly(a.terms, b.terms, product)
    left = extend_linearly(ab, lambda k: coproduct(k, u, v))
    da = extend_linearly(a.terms, lambda k: coproduct(k, s & u, s & v))
    db = extend_linearly(b.terms, lambda k: coproduct(k, t & u, t & v))
    right = extend_bilinearly(
        da, db, lambda pa, pb: extend_bilinearly(product(pa[0], pb[0]), product(pa[1], pb[1]))
    )
    return _nonzero(left) == _nonzero(right)


def verify_duality(n: int):
    """Pairing adjunction and antipode self-duality (exhaustive basis vectors)."""
    checks = []
    g = standard_ground(n)
    comps = enumerate_compositions(g)

    ok = True
    for f_key in comps:
        for g_key in comps:
            lhs = hopf.pairing(
                hopf.antipode(hopf.basis_vector("M", f_key)), hopf.basis_vector("H", g_key)
            )
            rhs = hopf.pairing(
                hopf.basis_vector("M", f_key), hopf.antipode(hopf.basis_vector("H", g_key))
            )
            if lhs != rhs:
                ok = False
    _check(checks, "antipode-self-duality", ok)

    # <M_a M_b, H_x> = <M_a (x) M_b, Delta_{S,T} H_x>; as <M_F, H_G> is a
    # Kronecker delta on keys, both sides are coefficients of the key maps
    ok = True
    for s_l, t_l in _splits(g):
        s, t = frozenset(s_l), frozenset(t_l)
        coproducts = [(x_key, hopf._key_coproduct("H", x_key, s, t)) for x_key in comps]
        for ka in enumerate_compositions(g.subset(s)):
            for kb in enumerate_compositions(g.subset(t)):
                product = hopf._key_product("M", ka, kb)
                for x_key, coproduct in coproducts:
                    if product.get(x_key, ZERO) != coproduct.get((ka, kb), ZERO):
                        ok = False
    _check(checks, "pairing-adjunction", ok)

    ok = True
    for f_key in comps:
        for g_key in comps:
            expected = ONE if f_key == g_key else ZERO
            if hopf.pairing(hopf.basis_vector("P", f_key), hopf.basis_vector("Q", g_key)) != expected:
                ok = False
    _check(checks, "P-Q-duality", ok)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_steinmann(n: int, seed: int = 0, random_preposets: int = 50):
    """Relations hold on cone functionals; rank identity; kernel equals span."""
    rnd = random.Random(seed)
    checks = []
    g = standard_ground(n)
    rels = fn.steinmann_relations(g)

    ok = all(fn.is_steinmann(fn.c_functional(pp.preposet_of(k))) for k in enumerate_compositions(g))
    _check(checks, "relations-on-composition-cones", ok, f"{len(rels)} relations")

    ok = True
    labels = list(g.labels)
    for _ in range(random_preposets):
        pairs = []
        for _ in range(rnd.randint(0, 2 * n)):
            a, b = rnd.sample(labels, 2)
            pairs.append((a, b))
        if not fn.is_steinmann(fn.c_functional(pp.transitive_closure(g, pairs))):
            ok = False
    _check(checks, "relations-on-random-preposet-cones", ok, f"{random_preposets} preposets")

    dim = fn.stein_quotient_dim(g)
    expected = zie.zie_dimension(n)
    _check(checks, "rank-identity", dim == expected, f"quotient dim {dim}, expected {expected}")

    # kernel = span: the based cone functionals are independent and count
    # matches the quotient dimension, so both inclusions follow by rank
    keys, _, rows = fn._cone_system(g.labels)
    rows = [{j: v for j, v in enumerate(row) if v} for row in rows]
    rank_c = ratgeom.rank_sparse(rows)
    _check(
        checks,
        "kernel-equals-span",
        rank_c == len(keys) == dim,
        f"c-family rank {rank_c}, keys {len(keys)}, kernel dim {dim}",
    )

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def verify_dynkin(n: int):
    """EGS equality, primitivity, and linearity over the relations."""
    checks = []
    g = standard_ground(n)
    chambers = arr.enumerate_chambers(g)
    splits = _splits(g, proper_only=True)

    ok_egs, ok_prim = True, True
    for ch in chambers:
        d = fn.dynkin(ch)
        if d != fn.egs_expansion(ch):
            ok_egs = False
        for split in splits:
            if not hopf.comultiply(d, split).is_zero():
                ok_prim = False
    _check(checks, "dynkin-equals-egs", ok_egs, f"{len(chambers)} chambers")
    _check(checks, "dynkin-primitive", ok_prim)

    ok = True
    idx = arr.chamber_index(g)
    for rel in fn.steinmann_relations(g):
        total = hopf.zero(g, "H")
        for s, c in rel.entries:
            total = total + fn.dynkin(idx[s]).scale(c)
        if not total.is_zero():
            ok = False
    _check(checks, "dynkin-kills-relations", ok)

    return {"ok": all(c["ok"] for c in checks), "checks": checks}


SUITES = {
    "hopf": verify_hopf,
    "duality": verify_duality,
    "steinmann": verify_steinmann,
    "dynkin": verify_dynkin,
}
