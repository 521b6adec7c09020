"""JSON encodings for every public value type.

All encoders produce plain JSON-serializable structures with deterministic
ordering; rationals are strings ``p/q`` so nothing ever goes through floats.
Labels keep their Python type (string or int) in JSON.
"""

from __future__ import annotations

from . import arrangement as arr
from . import functionals as fn
from . import hopf, zie
from .compositions import GroundSet, SetComposition, SetPartition
from .errors import DomainError, UsageError
from .preposets import Preposet, TwoBlock, preposet, two_block
from .rat import parse_rat, rat_str
from .ratgeom import Point


def ground_to_json(g: GroundSet):
    return list(g.labels)


def ground_from_json(data) -> GroundSet:
    if not isinstance(data, list) or not all(isinstance(x, (str, int)) for x in data):
        raise UsageError(f"a ground must be a JSON array of string or integer labels, got {data!r}")
    return GroundSet(tuple(data))


_JSON_KINDS = {list: "array", dict: "object", str: "string"}


def _field(data, name: str, kind: type, path: str = ""):
    """``data[name]`` of the given JSON kind, else a UsageError naming the field."""
    where = f"{path}.{name}" if path else name
    if not isinstance(data, dict):
        raise UsageError(f"expected a JSON object holding {where!r}, got {type(data).__name__}")
    if name not in data:
        raise UsageError(f"missing field {where!r}")
    if not isinstance(data[name], kind):
        raise UsageError(f"field {where!r} must be a JSON {_JSON_KINDS[kind]}")
    return data[name]


def _labels(data, where: str) -> list:
    """A JSON array of string or integer labels, else a UsageError naming it."""
    if not isinstance(data, list) or not all(isinstance(x, (str, int)) for x in data):
        raise UsageError(f"field {where!r} must be a JSON array of string or integer labels, got {data!r}")
    return data


def _coeff(text, where: str):
    try:
        return parse_rat(text)
    except (AttributeError, ValueError, ZeroDivisionError):
        raise UsageError(f"field {where!r} must be a rational 'p/q' string, got {text!r}") from None


def composition_to_json(f: SetComposition):
    return [list(lump) for lump in f.lumps]


def composition_from_json(data, ground: GroundSet = None) -> SetComposition:
    if not isinstance(data, list):
        raise UsageError(f"a composition must be a JSON array of label arrays, got {data!r}")
    lumps = tuple(tuple(_labels(l, f"composition[{i}]")) for i, l in enumerate(data))
    if ground is None:
        ground = GroundSet(tuple(x for l in lumps for x in l))
    return SetComposition(ground, lumps)


def partition_to_json(p: SetPartition):
    return [list(b) for b in p.blocks]


def partition_from_json(data, ground: GroundSet = None) -> SetPartition:
    if not isinstance(data, list):
        raise UsageError(f"field 'partition' must be a JSON array of label arrays, got {data!r}")
    blocks = tuple(tuple(_labels(b, f"partition[{i}]")) for i, b in enumerate(data))
    if ground is None:
        ground = GroundSet(tuple(x for b in blocks for x in b))
    return SetPartition(ground, blocks)


def preposet_to_json(p: Preposet):
    return {
        "ground": ground_to_json(p.ground),
        "pairs": [list(pair) for pair in p.pairs()],
    }


def preposet_from_json(data) -> Preposet:
    g = ground_from_json(_field(data, "ground", list))
    pairs = _field(data, "pairs", list)
    for i, pair in enumerate(pairs):
        if len(_labels(pair, f"pairs[{i}]")) != 2 or not g.label_set.issuperset(pair):
            raise UsageError(f"field 'pairs[{i}]' must be a pair of ground labels, got {pair!r}")
    return preposet(g, [tuple(pair) for pair in pairs])


def two_block_to_json(tb: TwoBlock):
    return {"S": list(tb.S), "T": list(tb.T)}


def two_block_from_json(data) -> TwoBlock:
    s, t = (_labels(_field(data, side, list), side) for side in ("S", "T"))
    return two_block(GroundSet(tuple(s) + tuple(t)), s)


def point_to_json(pt: Point):
    return {
        "ground": ground_to_json(pt.ground),
        "coords": [rat_str(c) for c in pt.coords],
    }


def point_from_json(data) -> Point:
    g = ground_from_json(_field(data, "ground", list))
    coords = _field(data, "coords", list)
    if len(coords) != len(g):
        raise UsageError(f"field 'coords' must hold one coordinate per ground label, got {len(coords)}")
    return Point(g, tuple(_coeff(c, f"coords[{i}]") for i, c in enumerate(coords)))


def _key_to_json(key):
    if isinstance(key, SetComposition):
        return composition_to_json(key)
    if isinstance(key, Preposet):
        return preposet_to_json(key)
    raise DomainError(f"unserializable key type {type(key).__name__}")


def _key_from_json(data, ground: GroundSet):
    if isinstance(data, dict):
        p = preposet_from_json(data)
        if p.ground != ground:
            raise DomainError("preposet key ground mismatch")
        return p
    return composition_from_json(data, ground)


def _key_sort(key):
    if isinstance(key, SetComposition):
        return (0, key.lumps)
    return (1, key.pairs())


def term_list(terms: dict) -> list:
    """Sorted ``{"key", "coeff"}`` entries of a key -> coefficient mapping."""
    items = sorted(terms.items(), key=lambda kv: _key_sort(kv[0]))
    return [{"key": _key_to_json(k), "coeff": rat_str(v)} for k, v in items]


def _encode_terms(x, basis: str = None) -> dict:
    """A term-list document: ground, optional basis tag, sorted key/coeff terms."""
    doc = {"ground": ground_to_json(x.ground)}
    if basis is not None:
        doc["basis"] = basis
    doc["terms"] = term_list(x.terms)
    return doc


def _decode_terms(data):
    """The ground and the key -> coefficient terms of a term-list document.

    Repeated keys add up.  A document of the wrong shape raises a UsageError
    naming the field.
    """
    g = ground_from_json(_field(data, "ground", list))
    terms = {}
    for i, item in enumerate(_field(data, "terms", list)):
        where = f"terms[{i}]"
        raw = _field(item, "key", object, where)
        try:
            key = _key_from_json(raw, g)
        except (KeyError, TypeError, UsageError):
            raise UsageError(f"field '{where}.key' is not a composition or preposet") from None
        terms[key] = terms.get(key, 0) + _coeff(_field(item, "coeff", str, where), f"{where}.coeff")
    return g, terms


def element_to_json(x: hopf.BasisElement):
    return _encode_terms(x, x.basis)


def element_from_json(data) -> hopf.BasisElement:
    g, terms = _decode_terms(data)
    return hopf.BasisElement(g, _field(data, "basis", str), terms)


def tensor_to_json(t: hopf.TensorElement):
    terms = sorted(t.terms.items(), key=lambda kv: (kv[0][0].lumps, kv[0][1].lumps))
    return {
        "left_ground": ground_to_json(t.left_ground),
        "right_ground": ground_to_json(t.right_ground),
        "basis": t.basis,
        "terms": [
            {
                "left": composition_to_json(kl),
                "right": composition_to_json(kr),
                "coeff": rat_str(v),
            }
            for (kl, kr), v in terms
        ],
    }


def tree_to_json(t: zie.Tree):
    if t.is_leaf():
        return list(t.lump)
    return [tree_to_json(t.left), tree_to_json(t.right)]


def _check_tree(data, where: str):
    if isinstance(data, list) and len(data) == 2 and all(isinstance(c, list) for c in data):
        for i, child in enumerate(data):
            _check_tree(child, f"{where}[{i}]")
    elif not (isinstance(data, list) and data and all(isinstance(x, (str, int)) for x in data)):
        raise UsageError(f"field {where!r} must be a non-empty label array or a pair of trees, got {data!r}")


def tree_from_json(data) -> zie.Tree:
    """A tree from nested arrays: a leaf is a label array, a node a pair of trees."""
    _check_tree(data, "tree")
    return zie.tree_from_nested(data)


def zie_to_json(z: zie.ZieElement):
    return _encode_terms(z)


def zie_from_json(data) -> zie.ZieElement:
    return zie.ZieElement(*_decode_terms(data))


def zie_dual_to_json(d: zie.ZieDualElement):
    return _encode_terms(d, d.basis)


def zie_dual_from_json(data) -> zie.ZieDualElement:
    g, terms = _decode_terms(data)
    return zie.ZieDualElement(g, _field(data, "basis", str), terms)


def pwc_to_json(f):
    return _encode_terms(f, "Mhat")


def pwc_from_json(data):
    from .braid import PwcFunction

    return PwcFunction(*_decode_terms(data))


def chamber_to_json(ch: arr.AdjointChamber):
    return {
        "signs": ch.signs,
        "witness": [rat_str(c) for c in ch.witness.coords],
    }


def functional_to_json(f: fn.ChamberFunctional):
    return {
        "ground": ground_to_json(f.ground),
        "values": {k: rat_str(v) for k, v in sorted(f.values.items())},
    }


def _decode_signs(data, name: str):
    """The ground and the sign string -> rational table in field ``name``."""
    g = ground_from_json(_field(data, "ground", list))
    table = _field(data, name, dict)
    return g, {s: _coeff(v, f"{name}[{s!r}]") for s, v in table.items()}


def functional_from_json(data) -> fn.ChamberFunctional:
    return fn.ChamberFunctional(*_decode_signs(data, "values"))


def chamber_sum_to_json(e: fn.ChamberSum):
    return {
        "ground": ground_to_json(e.ground),
        "weights": {k: rat_str(v) for k, v in sorted(e.weights.items())},
    }


def chamber_sum_from_json(data) -> fn.ChamberSum:
    return fn.ChamberSum(*_decode_signs(data, "weights"))


def functional_tensor_to_json(t: fn.FunctionalTensor):
    return {
        "left_ground": ground_to_json(t.left_ground),
        "right_ground": ground_to_json(t.right_ground),
        "values": [
            {"left": a, "right": b, "coeff": rat_str(v)}
            for (a, b), v in sorted(t.values.items())
        ],
    }


def relation_to_json(rel: fn.SteinmannRelation):
    return {
        "hyperplanes": list(rel.hyperplanes),
        "chambers": [s for s, _ in rel.entries],
        "signs": [c for _, c in rel.entries],
    }
