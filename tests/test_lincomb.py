"""The shared sparse-combination core, checked once for all eight element types."""

from fractions import Fraction

import pytest

from steinmann import arrangement as arr
from steinmann import hopf, zie
from steinmann.braid import PwcFunction
from steinmann.compositions import enumerate_compositions, ground, standard_ground
from steinmann.errors import DomainError, GroundMismatchError
from steinmann.functionals import ChamberFunctional, ChamberSum, FunctionalTensor
from steinmann.preposets import preposet
from steinmann.rat import as_rat, rat

G = standard_ground(4)
OTHER = ground(["1", "2", "3", "5"])


def _split(g):
    return g.subset(g.labels[:1]), g.subset(g.labels[1:])


def _signs(g):
    return [ch.signs for ch in arr.enumerate_chambers(g)]


def _composition_pairs(g):
    left, right = _split(g)
    return [(a, b) for a in enumerate_compositions(left) for b in enumerate_compositions(right)]


def _chamber_pairs(g):
    left, right = _split(g)
    return [(a, b) for a in _signs(left) for b in _signs(right)]


# class -> (construct over a ground from terms, valid keys over a ground)
CASES = {
    hopf.BasisElement: (lambda g, t: hopf.BasisElement(g, "M", t), enumerate_compositions),
    hopf.TensorElement: (lambda g, t: hopf.TensorElement(*_split(g), "H", t), _composition_pairs),
    zie.ZieElement: (zie.ZieElement, zie.based_keys),
    zie.ZieDualElement: (lambda g, t: zie.ZieDualElement(g, "m", t), zie.based_keys),
    PwcFunction: (PwcFunction, enumerate_compositions),
    ChamberFunctional: (ChamberFunctional, _signs),
    ChamberSum: (ChamberSum, _signs),
    FunctionalTensor: (lambda g, t: FunctionalTensor(*_split(g), t), _chamber_pairs),
}
TYPES = list(CASES)


@pytest.fixture(params=TYPES, ids=[cls.__name__ for cls in TYPES])
def case(request):
    return request.param, *CASES[request.param]


def test_equal_values_hash_equally_whatever_the_order(case):
    cls, make, keys = case
    k1, k2, k3 = keys(G)[:3]
    a = make(G, {k1: 1, k2: "1/2", k3: 0})
    b = make(G, {k2: Fraction(1, 2), k1: rat(1)})
    assert type(a) is cls and a == b and hash(a) == hash(b)
    assert a.terms == {k1: 1, k2: rat(1, 2)}
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    assert a != make(G, {k1: 1})
    with pytest.raises(AttributeError):
        a.terms = {}


def test_x_plus_minus_x_is_zero(case):
    _, make, keys = case
    k1, k2 = keys(G)[:2]
    x = make(G, {k1: 2, k2: "-3/4"})
    assert (x + (-x)).is_zero() and (x - x).is_zero()
    assert x + (-x) == make(G, {}) == x.scale(0)
    assert x.scale(2) == x + x and x.coeff(k2) == rat(-3, 4)


def test_mixing_types_or_grounds_raises(case):
    cls, make, keys = case
    x = make(G, {keys(G)[0]: 1})
    y = make(OTHER, {keys(OTHER)[0]: 1})
    with pytest.raises(GroundMismatchError):
        x + y
    other_cls = TYPES[(TYPES.index(cls) + 1) % len(TYPES)]
    other_make, other_keys = CASES[other_cls]
    z = other_make(G, {other_keys(G)[0]: 1})
    with pytest.raises(DomainError):
        x + z
    with pytest.raises(DomainError):
        x - z
    assert x != y and x != z


def test_keys_from_another_ground_are_rejected(case):
    _, make, keys = case
    with pytest.raises(DomainError):
        make(G, {keys(standard_ground(3))[0]: 1})


def test_preposet_keys_only_in_basis_c():
    p = preposet(standard_ground(3), [("1", "2")])
    assert hopf.BasisElement(p.ground, "C", {p: 1}).terms == {p: 1}
    for basis in ("M", "P", "H", "Q"):
        with pytest.raises(DomainError):
            hopf.BasisElement(p.ground, basis, {p: 1})
    with pytest.raises(DomainError):
        zie.ZieElement(p.ground, {p: 1})


def test_chamber_functional_values_are_total():
    signs = _signs(G)
    f = ChamberFunctional(G, {})
    assert f.terms == {} and f.values == {s: 0 for s in signs}
    g = ChamberFunctional(G, {signs[3]: "2/3"})
    assert list(g.values) == signs and g(signs[3]) == rat(2, 3) and g(signs[0]) == 0


def test_as_rat_returns_backend_rationals_unchanged():
    x = rat(3, 7)
    assert as_rat(x) is x
    assert as_rat("3/7") == as_rat(Fraction(6, 14)) == x and as_rat(2) == rat(2)
