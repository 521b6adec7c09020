"""Functionals on adjoint chambers: the Steinmann / Lie-coalgebra machinery.

Restricting the cone functionals of the adjoint realization to chambers
kills the higher codimensions and leaves exactly the functionals satisfying
the four-term Steinmann relations.  This module materializes that picture:

* ``realize`` sends C_F to the cone functional of F and M/P elements there
  through ``hopf.change_basis``: the m- and p-functionals, coordinates and
  reconstructions are all its values;
* ``steinmann_relations`` reads the four-term relations off the chamber
  sign table, as the squares of its flip graph on crossing hyperplane pairs;
* ``derivative`` takes the discrete derivative of a Steinmann functional
  across a hyperplane: the signs of each pair of side chambers assemble the
  two chambers the pair's point on the hyperplane separates;
* ``eulerian_element`` solves the Eulerian system on the 0/1 rows of the
  based cone functionals, and with ``comb_coefficients`` implements the
  Taylor-style expansion that reconstructs a Steinmann functional from
  iterated derivatives evaluated at Eulerian elements;
* ``dynkin`` / ``egs_expansion`` produce the primitive element of a chamber
  in the H basis, by dual-basis evaluation at that one chamber and by the
  folded Tits product.

The sign table is the only geometry this layer reads; every chamber key it
forms is checked against the table.

``ChamberFunctional``, ``ChamberSum`` and ``FunctionalTensor`` are sparse
combinations keyed by chamber sign strings, on the shared
``lincomb.LinComb`` base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import arrangement as arr
from . import hopf
from . import preposets as pp
from . import ratgeom
from .compositions import (
    GroundSet,
    SetComposition,
    coarser_compositions,
    enumerate_compositions,
)
from .errors import DomainError, GroundMismatchError
from .lincomb import LinComb, extend_bilinearly, extend_linearly
from .preposets import Preposet
from .rat import ONE, ZERO, as_rat, rat
from .zie import _cocommutator, based_keys


def _check_chambers(signs, ground: GroundSet):
    table = arr.chamber_index(ground)
    for s in signs:
        if s not in table:
            raise DomainError(f"unknown chamber {s!r}")


class ChamberFunctional(LinComb):
    """A rational value on every chamber of the arrangement over the ground.

    ``terms`` holds the nonzero values by sign string; ``values`` is the
    total table, with a zero for every other chamber.
    """

    __slots__ = ("_values",)
    label_names = ("ground",)

    def _check_keys(self, keys):
        _check_chambers(keys, self.ground)

    @property
    def values(self) -> dict:
        """Sign string -> value for every chamber; built once, read-only."""
        try:
            return self._values
        except AttributeError:
            values = {s: self.terms.get(s, ZERO) for s in arr.chamber_index(self.ground)}
            object.__setattr__(self, "_values", values)
            return values

    def __call__(self, chamber):
        signs = chamber.signs if isinstance(chamber, arr.AdjointChamber) else chamber
        return self.values[signs]


class ChamberSum(LinComb):
    """A formal rational combination of chambers (the dual side of the above)."""

    __slots__ = ()
    label_names = ("ground",)
    weights = property(lambda self: self.terms, doc="sign string -> nonzero weight")

    def _check_keys(self, keys):
        _check_chambers(keys, self.ground)


def evaluate(f: ChamberFunctional, e: ChamberSum):
    if f.ground != e.ground:
        raise GroundMismatchError("evaluation grounds differ")
    return sum((f.coeff(s) * w for s, w in e.weights.items()), ZERO)


class FunctionalTensor(LinComb):
    """Values over pairs (chamber over S, chamber over T); sparse storage."""

    __slots__ = ()
    label_names = ("left_ground", "right_ground")
    values = property(lambda self: self.terms, doc="(left signs, right signs) -> nonzero value")

    def _check_keys(self, keys):
        left = arr.chamber_index(self.left_ground)
        right = arr.chamber_index(self.right_ground)
        for a, b in keys:
            if a not in left or b not in right:
                raise DomainError("unknown chamber pair")

    def value(self, a, b):
        return self.coeff((a, b))

    def swap(self) -> "FunctionalTensor":
        left, right = self.labels
        return FunctionalTensor._trusted(
            (right, left), {(b, a): v for (a, b), v in self.terms.items()}
        )

    def contract_right(self, e: ChamberSum) -> ChamberFunctional:
        """Pair the right leg against a chamber combination."""
        if e.ground != self.right_ground:
            raise GroundMismatchError("contraction ground mismatch")
        out = {}
        for (a, b), v in self.terms.items():
            w = e.weights.get(b)
            if w is not None:
                out[a] = out.get(a, ZERO) + v * w
        return ChamberFunctional(self.left_ground, out)


# ---------------------------------------------------------------------------
# the dual basis functionals


def _requirements(p: Preposet):
    """``(hyperplane index, sign)`` pairs a chamber must show to lie in the
    cone of ``p``: one per coprobe split, on the side the split names."""
    index = {tb.S: i for i, tb in enumerate(arr.hyperplane_splits(p.ground))}
    return [(index[tb.S], "+") if tb.S in index else (index[tb.T], "-") for tb in pp.coprobes(p)]


def c_functional(p: Preposet) -> ChamberFunctional:
    """Characteristic functional of a generalized permutohedral cone.

    Value 1 exactly on the chambers whose signature contains every coprobe
    split of the preposet; purely combinatorial, no feasibility calls.
    """
    requirements = _requirements(p)
    values = {
        ch.signs: ONE
        for ch in arr.enumerate_chambers(p.ground)
        if all(ch.signs[i] == s for i, s in requirements)
    }
    return ChamberFunctional(p.ground, values)


def realize(x: hopf.BasisElement) -> ChamberFunctional:
    """The geometric realization: C_F goes to the cone functional of F, other
    M/P/C elements through their C coordinates (H and Q: DomainError)."""
    terms = hopf.change_basis(x, "C").terms
    return ChamberFunctional(
        x.ground, extend_linearly(terms, lambda k: c_functional(pp.preposet_of(k)).terms)
    )


def m_functional(f: SetComposition) -> ChamberFunctional:
    """Image of M_F: the signed characteristic functional of the open cone."""
    return realize(hopf.basis_vector("M", f))


def p_functional(f: SetComposition) -> ChamberFunctional:
    """Image of P_F, the basis dual to the shuffle basis Q."""
    return realize(hopf.basis_vector("P", f))


def m_open_cone_value(f: SetComposition, chamber: arr.AdjointChamber):
    """Independent oracle for m values: signed open-cone membership.

    Tests whether the chamber witness is a strictly positive combination of
    the coroots of the opposite composition, with sign (-1)^(lumps-1).
    """
    from .compositions import opposite as comp_opposite

    rev = comp_opposite(f)
    p = pp.preposet_of(rev)
    gens = [
        ratgeom.coroot_point(f.ground, a, b).coords for (a, b) in p.pairs()
    ]
    if not gens:
        # no coroots: the cone is the origin and so is its relative interior
        member = all(c == 0 for c in chamber.witness.coords)
    else:
        member = ratgeom.cone_member(chamber.witness.coords, gens, open_cone=True) is not None
    if not member:
        return ZERO
    return as_rat((-1) ** (len(f) - 1))


# ---------------------------------------------------------------------------
# Steinmann relations


@dataclass(frozen=True)
class SteinmannRelation:
    """Four chambers around a codim-2 face with alternating signs.

    The chambers agree outside the two named hyperplanes and realize all
    four sign combinations on them; the (+1, -1, -1, +1) pattern pairs with
    the (+,+), (+,-), (-,+), (-,-) combinations in that order.
    """

    ground: GroundSet
    hyperplanes: tuple  # pair of hyperplane indices (i, j), i < j
    entries: tuple  # four (sign string, coefficient) pairs
    face: arr.AdjointFace

    def apply(self, f: ChamberFunctional):
        (pp_signs, _), (pm_signs, _), (mp_signs, _), (mm_signs, _) = self.entries
        return f.coeff(pp_signs) - f.coeff(pm_signs) - f.coeff(mp_signs) + f.coeff(mm_signs)


def _crossing(tb1, tb2) -> bool:
    s1, t1 = set(tb1.S), set(tb1.T)
    s2, t2 = set(tb2.S), set(tb2.T)
    return bool(s1 & s2) and bool(s1 & t2) and bool(t1 & s2) and bool(t1 & t2)


def _flat_classes(g: GroundSet, i: int, j: int):
    """The parallel classes of the other hyperplanes restricted to the flat
    of H_i and H_j, which order the cells of that restricted arrangement.

    A class is named by its first member and oriented by that member's
    leading coefficient in the flat's kernel basis.  Returns ``(k, positive)``
    for each class in order: bit ``idx`` of a cell is set when the chamber's
    sign on ``k`` is ``+`` exactly when ``positive``.
    """
    reduced = arr._reduced_functionals(g)
    flat = []  # the kernel basis, each vector scaled to integers
    for b in ratgeom.kernel_basis([reduced[i], reduced[j]], len(g) - 1):
        den = math.lcm(*(v.denominator for v in b))
        flat.append([int(v * den) for v in b])
    reps = []  # (primitive direction with positive lead, first member, orientation)
    for k, row in enumerate(reduced):
        if k in (i, j):
            continue
        vec = [sum(a * c for a, c in zip(row, b)) for b in flat]
        lead = next(v for v in vec if v != 0)
        unit = math.gcd(*vec) * (1 if lead > 0 else -1)
        direction = tuple(v // unit for v in vec)
        if all(d2 != direction for d2, _, _ in reps):
            reps.append((direction, k, lead > 0))
    return [(k, positive) for _, k, positive in reps]


def _exact(coords):
    """``int`` coordinates when every denominator is 1, else the rationals."""
    if all(v.denominator == 1 for v in coords):
        return [int(v) for v in coords]
    return coords


def _plane_point(x, y, mask):
    """A positive combination of ``x`` (positive side) and ``y`` (negative
    side) of the hyperplane with side ``mask``, lying on that hyperplane."""
    lx = sum(v for p, v in enumerate(x) if (mask >> p) & 1)
    ly = sum(v for p, v in enumerate(y) if (mask >> p) & 1)
    return tuple(lx * b - ly * a for a, b in zip(x, y))


@lru_cache(maxsize=None)
def _relations_cached(labels: tuple):
    """Squares of the flip graph: a chamber with signs (+, +) on a crossing
    pair of hyperplanes whose three flips on that pair are chambers too.

    The open cone cut out by the other hyperplanes meets all four quadrants
    of (H_i, H_j) and is convex, so it meets H_i and H_j in a face lying on
    exactly those two; its witness is interpolated from the four chamber
    witnesses.  Within each pair the squares are sorted by their cell in
    the restricted arrangement.
    """
    g = GroundSet(labels)
    splits = arr.hyperplane_splits(g)
    masks = arr._side_masks(g)
    m = len(splits)
    table = {  # sign bits -> chamber
        sum(1 << k for k, c in enumerate(ch.signs) if c == "+"): ch
        for ch in arr.enumerate_chambers(g)
    }
    relations = []
    for i in range(m):
        for j in range(i + 1, m):
            if not _crossing(splits[i], splits[j]):
                continue
            bi, bj = 1 << i, 1 << j
            corners = [
                b for b in table
                if b & bi and b & bj and b ^ bi in table and b ^ bj in table and b ^ bi ^ bj in table
            ]
            if not corners:
                continue
            classes = _flat_classes(g, i, j)
            cells = {
                b: sum(1 << idx for idx, (k, pos) in enumerate(classes) if bool((b >> k) & 1) == pos)
                for b in corners
            }
            for b in sorted(corners, key=cells.get):
                square = (table[b], table[b ^ bj], table[b ^ bi], table[b ^ bi ^ bj])
                wpp, wpm, wmp, wmm = (_exact(ch.witness.coords) for ch in square)
                a = _plane_point(wpp, wmp, masks[i])
                c = _plane_point(wpm, wmm, masks[i])
                face_signs = list(square[0].signs)
                face_signs[i] = face_signs[j] = "0"
                witness = ratgeom.Point(g, _plane_point(a, c, masks[j]))
                face = arr.AdjointFace(g, "".join(face_signs), witness)
                entries = tuple(zip((ch.signs for ch in square), (1, -1, -1, 1)))
                relations.append(SteinmannRelation(g, (i, j), entries, face))
    return tuple(relations)


def steinmann_relations(g: GroundSet):
    """All four-term relations from codim-2 faces on exactly two hyperplanes."""
    return list(_relations_cached(g.labels))


def is_steinmann(f: ChamberFunctional) -> bool:
    return all(rel.apply(f) == 0 for rel in steinmann_relations(f.ground))


@lru_cache(maxsize=None)
def _cone_system(labels: tuple):
    """The based keys, the chambers, and each based key's cone functional as
    one 0/1 ``int`` row over the chamber order."""
    g = GroundSet(labels)
    keys = tuple(based_keys(g))
    chambers = arr.enumerate_chambers(g)
    rows = tuple(
        tuple(int(all(ch.signs[i] == s for i, s in req)) for ch in chambers)
        for req in (_requirements(pp.preposet_of(k)) for k in keys)
    )
    return keys, chambers, rows


def steinmann_basis_coords(f: ChamberFunctional):
    """Coordinates of ``f`` over the based cone functionals, or None.

    Solvable exactly when ``f`` satisfies the Steinmann relations; the
    coordinates are then unique because those functionals are independent.
    """
    keys, chambers, rows = _cone_system(f.ground.labels)
    sol = ratgeom.solve(list(zip(*rows)), [f.values[ch.signs] for ch in chambers])
    if sol is None:
        return None
    return dict(zip(keys, sol))


def from_basis_coords(g: GroundSet, coords: dict) -> ChamberFunctional:
    """Assemble a functional from cone-functional coordinates."""
    return realize(hopf.BasisElement(g, "C", coords))


# ---------------------------------------------------------------------------
# discrete derivative

_FLIP = str.maketrans("+-", "-+")


def _cut(g: GroundSet, side: GroundSet, mask: int):
    """Where a chamber over ``side`` shows the sign of the hyperplane of ``g``
    with side ``mask``: an index into its signs followed by their flips, or
    None when the hyperplane does not cut ``side`` in a proper part."""
    part = sum(1 << p for p, x in enumerate(side.labels) if (mask >> g.position(x)) & 1)
    full = (1 << len(side)) - 1
    if part in (0, full):
        return None
    masks = arr._side_masks(side)
    # the side's own hyperplane keeps the part holding its minimum label
    return masks.index(part) if part & 1 else len(masks) + masks.index(full ^ part)


def derivative(f: ChamberFunctional, split, seed: int = 0) -> FunctionalTensor:
    """Discrete derivative of a Steinmann functional across a hyperplane.

    For chambers a over S and b over T, the point x_a + eps*y_b lies on the
    split hyperplane and on no other: every other hyperplane U cuts S or T in
    a proper part.  When U cuts the dominant side its sign is that side's
    chamber sign on the part (flipped when the part lacks the side's minimum
    label), else the other side's.  This assembles the two chambers next to
    the point, which differ only on the split; the value is the functional's
    difference across it.  The parity of ``seed`` picks the dominant side
    (even: S); the Steinmann relations make the result independent of it.
    """
    s_labels, t_labels = split
    s, t = set(s_labels), set(t_labels)
    if not s or not t or (s & t) or (s | t) != f.ground.label_set:
        raise DomainError("derivative requires a proper two-sided split")
    if not is_steinmann(f):
        raise DomainError("derivative of a non-Steinmann functional is ill-defined")
    return _derivative(f, (s_labels, t_labels), seed)


def _derivative(f: ChamberFunctional, split, seed: int) -> FunctionalTensor:
    """``derivative`` past its checks of the split and the Steinmann condition."""
    g = f.ground
    sides = tuple(g.subset(side) for side in split)
    # S holds the minimum exactly when its side of the split is the positive one
    plus, minus = ("+", "-") if g.min_label() in sides[0] else ("-", "+")
    plan = []  # per hyperplane: (0 = S, 1 = T, 2 = the split, index into the signs)
    for mask in arr._side_masks(g):
        reads = [(k, _cut(g, sides[k], mask)) for k in ((0, 1) if seed % 2 == 0 else (1, 0))]
        plan.append(next(((k, j) for k, j in reads if j is not None), (2, 0)))
    split_index = plan.index((2, 0))
    table = arr.chamber_index(g)
    left, right = ([ch.signs for ch in arr.enumerate_chambers(side)] for side in sides)
    values = {}
    for a in left:
        for b in right:
            signs = (a + a.translate(_FLIP), b + b.translate(_FLIP), plus)
            key_plus = "".join(signs[k][j] for k, j in plan)
            key_minus = key_plus[:split_index] + minus + key_plus[split_index + 1:]
            if key_plus not in table or key_minus not in table:
                raise AssertionError("assembled chambers are not in the chamber table")
            values[(a, b)] = f.values[key_plus] - f.values[key_minus]
    return FunctionalTensor(sides[0], sides[1], values)


def c_derivative_formula(f_comp: SetComposition, split) -> FunctionalTensor:
    """Closed form of the derivative of a cone functional (deconcatenation
    cocommutator); the independent comparison target for ``derivative``."""
    s, t = (frozenset(side) for side in split)
    g = f_comp.ground

    # each factor evaluates on its own side of the separating hyperplane
    def cone_product(pair):
        cs, ct = (c_functional(pp.preposet_of(side)).terms for side in pair)
        return extend_bilinearly(cs, ct)

    values = extend_linearly(_cocommutator(f_comp, s, t), cone_product)
    return FunctionalTensor(g.subset(s), g.subset(t), values)


# ---------------------------------------------------------------------------
# Eulerian elements and the expansion theorem


def _eulerian_system(g: GroundSet):
    """The chambers and the Eulerian system ``c_K(e) = 1/len(K)`` over the
    based keys K.

    The p_(I) coefficient of c_K is 1/len(K), and the p and c functionals
    of the based keys differ by an invertible triangular change of basis.  So
    this system has the reduced row echelon form of ``p_K(e) = [K = (I)]``,
    and with it the same solution with free variables zero and the same
    kernel basis.
    """
    if len(g) == 0:
        raise DomainError("the Eulerian element needs a non-empty ground set")
    keys, chambers, rows = _cone_system(g.labels)
    return chambers, rows, [rat(1, len(k)) for k in keys]


@lru_cache(maxsize=None)
def _eulerian_cached(labels: tuple):
    g = GroundSet(labels)
    chambers, rows, rhs = _eulerian_system(g)
    sol = ratgeom.solve(rows, rhs)
    if sol is None:
        raise AssertionError("Eulerian defining system must be consistent")
    return ChamberSum(g, {ch.signs: v for ch, v in zip(chambers, sol)})


def eulerian_element(g: GroundSet) -> ChamberSum:
    """A chamber combination on which only the one-lump p functional is 1.

    Solved on the based cone functionals: c_K(e) = 1/len(K) for every based
    key K.  Any solution will do (they differ by the span of the Steinmann
    relations); the solver's fixed pivot rule makes this one deterministic.
    """
    return _eulerian_cached(g.labels)


def uniform_eulerian_search(g: GroundSet, count: int):
    """A solution of the Eulerian system with ``count`` equal weights, or None.

    Solutions form an affine space (particular + Steinmann span); restricting
    to a pivot coordinate set makes the 0-or-1/count search finite and
    complete.
    """
    chambers, rows, rhs = _eulerian_system(g)
    particular = ratgeom.solve(rows, rhs)
    if particular is None:
        return None
    kernel = ratgeom.kernel_basis(rows, len(chambers))
    pivots, _ = ratgeom.rref(kernel, width=len(chambers))
    on_pivots = [[b[p] for b in kernel] for p in pivots]
    target = rat(1, count)
    for assignment in product((ZERO, target), repeat=len(kernel)):
        t_sol = ratgeom.solve(on_pivots, [a - particular[p] for a, p in zip(assignment, pivots)])
        if t_sol is None:
            continue
        full = list(particular)
        for t_b, b in zip(t_sol, kernel):
            if t_b != 0:
                full = [v + t_b * w for v, w in zip(full, b)]
        if all(v in (ZERO, target) for v in full) and full.count(target) == count:
            return ChamberSum(g, {ch.signs: v for ch, v in zip(chambers, full)})
    return None


def comb_coefficients(f: ChamberFunctional) -> dict:
    """Expansion coefficients of a Steinmann functional over based keys.

    Peels the last lump of each based key: differentiate at (rest, last),
    contract the right leg with the Eulerian element of the last lump, and
    recurse on the left functional.
    """
    g = f.ground
    if len(g) == 0:
        raise DomainError("expansion needs a non-empty ground set")
    if not is_steinmann(f):
        raise DomainError("expansion requires a Steinmann functional")
    i0 = g.min_label()
    keys = [k for k in enumerate_compositions(g) if i0 in k.lumps[0]]

    def peel(func: ChamberFunctional, lump_seq) -> object:
        if len(lump_seq) == 1:
            return evaluate(func, eulerian_element(func.ground))
        rest = tuple(x for lump in lump_seq[:-1] for x in lump)
        last = lump_seq[-1]
        tensor = _derivative(func, (rest, last), 0)
        contracted = tensor.contract_right(eulerian_element(func.ground.subset(last)))
        return peel(contracted, lump_seq[:-1])

    return {key: peel(f, key.lumps) for key in keys}


def reconstruct(g: GroundSet, coeffs: dict) -> ChamberFunctional:
    """Assemble ``sum a_F p_F`` from expansion coefficients."""
    return realize(hopf.BasisElement(g, "P", coeffs))


# ---------------------------------------------------------------------------
# Dynkin elements


def dynkin(ch: arr.AdjointChamber) -> hopf.BasisElement:
    """The primitive element of a chamber: m-functional values against H keys.

    Each m-functional is an alternating sum of cone functionals over
    coarsenings, so only the cone functionals' values at ``ch`` are needed.
    """
    comps = enumerate_compositions(ch.ground)
    inside = {
        k: all(ch.signs[i] == s for i, s in _requirements(pp.preposet_of(k))) for k in comps
    }
    terms = {
        f: sum((-1) ** (len(f) - len(k)) for k in coarser_compositions(f) if inside[k])
        for f in comps
    }
    return hopf.BasisElement(ch.ground, "H", terms)


def egs_expansion(ch: arr.AdjointChamber) -> hopf.BasisElement:
    """The folded Tits product over the chamber's signature.

    Each split (S, T) on whose positive side the chamber sits contributes a
    factor (one-lump) minus (T, S); the factors commute under the Tits
    product, so the canonical hyperplane order fixes the fold.
    """
    g = ch.ground
    one_lump = SetComposition(g, (g.labels,) if len(g) else ())  # the empty ground: no lumps
    acc = hopf.basis_vector("H", one_lump)
    for s, tb in zip(ch.signs, arr.hyperplane_splits(g)):
        member = tb if s == "+" else tb.reversed()
        factor = hopf.basis_vector("H", one_lump) - hopf.basis_vector(
            "H", SetComposition(g, (member.T, member.S))
        )
        acc = hopf.tits_h(acc, factor)
    return acc


def stein_quotient_dim(g: GroundSet) -> int:
    """Chamber count minus the rank of the Steinmann relation system."""
    chambers = arr.enumerate_chambers(g)
    pos = {ch.signs: i for i, ch in enumerate(chambers)}
    rows = []
    for rel in steinmann_relations(g):
        rows.append({pos[s]: as_rat(c) for s, c in rel.entries})
    return len(chambers) - ratgeom.rank_sparse(rows)
