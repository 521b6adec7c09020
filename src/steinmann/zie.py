"""The primitive-part Lie algebra of compositions and its dual coalgebra.

Lie elements are carried by planar full binary trees with lump-labeled
leaves, taken modulo antisymmetry and Jacobi.  Every tree reduces to the
basis of standard right-comb trees: combs ``[...[[S1,S2],S3]...,Sk]`` whose
first lump contains the basepoint ``i0`` (we fix i0 = minimum label, so
reductions are canonical).  Coordinates in that basis are what ``ZieElement``
stores.

The dual side stores coordinates over the same comb-index set, tagged by
which of the three quotient bases (p / m / c) they are expressed in.  The
re-basing of an arbitrary dual key into comb coordinates never solves shuffle
relations directly: a functional is determined by its values on comb trees,
and those values are computable by tree surgery (``p_eval``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import hopf
from .compositions import GroundSet, SetComposition, enumerate_compositions
from .errors import DomainError, GroundMismatchError
from .lincomb import LinComb, check_keys_over, extend_bilinearly, extend_linearly
from .rat import ONE, ZERO, as_rat


@dataclass(frozen=True)
class Tree:
    """A planar full binary tree; leaves carry disjoint non-empty lumps."""

    lump: tuple = None  # sorted label tuple when this is a leaf
    left: "Tree" = None
    right: "Tree" = None

    def __post_init__(self):
        if self.lump is not None:
            if self.left is not None or self.right is not None:
                raise DomainError("a leaf cannot have children")
            lump = tuple(sorted(self.lump))
            if not lump:
                raise DomainError("leaf lumps must be non-empty")
            object.__setattr__(self, "lump", lump)
        else:
            if self.left is None or self.right is None:
                raise DomainError("an inner node needs two children")
            if set(self.left.labels()) & set(self.right.labels()):
                raise DomainError("subtree grounds must be disjoint")

    def is_leaf(self) -> bool:
        return self.lump is not None

    def labels(self) -> tuple:
        if self.is_leaf():
            return self.lump
        return self.left.labels() + self.right.labels()

    def ground(self) -> GroundSet:
        return GroundSet(self.labels())

    def relabel(self, mapping: dict) -> "Tree":
        """Transport the leaf lumps along ``new label -> old label``."""
        if self.is_leaf():
            new_of_old = {old: new for new, old in mapping.items()}
            return leaf(tuple(new_of_old[a] for a in self.lump))
        return node(self.left.relabel(mapping), self.right.relabel(mapping))

    def __repr__(self):
        if self.is_leaf():
            return "".join(str(x) for x in self.lump)
        return f"[{self.left!r},{self.right!r}]"


def leaf(lump) -> Tree:
    return Tree(lump=tuple(lump))


def node(left: Tree, right: Tree) -> Tree:
    return Tree(lump=None, left=left, right=right)


def tree_from_nested(data) -> Tree:
    """Build a tree from nested lists: a leaf is a list of labels, a node a pair."""
    if (
        isinstance(data, (list, tuple))
        and len(data) == 2
        and all(isinstance(c, (list, tuple)) for c in data)
    ):
        return node(tree_from_nested(data[0]), tree_from_nested(data[1]))
    if isinstance(data, (list, tuple)) and all(not isinstance(c, (list, tuple)) for c in data):
        return leaf(data)
    raise DomainError(f"cannot interpret nested tree data {data!r}")


def debracket(t: Tree) -> SetComposition:
    """List the leaf lumps left to right."""
    lumps = []

    def walk(s: Tree):
        if s.is_leaf():
            lumps.append(s.lump)
        else:
            walk(s.left)
            walk(s.right)

    walk(t)
    return SetComposition(t.ground(), tuple(lumps))


def antisym(t: Tree):
    """All branch-switched variants of the tree with their parity signs."""
    if t.is_leaf():
        return [(t, 1)]
    out = []
    for lt, ls in antisym(t.left):
        for rt, rs in antisym(t.right):
            out.append((node(lt, rt), ls * rs))
            out.append((node(rt, lt), -ls * rs))
    return out


def comb_tree(f: SetComposition) -> Tree:
    """The right-comb tree with debracketing f."""
    if len(f) == 0:
        raise DomainError("no trees exist over the empty set")
    t = leaf(f.lumps[0])
    for lump in f.lumps[1:]:
        t = node(t, leaf(lump))
    return t


def p_eval(f: SetComposition, t: Tree):
    """Value on ``t`` of the dual-basis functional indexed by ``f``.

    Nonzero exactly when some branch switching of ``t`` debrackets to ``f``;
    the value is then the parity of the switching.
    """
    if f.ground != t.ground():
        raise GroundMismatchError("p_eval requires matching grounds")
    for variant, sign in antisym(t):
        if debracket(variant) == f:
            return as_rat(sign)
    return ZERO


def based_keys(g: GroundSet):
    """Compositions whose first lump contains the minimum label (comb index set)."""
    if len(g) == 0:
        return [SetComposition(g, ())]
    i0 = g.min_label()
    return [f for f in enumerate_compositions(g) if i0 in f.lumps[0]]


def zie_dimension(n: int) -> int:
    """Dimension of the Lie component: sum over partitions of (blocks-1)!.

    By convention the value at n = 0 is 1 (the empty index set count).
    """
    from math import factorial

    from .compositions import enumerate_partitions, standard_ground

    if n == 0:
        return 1
    parts = enumerate_partitions(standard_ground(n))
    return sum(factorial(len(p) - 1) for p in parts)


def _check_comb_keys(keys, ground: GroundSet):
    """Comb keys are compositions of ``ground`` with the basepoint in the first lump."""
    check_keys_over(keys, ground, (SetComposition,))
    i0 = ground.min_label() if len(ground) else None
    if i0 is not None and any(i0 not in key.lumps[0] for key in keys):
        raise DomainError("comb keys must contain the basepoint in the first lump")


class ZieElement(LinComb):
    """Right-comb coordinates of a Lie element."""

    __slots__ = ()
    label_names = ("ground",)

    def _check_keys(self, keys):
        _check_comb_keys(keys, self.ground)


def _comb_bracket(f: SetComposition, g: SetComposition) -> dict:
    """Comb coordinates of the bracket of two comb trees, by tree rewriting.

    Repeatedly applies antisymmetry (to keep the global basepoint on the
    left) and the rebracketing identity that turns a right factor
    ``[head, last]`` into two smaller brackets.
    """
    i0 = min(f.ground.min_label(), g.ground.min_label())
    if i0 in g.ground.labels:
        return {k: -v for k, v in _comb_bracket(g, f).items()}
    if len(g) == 1:
        key = SetComposition(
            GroundSet(f.ground.labels + g.ground.labels), f.lumps + g.lumps
        )
        return {key: ONE}
    head = SetComposition(g.ground.subset(set().union(*map(set, g.lumps[:-1]))), g.lumps[:-1])
    last = SetComposition(g.ground.subset(g.lumps[-1]), (g.lumps[-1],))
    out = {}
    for key, sign in _comb_bracket(f, head).items():
        new_key = SetComposition(
            GroundSet(key.ground.labels + last.ground.labels), key.lumps + last.lumps
        )
        out[new_key] = out.get(new_key, ZERO) + sign
    f_ext = SetComposition(
        GroundSet(f.ground.labels + last.ground.labels), f.lumps + last.lumps
    )
    for key, sign in _comb_bracket(f_ext, head).items():
        out[key] = out.get(key, ZERO) - sign
    return {k: v for k, v in out.items() if v != 0}


def reduce_tree(t: Tree) -> ZieElement:
    """Rewrite a tree into right-comb coordinates."""
    if t.is_leaf():
        key = SetComposition(t.ground(), (t.lump,))
        return ZieElement(t.ground(), {key: ONE})
    left = reduce_tree(t.left)
    right = reduce_tree(t.right)
    return bracket(left, right)


def bracket(z1: ZieElement, z2: ZieElement) -> ZieElement:
    """The Lie bracket: join and re-comb, extended bilinearly."""
    if z1.ground.label_set & z2.ground.label_set:
        raise GroundMismatchError("bracket requires disjoint grounds")
    new_ground = GroundSet(z1.ground.labels + z2.ground.labels)
    return ZieElement(new_ground, extend_bilinearly(z1.terms, z2.terms, _comb_bracket))


def embed_U(z: ZieElement) -> hopf.BasisElement:
    """Expand comb keys through branch switchings into the Q basis."""
    terms = {}
    for key, coeff in z.terms.items():
        for variant, sign in antisym(comb_tree(key)):
            dk = debracket(variant)
            terms[dk] = terms.get(dk, ZERO) + coeff * sign
    return hopf.BasisElement(z.ground, "Q", terms)


class ZieDualElement(LinComb):
    """Coordinates of a Lie coalgebra element over comb keys, in basis p, m or c."""

    __slots__ = ()
    label_names = ("ground", "basis")

    def _check_keys(self, keys):
        if self.basis not in ("p", "m", "c"):
            raise DomainError(f"unknown dual basis tag {self.basis!r}")
        _check_comb_keys(keys, self.ground)


def _rebase_p_key(f: SetComposition) -> dict:
    """Coordinates of one p-key over the based comb keys, via tree evaluation."""
    out = {}
    for key in based_keys(f.ground):
        v = p_eval(f, comb_tree(key))
        if v != 0:
            out[key] = v
    return out


def _project_to_p_terms(x: hopf.BasisElement) -> dict:
    """p-coordinates (over based comb keys) of the image of an element."""
    terms = extend_linearly(hopf.change_basis(x, "P").terms, _rebase_p_key)
    return {k: v for k, v in terms.items() if v != 0}


@lru_cache(maxsize=None)
def _dual_matrix(g: GroundSet, tag: str) -> dict:
    """For each based key K: the p-coordinates of the m_K (or c_K) functional."""
    upstairs = {"m": "M", "c": "C"}[tag]
    return {key: _project_to_p_terms(hopf.basis_vector(upstairs, key)) for key in based_keys(g)}


def dual_change_basis(d: ZieDualElement, target: str) -> ZieDualElement:
    """Convert coordinates between the p, m and c dual bases.

    Towards p is a matrix application; away from p solves the (invertible)
    triangular system over the based keys.
    """
    if target not in ("p", "m", "c"):
        raise DomainError(f"unknown dual basis tag {target!r}")
    if d.basis == target:
        return d
    if d.basis != "p":
        mat = _dual_matrix(d.ground, d.basis)
        d = ZieDualElement(d.ground, "p", extend_linearly(d.terms, mat.__getitem__))
        if target == "p":
            return d
    # now d is in p-coordinates and the target is m or c: solve the system
    from . import ratgeom

    keys = based_keys(d.ground)
    index = {k: i for i, k in enumerate(keys)}
    mat = _dual_matrix(d.ground, target)
    rows = []
    rhs = []
    for k in keys:  # equation per p-coordinate
        rows.append([mat[col].get(k, ZERO) for col in keys])
        rhs.append(d.terms.get(k, ZERO))
    sol = ratgeom.solve(rows, rhs)
    if sol is None:
        raise AssertionError("dual basis transition matrix must be invertible")
    return ZieDualElement(d.ground, target, dict(zip(keys, sol)))


def project_Ustar(x: hopf.BasisElement, basis: str = None) -> ZieDualElement:
    """Quotient map onto the Lie coalgebra, in dual basis coordinates.

    The source converts to the P basis, each P-key maps to the functional it
    induces on trees, and that functional is re-expressed over based comb
    keys by direct evaluation.  The optional tag picks the output coordinate
    basis; by default it mirrors the input (M -> m, C -> c, else p).
    """
    if basis is None:
        basis = {"M": "m", "C": "c"}.get(x.basis, "p")
    p_elem = ZieDualElement(x.ground, "p", _project_to_p_terms(x))
    return dual_change_basis(p_elem, basis)


def dual_pairing(d: ZieDualElement, z: ZieElement):
    """Evaluate a dual element against a Lie element (p against combs is Kronecker)."""
    if d.ground != z.ground:
        raise GroundMismatchError("dual pairing requires equal grounds")
    p = dual_change_basis(d, "p")
    total = ZERO
    for key, coeff in p.terms.items():
        total += coeff * z.terms.get(key, ZERO)
    return total


def _cocommutator(key: SetComposition, s: frozenset, t: frozenset) -> dict:
    """Deconcatenation of one key at (S, T) minus its deconcatenation at
    (T, S), both keyed (factor over S, factor over T): the factor over S
    always sits in the left leg, the deconcatenation side only sets the sign.
    """
    out = dict(hopf._key_coproduct("P", key, s, t))
    for (kt, ks), v in hopf._key_coproduct("P", key, t, s).items():
        out[(ks, kt)] = out.get((ks, kt), ZERO) - v
    return out


def cobracket(d: ZieDualElement, split) -> dict:
    """The cocommutator of deconcatenation at an ordered split (S, T).

    Returns a mapping ``(left key, right key) -> coefficient`` with both
    sides re-based to their own based comb keys, in the same p/m/c tag as the
    input.  Linear in ``d``.
    """
    s, t = (frozenset(side) for side in split)
    if not s or not t or (s & t) or (s | t) != d.ground.label_set:
        raise DomainError("cobracket requires a proper two-sided split")
    left_g, right_g = d.ground.subset(s), d.ground.subset(t)

    def rebase(ground, key):
        """A p-key over ``ground`` over its based comb keys, in the input's tag."""
        return dual_change_basis(ZieDualElement(ground, "p", _rebase_p_key(key)), d.basis).terms

    raw = extend_linearly(dual_change_basis(d, "p").terms, lambda k: _cocommutator(k, s, t))
    out = extend_linearly(
        raw, lambda pair: extend_bilinearly(rebase(left_g, pair[0]), rebase(right_g, pair[1]))
    )
    return {k: v for k, v in out.items() if v != 0}
