"""Preposets, two-block splits, and adjoint families.

A preposet is stored as its set of non-identity ordered pairs ``(i1, i2)``
(read: i1 lies weakly above i2), kept transitively closed.  Internally the
relation is a tuple of row bitmasks over ground positions, which keeps
closure, restriction and comparisons cheap at the n <= 7 scale this library
targets.

Two-block splits ``(S, T)`` of the ground set carry a partial product that
mirrors addition of 0/1 indicator vectors modulo the all-ones vector, and an
adjoint family is a set of splits closed under taking non-negative rational
combinations of those indicators.  Closure is decided by exact cone
membership, never floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import ratgeom
from .compositions import (
    GroundSet,
    SetComposition,
    SetPartition,
    relabel_ground,
)
from .errors import DomainError, GroundMismatchError
from .rat import ONE


@dataclass(frozen=True)
class Preposet:
    """A transitively closed irreflexive pair relation on a ground set."""

    ground: GroundSet
    rows: tuple  # rows[i] = bitmask of positions j with (label_i, label_j) in p

    def __post_init__(self):
        n = len(self.ground)
        rows = tuple(int(r) & ~(1 << i) & ((1 << n) - 1) for i, r in enumerate(self.rows))
        if len(rows) != n:
            raise DomainError("relation must have one row per ground label")
        for i in range(n):
            for j in range(n):
                if (rows[i] >> j) & 1:
                    for k in range(n):
                        if (rows[j] >> k) & 1 and k != i and not (rows[i] >> k) & 1:
                            raise DomainError("preposet relation must be transitively closed")
        object.__setattr__(self, "rows", rows)

    def has(self, i1, i2) -> bool:
        return bool((self.rows[self.ground.position(i1)] >> self.ground.position(i2)) & 1)

    def pairs(self) -> tuple:
        labels = self.ground.labels
        out = []
        for i, row in enumerate(self.rows):
            for j in range(len(labels)):
                if (row >> j) & 1:
                    out.append((labels[i], labels[j]))
        return tuple(sorted(out))

    def relabel(self, mapping: dict) -> "Preposet":
        """Transport along a bijection ``new label -> old label``."""
        new_g = relabel_ground(self.ground, mapping)
        new_of_old = {old: new for new, old in mapping.items()}
        return preposet(new_g, [(new_of_old[a], new_of_old[b]) for a, b in self.pairs()])

    def __repr__(self):
        return f"Preposet({self.pairs()!r})"


def preposet(g: GroundSet, pairs) -> Preposet:
    """Build a preposet from explicit pairs; raises unless already closed."""
    n = len(g)
    rows = [0] * n
    for i1, i2 in pairs:
        if i1 == i2:
            raise DomainError("identity pairs are implicit, not stored")
        rows[g.position(i1)] |= 1 << g.position(i2)
    return Preposet(g, tuple(rows))


def transitive_closure(g: GroundSet, pairs) -> Preposet:
    """Smallest preposet containing the given pairs (Warshall)."""
    n = len(g)
    rows = [0] * n
    for i1, i2 in pairs:
        if i1 == i2:
            continue
        rows[g.position(i1)] |= 1 << g.position(i2)
    return _closure_of_rows(g, rows)


def preposet_of(f: SetComposition) -> Preposet:
    """Encode a composition: (i1, i2) iff i1's lump is weakly left of i2's."""
    g = f.ground
    n = len(g)
    lump_index = {}
    for j, lump in enumerate(f.lumps):
        for x in lump:
            lump_index[g.position(x)] = j
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and lump_index[i] <= lump_index[j]:
                rows[i] |= 1 << j
    return Preposet(g, tuple(rows))


def union(p: Preposet, q: Preposet) -> Preposet:
    """Transitive closure of the set union of two preposets."""
    if p.ground != q.ground:
        raise GroundMismatchError("preposet union requires equal grounds")
    merged = tuple(a | b for a, b in zip(p.rows, q.rows))
    return _closure_of_rows(p.ground, merged)


def _closure_of_rows(g: GroundSet, rows) -> Preposet:
    n = len(g)
    rows = list(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    mask = (1 << n) - 1
    rows = [r & ~(1 << i) & mask for i, r in enumerate(rows)]
    return Preposet(g, tuple(rows))


def leq(q: Preposet, p: Preposet) -> bool:
    """q <= p iff p's pairs are contained in q's."""
    if q.ground != p.ground:
        raise GroundMismatchError("preposet comparison requires equal grounds")
    return all(pr & ~qr == 0 for qr, pr in zip(q.rows, p.rows))


def nonsymmetric_rows(p: Preposet) -> tuple:
    n = len(p.ground)
    out = []
    for i in range(n):
        row = 0
        for j in range(n):
            if (p.rows[i] >> j) & 1 and not (p.rows[j] >> i) & 1:
                row |= 1 << j
        out.append(row)
    return tuple(out)


def preceq(q: Preposet, p: Preposet) -> bool:
    """q <= p and every nonsymmetric pair of p stays nonsymmetric in q."""
    if not leq(q, p):
        return False
    qn = nonsymmetric_rows(q)
    for pr, qr in zip(nonsymmetric_rows(p), qn):
        if pr & ~qr:
            return False
    return True


def lumps(p: Preposet) -> SetPartition:
    """Equivalence classes of mutual comparability."""
    n = len(p.ground)
    labels = p.ground.labels
    assigned = [None] * n
    blocks = []
    for i in range(n):
        if assigned[i] is not None:
            continue
        block = [i] + [
            j
            for j in range(i + 1, n)
            if (p.rows[i] >> j) & 1 and (p.rows[j] >> i) & 1
        ]
        for j in block:
            assigned[j] = len(blocks)
        blocks.append(tuple(labels[j] for j in block))
    return SetPartition(p.ground, tuple(blocks))


def lump_count(p: Preposet) -> int:
    return len(lumps(p))


def preceq_l(q: Preposet, p: Preposet) -> bool:
    return preceq(q, p) and lump_count(q) == lump_count(p)


def blocks(p: Preposet) -> SetPartition:
    """Connectivity classes of the symmetrized relation."""
    n = len(p.ground)
    labels = p.ground.labels
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(n):
            if (p.rows[i] >> j) & 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(labels[i])
    return SetPartition(p.ground, tuple(tuple(v) for v in groups.values()))


def opposite(p: Preposet) -> Preposet:
    n = len(p.ground)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if (p.rows[i] >> j) & 1:
                rows[j] |= 1 << i
    return Preposet(p.ground, tuple(rows))


def restrict(p: Preposet, labels) -> Preposet:
    sub = p.ground.subset(labels)
    positions = [p.ground.position(l) for l in sub.labels]
    rows = []
    for i in positions:
        row = 0
        for jj, j in enumerate(positions):
            if (p.rows[i] >> j) & 1:
                row |= 1 << jj
        rows.append(row)
    return Preposet(sub, tuple(rows))


def is_total(p: Preposet) -> bool:
    n = len(p.ground)
    return all(
        (p.rows[i] >> j) & 1 or (p.rows[j] >> i) & 1
        for i in range(n)
        for j in range(i + 1, n)
    )


def to_composition(p: Preposet) -> SetComposition:
    """Recover the composition of a total preposet: lumps ordered downward."""
    if not is_total(p):
        raise DomainError("only total preposets correspond to compositions")
    part = lumps(p)
    # lump A precedes lump B iff some (hence every) a in A relates above b in B
    def key(block):
        i = p.ground.position(block[0])
        return -bin(p.rows[i]).count("1")  # higher lumps relate to more labels

    ordered = sorted(part.blocks, key=key)
    return SetComposition(p.ground, tuple(ordered))


# ---------------------------------------------------------------------------
# two-block splits and adjoint families


@dataclass(frozen=True)
class TwoBlock:
    """An ordered split (S, T) of the ground set into two non-empty blocks."""

    ground: GroundSet
    S: tuple
    T: tuple

    def __post_init__(self):
        s, t = tuple(sorted(self.S)), tuple(sorted(self.T))
        if not s or not t:
            raise DomainError("two-block sides must be non-empty")
        if set(s) & set(t) or set(s) | set(t) != self.ground.label_set:
            raise DomainError("two-block sides must partition the ground set")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "T", t)

    def reversed(self) -> "TwoBlock":
        return TwoBlock(self.ground, self.T, self.S)

    def relabel(self, mapping: dict) -> "TwoBlock":
        """Transport along a bijection ``new label -> old label``."""
        new_of_old = {old: new for new, old in mapping.items()}
        new_g = relabel_ground(self.ground, mapping)
        return TwoBlock(new_g, *(tuple(new_of_old[a] for a in side) for side in (self.S, self.T)))

    def weight_vector(self) -> ratgeom.Point:
        """The 0/1 indicator lift of S (a weight point, defined mod all-ones)."""
        return ratgeom.weight_point(self.ground, self.S)

    def __repr__(self):
        s = "".join(str(x) for x in self.S)
        t = "".join(str(x) for x in self.T)
        return f"({s}|{t})"


def two_block(g: GroundSet, s_labels) -> TwoBlock:
    s = set(s_labels)
    t = g.label_set - s
    return TwoBlock(g, tuple(s), tuple(t))


def all_two_blocks(g: GroundSet):
    """All 2^n - 2 ordered splits, deterministically ordered."""
    labels = g.labels
    out = []
    for r in range(1, len(labels)):
        for s in itertools.combinations(labels, r):
            out.append(two_block(g, s))
    out.sort(key=lambda tb: (len(tb.S), tb.S))
    return out


def two_block_product(a: TwoBlock, b: TwoBlock):
    """Partial product matching addition of indicator vectors, or None.

    (S,T) o (U,V) is (S u U, T n V) when T strictly contains U, and
    (S n U, T u V) when S strictly contains V; otherwise the indicator sum is
    not a two-block indicator and the product is undefined.
    """
    if a.ground != b.ground:
        raise GroundMismatchError("two-block product requires equal grounds")
    S, T, U, V = set(a.S), set(a.T), set(b.S), set(b.T)
    if U < T:
        return TwoBlock(a.ground, tuple(S | U), tuple(T & V))
    if V < S:
        return TwoBlock(a.ground, tuple(S & U), tuple(T | V))
    return None


@dataclass(frozen=True)
class AdjointFamily:
    """A set of two-block splits (possibly requiring closure; see adjoint_closure)."""

    ground: GroundSet
    members: frozenset

    def __post_init__(self):
        members = frozenset(self.members)
        for tb in members:
            if not isinstance(tb, TwoBlock) or tb.ground != self.ground:
                raise DomainError("family members must be two-blocks over the same ground")
        object.__setattr__(self, "members", members)

    def __contains__(self, tb: TwoBlock) -> bool:
        return tb in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members, key=lambda tb: (len(tb.S), tb.S)))

    def opposite(self) -> "AdjointFamily":
        return AdjointFamily(self.ground, frozenset(tb.reversed() for tb in self.members))

    def relabel(self, mapping: dict) -> "AdjointFamily":
        """Transport along a bijection ``new label -> old label``, member by member."""
        new_g = relabel_ground(self.ground, mapping)
        return AdjointFamily(new_g, frozenset(tb.relabel(mapping) for tb in self.members))

    def __le__(self, other: "AdjointFamily") -> bool:
        """Family order: self <= other iff other's members are contained in self's."""
        if self.ground != other.ground:
            raise GroundMismatchError("family comparison requires equal grounds")
        return other.members <= self.members


def coprobes(p: Preposet) -> AdjointFamily:
    """All splits (S, T) whose total preposet contains p.

    Concretely: S is upward closed and T downward closed for p, i.e. no pair
    of p points from T into S.
    """
    g = p.ground
    n = len(g)
    labels = g.labels
    members = []
    for mask in range(1, (1 << n) - 1):
        ok = True
        for i in range(n):
            if not (mask >> i) & 1:  # i on the T side
                if p.rows[i] & mask:  # relates above something in S
                    ok = False
                    break
        if ok:
            members.append(two_block(g, [labels[i] for i in range(n) if (mask >> i) & 1]))
    return AdjointFamily(g, frozenset(members))


def adjoint_closure(g: GroundSet, members) -> AdjointFamily:
    """All splits whose indicator lies in the rational cone of the members'.

    Membership is modulo the all-ones vector (weights live in the quotient),
    decided by exact cone feasibility per candidate.
    """
    gens = [tb.weight_vector().coords for tb in members]
    ones = tuple(ONE for _ in g.labels)
    out = []
    for cand in all_two_blocks(g):
        tgt = cand.weight_vector().coords
        if ratgeom.cone_member(tgt, gens, lineality=(ones,)) is not None:
            out.append(cand)
    return AdjointFamily(g, frozenset(out))


def classify(fam: AdjointFamily) -> dict:
    """Totality flags and the symmetric/nonsymmetric split of a family."""
    sym, nonsym = [], []
    total = True
    totally_nonsymmetric = True
    for tb in all_two_blocks(fam.ground):
        fwd, bwd = tb in fam, tb.reversed() in fam
        if fwd and bwd:
            if tb not in sym:
                sym.append(tb)
        elif fwd:
            nonsym.append(tb)
        if not (fwd or bwd):
            total = False
        if fwd == bwd:
            totally_nonsymmetric = False
    return {
        "total": total,
        "totally_nonsymmetric": totally_nonsymmetric,
        "symmetric_part": AdjointFamily(fam.ground, frozenset(sym)),
        "nonsymmetric_part": AdjointFamily(fam.ground, frozenset(nonsym)),
    }


def adjoint_signature(h: ratgeom.Point) -> AdjointFamily:
    """All splits (S, T) with <h, indicator(S)> >= 0 (a total family)."""
    if not h.sums_to_zero():
        raise DomainError("adjoint signatures are defined for sum-zero points")
    members = [
        tb for tb in all_two_blocks(h.ground) if ratgeom.pair(h, tb.weight_vector()) >= 0
    ]
    return AdjointFamily(h.ground, frozenset(members))


@lru_cache(maxsize=None)
def _all_preposets_cached(labels: tuple):
    g = GroundSet(labels)
    n = len(g)
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for idx, (i, j) in enumerate(cells):
            if (bits >> idx) & 1:
                rows[i] |= 1 << j
        closed = _closure_of_rows(g, rows)
        if tuple(closed.rows) == tuple(rows):
            out.append(closed)
    return tuple(out)


def all_preposets(g: GroundSet):
    """Every preposet of the ground set (brute force; intended for n <= 4)."""
    if len(g) > 4:
        raise DomainError("all_preposets is exponential; use n <= 4")
    return list(_all_preposets_cached(g.labels))
