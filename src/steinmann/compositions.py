"""Ground sets, set compositions and set partitions.

A set composition of a finite ground set is an ordered sequence of disjoint
non-empty lumps covering it; a set partition forgets the order.  These are the
indexing gadgets for every basis and cone in the rest of the library, so the
representation is deliberately boring: sorted tuples of labels, hashable and
canonical, with all invariants checked at construction.

Conventions:

* labels within a ground set are all strings or all integers, and the
  canonical order is their natural sort order;
* the empty ground set has exactly one composition (zero lumps) and one
  partition (zero blocks);
* ``G <= F`` for compositions means G is obtained from F by merging
  contiguous lumps, so ``(I)`` is the unique minimum and linear orders are
  the maximal elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import DomainError, GroundMismatchError


@dataclass(frozen=True)
class GroundSet:
    """A finite set of distinct labels with a fixed total order (natural sort)."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise DomainError(f"ground labels must be distinct: {labels!r}")
        kinds = {type(x) for x in labels}
        if not kinds <= {str, int} or len(kinds) > 1:
            raise DomainError("ground labels must be all strings or all integers")
        object.__setattr__(self, "labels", tuple(sorted(labels)))

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def position(self, label) -> int:
        return self.labels.index(label)

    @property
    def label_set(self) -> frozenset:
        return frozenset(self.labels)

    def subset(self, labels) -> "GroundSet":
        return _subset(self, frozenset(labels))

    def min_label(self):
        if not self.labels:
            raise DomainError("empty ground set has no minimum label")
        return self.labels[0]

    def __repr__(self):
        return f"GroundSet({list(self.labels)!r})"


@lru_cache(maxsize=4096)
def _subset(g: GroundSet, labels: frozenset) -> GroundSet:
    """``g.subset``, memoized per (ground, label set): the sub-grounds of a
    coproduct recur for every key, so each is validated once."""
    extra = labels - g.label_set
    if extra:
        raise DomainError(f"labels {sorted(extra)!r} not in ground set")
    return GroundSet(tuple(sorted(labels)))


def ground(labels) -> GroundSet:
    """Convenience constructor accepting any iterable of labels."""
    return GroundSet(tuple(labels))


def standard_ground(n: int) -> GroundSet:
    """The ground set with string labels "1".."n" (the CLI default)."""
    if n < 0:
        raise DomainError("ground size must be non-negative")
    if n > 9:
        raise DomainError("standard string grounds support n <= 9; pass explicit labels")
    return GroundSet(tuple(str(i) for i in range(1, n + 1)))


def _sorted_lump(labels) -> tuple:
    return tuple(sorted(labels))


@dataclass(frozen=True)
class SetComposition:
    """An ordered sequence of disjoint non-empty lumps covering the ground set."""

    ground: GroundSet
    lumps: tuple  # tuple of sorted tuples

    def __post_init__(self):
        lumps = tuple(_sorted_lump(l) for l in self.lumps)
        seen = set()
        for lump in lumps:
            if not lump:
                raise DomainError("compositions may not contain empty lumps")
            for x in lump:
                if x in seen:
                    raise DomainError(f"label {x!r} appears in two lumps")
                seen.add(x)
        if seen != set(self.ground.labels):
            raise DomainError("lumps must cover the ground set exactly")
        object.__setattr__(self, "lumps", lumps)

    def __len__(self):
        """Number of lumps."""
        return len(self.lumps)

    def __iter__(self):
        return iter(self.lumps)

    def relabel(self, mapping: dict) -> "SetComposition":
        """Transport along a bijection ``new label -> old label`` (the species action)."""
        new_of_old = {old: new for new, old in mapping.items()}
        ground = relabel_ground(self.ground, mapping)
        return SetComposition(ground, tuple(tuple(new_of_old[a] for a in l) for l in self.lumps))

    def __repr__(self):
        inner = ",".join("".join(str(x) for x in lump) for lump in self.lumps)
        return f"({inner})"


def composition(ground_or_labels, lumps) -> SetComposition:
    g = ground_or_labels if isinstance(ground_or_labels, GroundSet) else ground(ground_or_labels)
    return SetComposition(g, tuple(tuple(l) for l in lumps))


@dataclass(frozen=True)
class SetPartition:
    """An unordered collection of disjoint non-empty blocks covering the ground set."""

    ground: GroundSet
    blocks: tuple  # canonically sorted tuple of sorted tuples

    def __post_init__(self):
        blocks = tuple(sorted(_sorted_lump(b) for b in self.blocks))
        seen = set()
        for block in blocks:
            if not block:
                raise DomainError("partitions may not contain empty blocks")
            for x in block:
                if x in seen:
                    raise DomainError(f"label {x!r} appears in two blocks")
                seen.add(x)
        if seen != set(self.ground.labels):
            raise DomainError("blocks must cover the ground set exactly")
        object.__setattr__(self, "blocks", blocks)

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def relabel(self, mapping: dict) -> "SetPartition":
        """Transport along a bijection ``new label -> old label``."""
        new_of_old = {old: new for new, old in mapping.items()}
        ground = relabel_ground(self.ground, mapping)
        return SetPartition(ground, tuple(tuple(new_of_old[a] for a in b) for b in self.blocks))

    def __repr__(self):
        inner = "|".join("".join(str(x) for x in b) for b in self.blocks)
        return f"{{{inner}}}"


def partition(ground_or_labels, blocks) -> SetPartition:
    g = ground_or_labels if isinstance(ground_or_labels, GroundSet) else ground(ground_or_labels)
    return SetPartition(g, tuple(tuple(b) for b in blocks))


# ---------------------------------------------------------------------------
# enumeration


def _subsets_in_lex_order(labels: tuple):
    """Non-empty subsets of ``labels`` as sorted tuples, lexicographically."""
    out = []
    for r in range(1, len(labels) + 1):
        out.extend(itertools.combinations(labels, r))
    out.sort()
    return out


@lru_cache(maxsize=None)
def _enumerate_lump_sequences(labels: tuple):
    if not labels:
        return ((),)
    out = []
    for first in _subsets_in_lex_order(labels):
        rest = tuple(x for x in labels if x not in first)
        for tail in _enumerate_lump_sequences(rest):
            out.append((first,) + tail)
    return tuple(out)


def enumerate_compositions(g: GroundSet):
    """All set compositions of ``g``, lexicographically on the lump sequence."""
    return [SetComposition(g, lumps) for lumps in _enumerate_lump_sequences(g.labels)]


@lru_cache(maxsize=None)
def _enumerate_block_families(labels: tuple):
    if not labels:
        return ((),)
    first, rest = labels[0], labels[1:]
    out = []
    for r in range(0, len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            block = (first,) + extra
            remaining = tuple(x for x in rest if x not in extra)
            for tail in _enumerate_block_families(remaining):
                out.append((block,) + tail)
    return tuple(out)


def enumerate_partitions(g: GroundSet):
    """All set partitions of ``g``, deterministically ordered."""
    parts = [SetPartition(g, blocks) for blocks in _enumerate_block_families(g.labels)]
    parts.sort(key=lambda p: p.blocks)
    return parts


def ordered_bell(n: int) -> int:
    """Number of set compositions of an n-set."""
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            total += factorial(m) // (factorial(k) * factorial(m - k)) * counts[m - k]
        counts.append(total)
    return counts[n]


# ---------------------------------------------------------------------------
# operations


def concat(f: SetComposition, g: SetComposition) -> SetComposition:
    """Concatenate compositions over disjoint grounds."""
    if f.ground.label_set & g.ground.label_set:
        raise GroundMismatchError("concat requires disjoint ground sets")
    new_ground = GroundSet(f.ground.labels + g.ground.labels)
    return SetComposition(new_ground, f.lumps + g.lumps)


def restrict(f: SetComposition, labels) -> SetComposition:
    """Restrict a composition to a subset of its ground, dropping empty lumps."""
    sub = set(labels)
    if not sub <= f.ground.label_set:
        raise DomainError("restriction labels must lie in the ground set")
    lumps = []
    for lump in f.lumps:
        kept = tuple(x for x in lump if x in sub)
        if kept:
            lumps.append(kept)
    return SetComposition(f.ground.subset(sub), tuple(lumps))


def leq(g: SetComposition, f: SetComposition) -> bool:
    """True iff ``g`` is obtained from ``f`` by merging contiguous lumps."""
    if g.ground != f.ground:
        raise GroundMismatchError("composition comparison requires equal grounds")
    i = 0
    for lump in g.lumps:
        merged = set()
        while len(merged) < len(lump):
            if i >= len(f.lumps) or not set(f.lumps[i]) <= set(lump):
                return False
            merged.update(f.lumps[i])
            i += 1
        if merged != set(lump):
            return False
    return i == len(f.lumps)


def finer_compositions(g_comp: SetComposition):
    """All F with ``g_comp <= F``: refine each lump independently."""
    per_lump = [_enumerate_lump_sequences(lump) for lump in g_comp.lumps]
    out = []
    for choice in itertools.product(*per_lump):
        lumps = tuple(l for seq in choice for l in seq)
        out.append(SetComposition(g_comp.ground, lumps))
    return out


def coarser_compositions(f: SetComposition):
    """All G with ``G <= f``: merge contiguous lumps (choose a subset of gaps)."""
    k = len(f.lumps)
    if k == 0:
        return [f]
    out = []
    for cut_pattern in itertools.product((False, True), repeat=k - 1):
        lumps = []
        current = list(f.lumps[0])
        for j, cut in enumerate(cut_pattern):
            if cut:
                lumps.append(tuple(current))
                current = list(f.lumps[j + 1])
            else:
                current.extend(f.lumps[j + 1])
        lumps.append(tuple(current))
        out.append(SetComposition(f.ground, tuple(lumps)))
    return out


def quotient_factors(f: SetComposition, g_comp: SetComposition):
    """For ``g_comp <= f`` return ``(l(F/G), (F/G)!)``.

    ``l(F/G)`` multiplies the number of F-lumps falling in each G-lump, and
    ``(F/G)!`` multiplies the factorials of those counts.
    """
    if not leq(g_comp, f):
        raise DomainError("quotient_factors requires G <= F")
    l_total, fact_total = 1, 1
    for lump in g_comp.lumps:
        k = len(restrict(f, lump))
        l_total *= k
        fact_total *= factorial(k)
    return l_total, fact_total


def opposite(f: SetComposition) -> SetComposition:
    """Reverse the lump order."""
    return SetComposition(f.ground, tuple(reversed(f.lumps)))


def relabel_ground(g: GroundSet, mapping: dict) -> GroundSet:
    """New ground set from a bijection ``new label -> old label``."""
    if set(mapping.values()) != g.label_set or len(mapping) != len(g):
        raise DomainError("relabeling map must be a bijection onto the ground set")
    return GroundSet(tuple(mapping.keys()))


def relabel(x, mapping: dict):
    """Transport any labeled value along a bijection ``new label -> old label``.

    Every labeled type carries the species action as its ``relabel`` method.
    """
    if not hasattr(x, "relabel"):
        raise DomainError(f"cannot relabel object of type {type(x).__name__}")
    return x.relabel(dict(mapping))
