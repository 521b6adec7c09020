"""Ground sets, set compositions and set partitions.

A set composition of a finite ground set is an ordered sequence of disjoint
non-empty lumps covering it; a set partition forgets the order.  These are the
indexing gadgets for every basis and cone in the rest of the library, so the
representation is deliberately boring: sorted tuples of labels, hashable and
canonical, with all invariants checked at construction.

Ground sets and compositions are interned values.  Construction looks its
arguments up in a bounded memo, so each distinct value is validated once and
hashed once, and equal arguments give the same object; an invalid argument is
never memoized and raises again on every call.  The memos are ``lru_cache``
functions, cleared with the library's other memos.

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


def _immutable(self, *_):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _validated_labels(labels) -> tuple:
    """The sorted tuple of ``labels``, or a DomainError."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise DomainError(f"ground labels must be distinct: {labels!r}")
    kinds = {type(x) for x in labels}
    if not kinds <= {str, int} or len(kinds) > 1:
        raise DomainError("ground labels must be all strings or all integers")
    return tuple(sorted(labels))


class GroundSet:
    """A finite set of distinct labels with a fixed total order (natural sort).

    Interned: equal label tuples give the same object while it is memoized.
    """

    __slots__ = ("labels", "label_set", "_hash")

    def __new__(cls, labels):
        return _intern_ground(*labels)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return GroundSet, (self.labels,)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return self._hash

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def position(self, label) -> int:
        return self.labels.index(label)

    def subset(self, labels) -> "GroundSet":
        labels = frozenset(labels)
        extra = labels - self.label_set
        if extra:
            raise DomainError(f"labels {sorted(extra)!r} not in ground set")
        return GroundSet(tuple(sorted(labels)))

    def min_label(self):
        if not self.labels:
            raise DomainError("empty ground set has no minimum label")
        return self.labels[0]

    def __repr__(self):
        return f"GroundSet({list(self.labels)!r})"


@lru_cache(maxsize=4096, typed=True)
def _intern_ground(*labels) -> GroundSet:
    """The ground set of ``labels``, validated once per distinct argument;
    ``typed`` keeps ``True`` apart from ``1``, as the validation does, and
    unsorted labels resolve to the sorted entry."""
    ordered = _validated_labels(labels)
    if ordered != labels:
        return _intern_ground(*ordered)
    g = object.__new__(GroundSet)
    object.__setattr__(g, "labels", labels)
    object.__setattr__(g, "label_set", frozenset(labels))
    object.__setattr__(g, "_hash", hash((labels,)))
    return g


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


def _validated_lumps(ground: GroundSet, lumps) -> tuple:
    """The lumps of a composition of ``ground`` as sorted tuples of the
    ground's own labels, or a DomainError."""
    lumps = tuple(_sorted_lump(l) for l in lumps)
    seen = set()
    for lump in lumps:
        if not lump:
            raise DomainError("compositions may not contain empty lumps")
        for x in lump:
            if x in seen:
                raise DomainError(f"label {x!r} appears in two lumps")
            seen.add(x)
    if seen != ground.label_set:
        raise DomainError("lumps must cover the ground set exactly")
    kind = type(ground.labels[0]) if ground.labels else None
    if any(type(x) is not kind for lump in lumps for x in lump):
        # a label equal to a ground label of another type (True for 1):
        # store the ground's label, so the value does not depend on which
        # equal argument was interned first
        own = {x: x for x in ground.labels}
        lumps = tuple(tuple(own[x] for x in lump) for lump in lumps)
    return lumps


def _new_composition(ground: GroundSet, lumps) -> "SetComposition":
    lumps = _validated_lumps(ground, lumps)
    f = object.__new__(SetComposition)
    object.__setattr__(f, "ground", ground)
    object.__setattr__(f, "lumps", lumps)
    object.__setattr__(f, "_hash", hash((ground, lumps)))
    return f


@lru_cache(maxsize=16384)
def _intern_composition(ground: GroundSet, lumps: tuple) -> "SetComposition":
    """The composition of ``ground`` into ``lumps``, validated once per
    distinct argument pair; unsorted lumps resolve to the sorted entry."""
    f = _new_composition(ground, lumps)
    return f if f.lumps == lumps else _intern_composition(ground, f.lumps)


class SetComposition:
    """An ordered sequence of disjoint non-empty lumps covering the ground set.

    Interned: equal (ground, lumps) arguments give the same object while it
    is memoized.  Lumps given as anything but a hashable tuple (a list, say)
    are validated and built on every call, and not memoized.
    """

    __slots__ = ("ground", "lumps", "_hash")

    def __new__(cls, ground: GroundSet, lumps):
        if type(lumps) is tuple:
            try:
                return _intern_composition(ground, lumps)
            except TypeError:  # unhashable lumps
                pass
        return _new_composition(ground, lumps)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return SetComposition, (self.ground, self.lumps)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ground == other.ground and self.lumps == other.lumps

    def __hash__(self):
        return self._hash

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
    sub = frozenset(labels)
    if not sub <= f.ground.label_set:
        raise DomainError("restriction labels must lie in the ground set")
    kept = (tuple(filter(sub.__contains__, lump)) for lump in f.lumps)
    return SetComposition(f.ground.subset(sub), tuple(filter(None, kept)))


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
