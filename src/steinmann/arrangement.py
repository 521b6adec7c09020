"""The adjoint braid (resonance) arrangement: hyperplanes and chambers.

The arrangement lives in the sum-zero subspace of R^I and has one hyperplane
per unordered split {S, T} of the ground set.  Chambers are identified by
their strict sign vectors over the canonical hyperplane list (orientation:
positive side of {S, T} is where the indicator of the min-containing side
pairs positively; hyperplanes are ordered lexicographically by that side).

Enumeration walks the chamber graph: starting from a deterministic generic
seed it repeatedly flips one sign and asks whether the flipped vector is
realizable.  Realizability of a flip is equivalent to sharing a facet, so
the walk reaches every chamber.  Three layers keep this fast while staying
exact:

* a necessary combinatorial filter: a realizable sign vector, read as a set
  of ordered splits, is closed under the partial product of splits; flipping
  one split lets us re-check closure incrementally in O(2^n) integer ops;
* exact ray shooting from the parent witness, which usually produces an
  interior witness of the neighbor without any linear programming;
* an exact margin LP (single phase, Bland's rule) as the decision oracle for
  everything the first two layers cannot settle.

Above these sits an orbit layer.  The arrangement is invariant under the
symmetric group on positions (relabelling permutes the hyperplanes, with a
sign flip whenever the image side loses position 0) and under x -> -x.  When
the walk meets a new sign vector it closes its whole S_n x {+-1} orbit with
precomputed bit tables for the adjacent transpositions and the all-sign
complement, so the three layers only ever run for neighbours of orbit
representatives that lie outside every known orbit.  The flip graph is
equivariant, so the orbits of the representatives cover every chamber.

Witnesses are primitive integer vectors (the chambers are open cones, so a
rational witness is scaled by its common denominator and divided by the gcd
of its coordinates).  A representative's witness is permuted and negated
into the witnesses of its orbit, and every table, computed or read from
disk, is checked exactly in integers before use: each witness sums to zero
and lies strictly on its recorded side of every hyperplane.

Computed chamber tables are cached in-process and, optionally, on disk as
JSON lines (written atomically).  Both are keyed by n: ground labels are
sorted, so signs and witness coordinates are positional, and a table is
relabelled onto each ground set of its size.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import ratgeom
from .compositions import GroundSet
from .errors import ResourceBoundError
from .preposets import AdjointFamily, two_block
from .rat import ZERO, rat, rat_str

CACHE_FORMAT = 2
CACHE_ENV = "STEINMANN_CACHE_DIR"
DEFAULT_MAX_N = 6
MAX_N = DEFAULT_MAX_N  # process-wide safety bound; the CLI overrides via --max-n


def set_max_n(bound: int):
    global MAX_N
    MAX_N = int(bound)


@lru_cache(maxsize=None)
def hyperplane_splits(g: GroundSet) -> tuple:
    """Canonical hyperplane list: min-containing sides, lexicographic."""
    n = len(g)
    if n <= 1:
        return ()
    labels = g.labels
    sides = []
    for mask in range(1, (1 << n) - 1):
        if mask & 1:  # side containing the minimum label (position 0)
            sides.append(tuple(labels[i] for i in range(n) if (mask >> i) & 1))
    sides.sort()
    return tuple(two_block(g, side) for side in sides)


@lru_cache(maxsize=None)
def _side_masks(g: GroundSet) -> tuple:
    """Position bitmasks of the canonical sides, in hyperplane order."""
    return tuple(sum(1 << g.position(label) for label in tb.S) for tb in hyperplane_splits(g))


@dataclass(frozen=True)
class AdjointChamber:
    """A chamber: strict signs over the hyperplane list plus an interior witness."""

    ground: GroundSet
    signs: str
    witness: ratgeom.Point

    def signature(self) -> AdjointFamily:
        """The total nonsymmetric family of splits on whose positive side we sit."""
        members = []
        for s, tb in zip(self.signs, hyperplane_splits(self.ground)):
            members.append(tb if s == "+" else tb.reversed())
        return AdjointFamily(self.ground, frozenset(members))

    def __repr__(self):
        return f"Chamber[{self.signs}]"


@dataclass(frozen=True)
class AdjointFace:
    """A relatively open face: signs with zeros, witness strict off the zero set."""

    ground: GroundSet
    signs: str  # over the hyperplane list, entries +, -, 0
    witness: ratgeom.Point


# ---------------------------------------------------------------------------
# generic sign-vector enumeration core


def _dot(vec, point):
    return sum((a * b for a, b in zip(vec, point)), ZERO)


def _generic_seed(functionals, dim, base_start=3, recenter=False):
    """Deterministic all-strict seed: powers of the smallest working base.

    With ``recenter`` the seed is powers minus their mean (so that, lifted by
    appending the negated sum, it matches the recentered power seed in the
    ambient sum-zero space).
    """
    base = base_start
    while True:
        if recenter:
            n = dim + 1
            total = sum(base**i for i in range(n))
            seed = tuple(rat(base**i) - rat(total, n) for i in range(dim))
        else:
            seed = tuple(rat(base**i) for i in range(dim))
        if all(_dot(f, seed) != 0 for f in functionals):
            return seed
        base += 1


def _sign_bits(functionals, point):
    bits = 0
    for k, f in enumerate(functionals):
        v = _dot(f, point)
        if v == 0:
            raise AssertionError("seed/witness must be strict")
        if v > 0:
            bits |= 1 << k
    return bits


def _ray_shoot(functionals, w, j, cur_bits):
    """Try to walk from witness ``w`` through the facet on hyperplane j.

    Returns a strict witness beyond hyperplane j if the exit facet of the ray
    is provably j (unique minimal crossing), else None.
    """
    aj = functionals[j]
    sign_j = 1 if (cur_bits >> j) & 1 else -1
    v = tuple(-sign_j * c for c in aj)
    dots = [_dot(f, w) for f in functionals]
    dvs = [_dot(f, v) for f in functionals]
    t_min, t_second, k_min = None, None, -1
    for k in range(len(functionals)):
        if dvs[k] == 0:
            continue
        t = -dots[k] / dvs[k]
        if t <= 0:
            continue
        if t_min is None or t < t_min:
            t_second = t_min
            t_min, k_min = t, k
        elif t == t_min:
            k_min = -2  # tie: exit facet ambiguous
        elif t_second is None or t < t_second:
            t_second = t
    if k_min != j:
        return None
    t_star = (t_min + t_second) / 2 if t_second is not None else t_min + 1
    w2 = tuple(wi + t_star * vi for wi, vi in zip(w, v))
    target = cur_bits ^ (1 << j)
    for k in range(len(functionals)):
        val = dots[k] + t_star * dvs[k]
        if val == 0 or (val > 0) != bool((target >> k) & 1):
            return None
    return w2


def enumerate_sign_chambers(functionals, dim, seed=None, neighbor_ok=None):
    """All realizable strict sign vectors of a list of integer functionals.

    Returns ``{bits: witness}`` where bit k set means functional k positive.
    ``neighbor_ok(bits, flipped_index)`` may veto candidates.  A veto by a
    cheap necessary condition, which never rejects a realizable vector, keeps
    the result complete; a caller that vetoes vectors it accounts for another
    way (the orbit walk of the adjoint arrangement) gets only the rest.
    """
    if not functionals:
        return {0: tuple(rat(0) for _ in range(dim))}
    if seed is None:
        seed = _generic_seed(functionals, dim)
    start = _sign_bits(functionals, seed)
    found = {start: seed}
    dead = set()
    queue = deque([start])
    m = len(functionals)
    while queue:
        bits = queue.popleft()
        w = found[bits]
        for j in range(m):
            cand = bits ^ (1 << j)
            if cand in found or cand in dead:
                continue
            if neighbor_ok is not None and not neighbor_ok(bits, j):
                dead.add(cand)
                continue
            w2 = _ray_shoot(functionals, w, j, bits)
            if w2 is None:
                rows = [
                    tuple(c if (cand >> k) & 1 else -c for c in functionals[k])
                    for k in range(m)
                ]
                w2 = ratgeom.strict_feasible(rows, dim)
            if w2 is None:
                dead.add(cand)
            else:
                found[cand] = w2
                queue.append(cand)
    return found


# ---------------------------------------------------------------------------
# the adjoint arrangement itself


def _reduced_functionals(g: GroundSet):
    """Integer functionals of the splits in the sum-zero chart y = x[:n-1]."""
    n = len(g)
    out = []
    for mask in _side_masks(g):
        has_last = (mask >> (n - 1)) & 1
        out.append(tuple((1 if (mask >> j) & 1 else 0) - has_last for j in range(n - 1)))
    return out


def _pre_adjoint_neighbor_filter(g: GroundSet):
    """Incremental necessary test: flipping one split must keep the family
    closed under the partial product of splits (adjoint families are)."""
    n = len(g)
    full = (1 << n) - 1
    side_masks = _side_masks(g)
    index_of = {m: k for k, m in enumerate(side_masks)}

    def member(bits, mask):
        if mask & 1:
            return bool((bits >> index_of[mask]) & 1)
        return not (bits >> index_of[full ^ mask]) & 1

    def product_mask(a, b):
        if (a & b) == 0 and (a | b) != full:
            return a | b
        if (a | b) == full and (a & b) != 0:
            return a & b
        return None

    def proper_submasks(mask):
        sub = (mask - 1) & mask
        while sub:
            yield sub
            sub = (sub - 1) & mask

    def neighbor_ok(bits, j):
        cand = bits ^ (1 << j)
        s_mask = side_masks[j]
        new_mask = s_mask if (cand >> j) & 1 else full ^ s_mask
        removed = full ^ new_mask
        # (a) no surviving pair may multiply to the removed split
        for a in proper_submasks(removed):
            if member(cand, a) and member(cand, removed ^ a):
                return False
        comp = full ^ removed
        for c in proper_submasks(comp):
            if member(cand, removed | c) and member(cand, removed | (comp ^ c)):
                return False
        # (b) products with the new split must stay in the family
        for k, sm in enumerate(side_masks):
            other = sm if (cand >> k) & 1 else full ^ sm
            r = product_mask(new_mask, other)
            if r is not None and not member(cand, r):
                return False
        return True

    return neighbor_ok


# ---------------------------------------------------------------------------
# the S_n x {+-1} orbit layer


def _transposition_tables(side_masks, n):
    """For each adjacent transposition (a, a+1) of positions, the list taking
    hyperplane k to ``(k', flip)``: the swapped side of k is the side of k',
    or its complement (``flip``) when the swap moves position 0 out of it."""
    full = (1 << n) - 1
    index_of = {mask: k for k, mask in enumerate(side_masks)}
    tables = []
    for a in range(n - 1):
        swap = (1 << a) | (1 << (a + 1))
        row = []
        for mask in side_masks:
            image = mask ^ swap if ((mask >> a) ^ (mask >> (a + 1))) & 1 else mask
            row.append((index_of[image], False) if image & 1 else (index_of[full ^ image], True))
        tables.append(row)
    return tables


def _bit_action(row):
    """Compile a transposition table into a map on sign bits.

    Bit k of the image is bit k' of the argument, complemented when ``flip``;
    the bits are moved one byte at a time through 256-entry lookup tables.
    """
    dest = {src: k for k, (src, _) in enumerate(row)}
    flips = sum(1 << k for k, (_, flip) in enumerate(row) if flip)
    chunks = []
    for lo in range(0, len(row), 8):
        table = [0] * 256
        for byte in range(1, 256):
            low = (byte & -byte).bit_length() - 1
            table[byte] = table[byte & (byte - 1)] | (1 << dest[lo + low] if lo + low in dest else 0)
        chunks.append((lo, table))

    def act(bits):
        out = flips
        for lo, table in chunks:
            out ^= table[(bits >> lo) & 255]
        return out

    return act


def _orbit(bits, actions, m, n):
    """The S_n x {+-1} orbit of a sign vector.

    Maps each member to the signed position map ``e`` that carries a witness
    x of ``bits`` to a witness of the member: coordinate i of the image is
    x[e_i - 1] for e_i > 0 and -x[-e_i - 1] for e_i < 0.
    """
    full = (1 << m) - 1
    orbit = {bits: tuple(range(1, n + 1))}
    stack = [bits]
    while stack:
        b = stack.pop()
        e = orbit[b]
        images = [(act(b), e[:a] + (e[a + 1], e[a]) + e[a + 2:]) for a, act in enumerate(actions)]
        images.append((b ^ full, tuple(-v for v in e)))
        for b2, e2 in images:
            if b2 not in orbit:
                orbit[b2] = e2
                stack.append(b2)
    return orbit


def _primitive_lift(y):
    """The primitive integer vector on the ray of the lifted sum-zero point."""
    x = [Fraction(v) for v in tuple(y) + (-sum(y, ZERO),)]
    den = math.lcm(*(v.denominator for v in x))
    ints = [int(v * den) for v in x]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints) if g else tuple(ints)


def _side_sums(x):
    """Sums of ``x`` over every set of positions, indexed by position mask."""
    sums = [0]
    for v in x:
        sums += [s + v for s in sums]
    return sums


def _strict_table(side_masks, table) -> bool:
    """Exact check of ``(bits, integer witness)`` pairs: every witness sums to
    zero and lies strictly on its recorded side of every hyperplane."""
    for bits, x in table:
        sums = _side_sums(x)
        if sums[-1] != 0:
            return False
        for k, mask in enumerate(side_masks):
            v = sums[mask]
            if v == 0 or (v > 0) != bool((bits >> k) & 1):
                return False
    return True


def _sign_string(bits, m):
    return "".join("+" if (bits >> k) & 1 else "-" for k in range(m))


_TABLE_MEMO = {}  # n -> the chamber table of the first ground of that size met
_CHAMBER_MEMO = {}  # labels -> that table relabelled onto the ground
_INDEX_MEMO = {}  # labels -> chamber_index of _CHAMBER_MEMO[labels]


def _enumerate_uncached(g: GroundSet):
    """Orbit walk: the sign-chamber walk over orbit representatives only."""
    n = len(g)
    if n == 0:
        return [AdjointChamber(g, "", ratgeom.Point(g, ()))]
    functionals = _reduced_functionals(g)
    side_masks = _side_masks(g)
    m = len(side_masks)
    dim = n - 1
    actions = [_bit_action(row) for row in _transposition_tables(side_masks, n)]
    orbits = {}  # first member met -> its orbit
    known = set()  # members of every orbit met so far, realizable or not

    def open_orbit(bits):
        orbits[bits] = _orbit(bits, actions, m, n)
        known.update(orbits[bits])

    closure_ok = _pre_adjoint_neighbor_filter(g)

    def neighbor_ok(bits, j):
        # by equivariance a whole orbit is realizable exactly when one member
        # is, so the ladder decides each orbit once, at its first member
        if (bits ^ (1 << j)) in known or not closure_ok(bits, j):
            return False
        open_orbit(bits ^ (1 << j))
        return True

    seed = _generic_seed(functionals, dim, recenter=True) if dim else ()
    open_orbit(_sign_bits(functionals, seed))
    representatives = enumerate_sign_chambers(functionals, dim, seed=seed, neighbor_ok=neighbor_ok)
    table = []
    for rep, y in representatives.items():
        x = _primitive_lift(y)
        for bits, e in orbits[rep].items():
            table.append((bits, tuple(x[v - 1] if v > 0 else -x[-v - 1] for v in e)))
    if not _strict_table(side_masks, table):
        raise AssertionError("internal error: orbit witness failed the strictness check")
    chambers = [AdjointChamber(g, _sign_string(bits, m), ratgeom.Point(g, x)) for bits, x in table]
    chambers.sort(key=lambda c: c.signs)
    return chambers


def default_cache_dir():
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "steinmann"


def _cache_path(cache_dir, g: GroundSet) -> Path:
    return Path(cache_dir) / f"chambers_n{len(g)}.jsonl"


def _write_cache(path: Path, g: GroundSet, chambers):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "format": CACHE_FORMAT,
        "n": len(g),
        "count": len(chambers),
        "side_masks": _side_masks(g),
    }
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for ch in chambers:
                rec = {
                    "signs": ch.signs,
                    "witness": [rat_str(v) for v in ch.witness.coords],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(tmp, str(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_cache(path: Path, g: GroundSet):
    """The cached table relabelled onto ``g``, or None unless it is exactly valid.

    The header is checked by position (n and the side masks), the signs must
    be distinct strict sign strings in increasing order, as many as the
    header's ``count``, and every witness an integer vector that passes the
    exact strictness check.
    """
    if not path.exists():
        return None
    n = len(g)
    side_masks = _side_masks(g)
    m = len(side_masks)
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        if (header["format"], header["n"], tuple(header["side_masks"])) != (CACHE_FORMAT, n, side_masks):
            return None
        records = [json.loads(line) for line in lines[1:]]
        signs = [rec["signs"] for rec in records]
        if len(signs) != header["count"] or any(a >= b for a, b in zip(signs, signs[1:])):
            return None
        table = []
        for s, rec in zip(signs, records):
            bits = sum(1 << k for k, c in enumerate(s) if c == "+")
            x = rec["witness"]
            if _sign_string(bits, m) != s or len(x) != n or not all(type(v) is str for v in x):
                return None
            table.append((bits, tuple(int(v) for v in x)))
        if not _strict_table(side_masks, table):
            return None
        return [AdjointChamber(g, s, ratgeom.Point(g, x)) for s, (_, x) in zip(signs, table)]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError):
        return None


def enumerate_chambers(g: GroundSet, max_n: int = None, cache_dir=None, use_disk_cache: bool = True):
    """All chambers of the adjoint arrangement over ``g``, canonically sorted.

    The table depends only on n (signs and witness coordinates are
    positional), so it is computed or read once per size and relabelled onto
    each ground set, and the result is memoized per ground set.  With
    ``use_disk_cache`` the table is also persisted as JSON lines under the
    cache directory (environment variable STEINMANN_CACHE_DIR overrides the
    default location), one file per ground-set size.
    """
    n = len(g)
    if max_n is None:
        max_n = MAX_N
    if n > max_n:
        raise ResourceBoundError(
            f"chamber enumeration for n={n} exceeds the configured bound {max_n}"
        )
    if g.labels in _CHAMBER_MEMO:
        return _CHAMBER_MEMO[g.labels]
    table = _TABLE_MEMO.get(n)
    if table is None:
        path = None
        if use_disk_cache and n >= 4:
            path = _cache_path(cache_dir or default_cache_dir(), g)
            table = _read_cache(path, g)
        if table is None:
            table = _enumerate_uncached(g)
            if path is not None:
                _write_cache(path, g, table)
        _TABLE_MEMO[n] = table
    if table[0].ground != g:
        table = [AdjointChamber(g, ch.signs, ratgeom.Point(g, ch.witness.coords)) for ch in table]
    _CHAMBER_MEMO[g.labels] = table
    return table


def chamber_count(g: GroundSet, **kw) -> int:
    return len(enumerate_chambers(g, **kw))


def chamber_index(g: GroundSet, **kw) -> dict:
    """Mapping sign string -> chamber.

    Memoized beside the chamber table it indexes; every caller shares the
    returned dict and only reads it.
    """
    chambers = enumerate_chambers(g, **kw)  # enforces the size bound on every call
    if g.labels not in _INDEX_MEMO:
        _INDEX_MEMO[g.labels] = {ch.signs: ch for ch in chambers}
    return _INDEX_MEMO[g.labels]


def clear_memo():
    """Drop in-process chamber tables (used by determinism tests)."""
    _TABLE_MEMO.clear()
    _CHAMBER_MEMO.clear()
    _INDEX_MEMO.clear()
