"""Checks that do not use the library: plain Python over exact Fractions.

They rest on the documented conventions of the chamber format (canonical
hyperplane order: the proper sides that contain the minimum label, sorted
lexicographically; ``+`` means the side's indicator pairs positively with
the witness) and on published counts.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

# adjoint chambers for n = 1..6 (OEIS A034997, first term 1 for n = 1)
CHAMBER_COUNTS = {1: 1, 2: 2, 3: 6, 4: 32, 5: 370, 6: 11292}
# SHA-256 of the canonical sign strings, one per line; position-based, so
# the same for every ground set of that size
SIGN_DIGESTS = {
    4: "028f3345006518c0eea53c6a393db22d9da183e8dc57f9737b6a882ef4eeee29",
    5: "253effeee58af5d27138ccb514769ec419c11a319bd0de28fdcc02ebc2ce9e82",
}
# four-term Steinmann relations (faces on exactly two hyperplanes)
RELATION_COUNTS = {3: 0, 4: 6, 5: 300}


def sign_digest(signs) -> str:
    return hashlib.sha256("\n".join(signs).encode()).hexdigest()


def hyperplane_sides(n: int):
    """Position tuples of the canonical sides for a ground set of size n."""
    sides = [
        tuple(i for i in range(n) if (mask >> i) & 1)
        for mask in range(1, (1 << n) - 1)
        if mask & 1
    ]
    return sorted(sides)


def chamber_table_errors(n: int, table) -> list:
    """Problems with ``table``, a list of (sign string, witness Fractions).

    A witness that sums to zero and lies strictly on the recorded side of
    every hyperplane proves its sign string is a chamber; distinct proven
    chambers, as many as the published count, are then all of them.
    """
    errors = []
    signs = [s for s, _ in table]
    if len(signs) != CHAMBER_COUNTS[n]:
        errors.append(f"n={n}: {len(signs)} chambers, expected {CHAMBER_COUNTS[n]}")
    if signs != sorted(set(signs)):
        errors.append(f"n={n}: sign strings not sorted and distinct")
    if n in SIGN_DIGESTS and sign_digest(signs) != SIGN_DIGESTS[n]:
        errors.append(f"n={n}: canonical sign list differs")
    sides = hyperplane_sides(n)
    for s, w in table:
        if len(s) != len(sides) or len(w) != n or sum(w) != 0:
            errors.append(f"n={n}: malformed chamber {s}")
            continue
        for sign, side in zip(s, sides):
            v = sum(w[i] for i in side)
            if v == 0 or (v > 0) != (sign == "+"):
                errors.append(f"n={n}: witness of {s} not strictly inside")
                break
    return errors[:5]


def flip_squares(signs) -> set:
    """Four-chamber squares of the flip graph: C, C^i, C^j, C^ij all chambers.

    These are exactly the Steinmann relations: the open cone cut out by the
    other hyperplanes meets all four quadrants of (H_i, H_j), so by convexity
    it meets H_i and H_j in a codimension-2 face on no other hyperplane.
    """
    table = set(signs)
    flip = {"+": "-", "-": "+"}
    out = set()
    for s in table:
        m = len(s)
        for i, j in combinations(range(m), 2):
            si = s[:i] + flip[s[i]] + s[i + 1:]
            sj = s[:j] + flip[s[j]] + s[j + 1:]
            sij = si[:j] + flip[si[j]] + si[j + 1:]
            if si in table and sj in table and sij in table:
                out.add((i, j, frozenset((s, si, sj, sij))))
    return out


def ordered_bell(n: int) -> int:
    """Number of set compositions of an n-set."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(_binom(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _binom(m, k):
    out = 1
    for t in range(k):
        out = out * (m - t) // (t + 1)
    return out


def tits(f, g):
    """Tits product of two set compositions given as lists of label lists."""
    out = []
    for lump_f in f:
        for lump_g in g:
            block = sorted(set(lump_f) & set(lump_g))
            if block:
                out.append(block)
    return out
