"""Exact rational linear algebra and feasibility kernel.

All geometric decisions in the library (chamber realizability, cone
membership, interior witnesses, rank computations) reduce to small exact
linear programs or Gaussian eliminations over the rationals.  Everything here
is deterministic: fixed variable order, Bland's rule for pivoting, first
nonzero pivot in eliminations.  No floating point is used anywhere.

The linear programs run on one fraction-free simplex: the tableau holds
integers over a common positive denominator ``D``, and each pivot divides
exactly by the previous ``D`` (Edmonds' integer-preserving elimination), so
rationals appear only in the returned points and coefficients.  Strict rows
``a . x > 0`` are handled by maximizing a margin variable ``t`` with
``a . x >= t`` and ``0 <= t <= 1``; the system is strictly feasible iff the
optimum has ``t > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compositions import GroundSet, relabel_ground
from .errors import DomainError, GroundMismatchError
from .rat import ONE, ZERO, as_rat, rat


@dataclass(frozen=True)
class Point:
    """A rational point, coords aligned with the ground set's label order.

    Coweight points (adjoint side) have coordinates summing to zero; weight
    points (braid side) are arbitrary lifts compared modulo the all-ones
    vector.  The pairing below only ever sees differences of weight values,
    so lifts never leak.
    """

    ground: GroundSet
    coords: tuple

    def __post_init__(self):
        coords = tuple(as_rat(c) for c in self.coords)
        if len(coords) != len(self.ground):
            raise DomainError("coordinate count must match ground size")
        object.__setattr__(self, "coords", coords)

    def coord(self, label):
        return self.coords[self.ground.position(label)]

    def relabel(self, mapping: dict) -> "Point":
        """Transport along a bijection ``new label -> old label``."""
        new_g = relabel_ground(self.ground, mapping)
        return point(new_g, {new: self.coord(old) for new, old in mapping.items()})

    def sums_to_zero(self) -> bool:
        return sum(self.coords, ZERO) == 0

    def __add__(self, other: "Point") -> "Point":
        if self.ground != other.ground:
            raise GroundMismatchError("point addition requires equal grounds")
        return Point(self.ground, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Point") -> "Point":
        if self.ground != other.ground:
            raise GroundMismatchError("point subtraction requires equal grounds")
        return Point(self.ground, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "Point":
        c = as_rat(c)
        return Point(self.ground, tuple(c * a for a in self.coords))


def point(ground: GroundSet, values) -> Point:
    """Build a point from a mapping label->value or a coordinate sequence."""
    if isinstance(values, dict):
        return Point(ground, tuple(values[l] for l in ground.labels))
    return Point(ground, tuple(values))


def weight_point(ground: GroundSet, subset) -> Point:
    """The 0/1 indicator lift of a subset of the ground set."""
    s = set(subset)
    return Point(ground, tuple(ONE if l in s else ZERO for l in ground.labels))


def coroot_point(ground: GroundSet, i1, i2) -> Point:
    """The vector with +1 at ``i1``, -1 at ``i2``, 0 elsewhere."""
    coords = [ZERO] * len(ground)
    coords[ground.position(i1)] = ONE
    coords[ground.position(i2)] = -ONE
    return Point(ground, tuple(coords))


def pair(h: Point, lam: Point):
    """Pair a sum-zero point against a weight point: sum_i h_i * lam(i)."""
    if h.ground != lam.ground:
        raise GroundMismatchError("pairing requires equal grounds")
    if not h.sums_to_zero():
        raise DomainError("left argument of the pairing must sum to zero")
    return sum((a * b for a, b in zip(h.coords, lam.coords)), ZERO)


# ---------------------------------------------------------------------------
# fraction-free simplex (Bland's rule, integers over a common denominator)


def _integral(row):
    """``row`` times the lcm of its denominators: integers with the same signs."""
    row = [as_rat(v) for v in row]
    scale = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _simplex(tableau, basis, ncols, D, enter_limit=None):
    """Run primal simplex to optimality on a max-problem tableau.

    ``tableau`` holds ``D`` times the rational tableau, as integers: one list
    per constraint row ending in the rhs, plus an objective row of reduced
    costs (maximization: stop when all <= 0) whose last entry is the negated
    objective value.  ``basis`` maps constraint rows to their basic columns.
    Only the first ``enter_limit`` columns (default all) may enter the basis.
    Mutates in place; returns the final denominator, or None iff unbounded.
    """
    m = len(tableau) - 1
    obj = tableau[m]
    limit = ncols if enter_limit is None else enter_limit
    while True:
        enter = next((j for j in range(limit) if obj[j] > 0), -1)  # Bland: first improving
        if enter < 0:
            return D
        leave = -1
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / a < rhs_leave / a_leave, cross-multiplied
                lhs, rhs = tableau[i][ncols] * tableau[leave][enter], tableau[leave][ncols] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return None
        D = _pivot(tableau, basis, leave, enter, D)


def _pivot(tableau, basis, leave, enter, D):
    """Make column ``enter`` basic in row ``leave``; returns the new denominator.

    With pivot entry ``p`` every other row becomes ``(p * row - row[enter] *
    pivot_row) / D``, an exact division, and ``p`` is the new denominator.  A
    negative pivot (only ever met driving an artificial out) first negates the
    tableau, so the denominator stays positive and sign tests keep their sense.
    """
    prow = tableau[leave]
    p = prow[enter]
    if p < 0:
        for row in tableau:
            row[:] = [-v for v in row]
        p, D = -p, -D
    for i, row in enumerate(tableau):
        if i == leave:
            continue
        f = row[enter]
        if f:
            row[:] = [(p * v - f * w) // D for v, w in zip(row, prow)]
        elif p != D:
            row[:] = [p * v // D for v in row]
    basis[leave] = enter
    return p


def _solve_lp(A, b, c):
    """max c.z subject to A z = b, z >= 0, with integer A, b and c.

    Returns (status, value, z) with status "optimal", "unbounded" or
    "infeasible" and a rational value and z.  Two-phase; deterministic.
    """
    m, n = len(A), len(c)
    ncols = n + m
    # phase 1: artificial variable per row
    tableau = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1
        tableau.append([sign * v for v in A[i]] + [0] * i + [1] + [0] * (m - 1 - i) + [sign * b[i]])
    # minimize sum of artificials == max of -(sum)
    obj = [sum(row[j] for row in tableau) for j in range(n)] + [0] * m
    obj.append(sum(row[ncols] for row in tableau))
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    D = _simplex(tableau, basis, ncols, 1)
    if tableau[m][ncols] != 0:
        return "infeasible", None, None
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j] != 0), None)
            if enter is not None:  # else the row is redundant
                D = _pivot(tableau, basis, i, enter, D)
    # phase 2: real objective over the current D, artificial columns frozen
    obj2 = [cj * D for cj in c] + [0] * (m + 1)
    for i in range(m):
        cb = c[basis[i]] if basis[i] < n else 0
        if cb:
            for j, v in enumerate(tableau[i]):
                obj2[j] -= cb * v
    tableau[m] = obj2
    D = _simplex(tableau, basis, ncols, D, enter_limit=n)
    if D is None:
        return "unbounded", None, None
    z = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = rat(tableau[i][ncols], D)
    return "optimal", rat(-tableau[m][ncols], D), z


def strict_feasible(rows, dim):
    """Witness for ``a . x > 0`` for every row ``a``, or None.

    Specialized margin LP for homogeneous all-strict systems: rows are
    rewritten ``-a.x + t + s = 0`` so the slacks form a feasible starting
    basis (x = 0, t = 0) and no phase-1 artificials are needed.  A rational
    row is scaled to integers first.  This is the chamber-enumeration hot path.
    """
    m = len(rows)
    n = 2 * dim + 1  # x+, x-, t
    ncols = n + m + 1
    t_col = 2 * dim
    tableau = []
    for i, a in enumerate(rows):
        row = [0] * (ncols + 1)
        for j, v in enumerate(_integral(a)):
            row[j] = -v
            row[dim + j] = v
        row[t_col] = 1
        row[n + i] = 1
        tableau.append(row)
    cap = [0] * (ncols + 1)
    cap[t_col] = cap[ncols - 1] = cap[ncols] = 1  # t + s = 1
    tableau.append(cap)
    obj = [0] * (ncols + 1)
    obj[t_col] = 1
    tableau.append(obj)
    basis = [n + i for i in range(m + 1)]
    D = _simplex(tableau, basis, ncols, 1)
    if D is None:
        raise AssertionError("margin LP cannot be unbounded")
    if tableau[m + 1][ncols] >= 0:  # the optimal margin is -obj[rhs] / D
        return None
    x = [0] * dim
    for i, bcol in enumerate(basis):
        if bcol < dim:
            x[bcol] = tableau[i][ncols]
        elif bcol < 2 * dim:
            x[bcol - dim] -= tableau[i][ncols]
    x = tuple(rat(v, D) for v in x)
    for a in rows:
        if sum((as_rat(v) * xi for v, xi in zip(a, x)), ZERO) <= 0:
            raise AssertionError("internal error: strict witness failed substitution")
    return x


def cone_member(target, generators, open_cone=False, lineality=()):
    """Coefficients expressing ``target`` over ``generators``, or None.

    Closed mode finds c >= 0 with ``sum c_i g_i (+ lineality) = target``;
    open mode requires every ``c_i > 0`` (the relative interior of the cone
    when the generators span it).  ``lineality`` vectors may appear with any
    sign.  Vectors are plain coordinate sequences of equal length.
    """
    gens = [tuple(as_rat(v) for v in g) for g in generators]
    lin = [tuple(as_rat(v) for v in l) for l in lineality]
    tgt = tuple(as_rat(v) for v in target)
    d = len(tgt)
    if any(len(g) != d for g in gens) or any(len(l) != d for l in lin):
        raise DomainError("cone_member requires consistent dimensions")
    k, r = len(gens), len(lin)
    if k == 0 and open_cone:
        return None
    # variables: c (k), r+ (r), r- (r); each row scaled to integers with its rhs
    n = k + 2 * r
    A = [
        _integral([g[i] for g in gens] + [l[i] for l in lin] + [-l[i] for l in lin] + [tgt[i]])
        for i in range(d)
    ]
    b = [row.pop() for row in A]
    c = [0] * n
    if open_cone:
        # then t (column n) and slacks: c_i - t - s_i = 0, t + s_cap = 1; max t
        width = n + k + 2
        A = [row + [0] * (k + 2) for row in A] + [[0] * width for _ in range(k + 1)]
        for i in range(k):
            A[d + i][i], A[d + i][n], A[d + i][n + 1 + i] = 1, -1, -1
        A[d + k][n] = A[d + k][width - 1] = 1
        b += [0] * k + [1]
        c = [0] * width
        c[n] = 1
    status, value, z = _solve_lp(A, b, c)
    if status != "optimal" or (open_cone and value <= 0):
        return None
    coeffs = z[:k]
    # substitution check, always on
    lin_part = [z[k + j] - z[k + r + j] for j in range(r)]
    for i in range(d):
        v = sum((coeffs[j] * gens[j][i] for j in range(k)), ZERO)
        v += sum((lin_part[j] * lin[j][i] for j in range(r)), ZERO)
        if v != tgt[i]:
            raise AssertionError("internal error: cone_member certificate failed")
    if open_cone and any(cv <= 0 for cv in coeffs):
        raise AssertionError("internal error: open cone certificate not strict")
    return list(coeffs)


# ---------------------------------------------------------------------------
# exact Gaussian elimination


def _entry(v):
    """An exact matrix entry: an ``int`` when integral (its arithmetic is far
    cheaper than a rational's), else the backend rational."""
    if type(v) is int:
        return v
    v = as_rat(v)
    return int(v) if v.denominator == 1 else v


def rref(rows, width=None):
    """Reduced row echelon form; returns (pivot column list, row list).

    Each pivot step touches only the columns where the pivot row is nonzero;
    every entry of that row left of the pivot column is already zero.
    Integral entries are eliminated as ``int``; the rows come back as
    backend rationals.
    """
    mat = [[_entry(v) for v in row] for row in rows]
    if width is None:
        width = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for col in range(width):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        prow = mat[r]
        support = [j for j in range(col, len(prow)) if prow[j] != 0]
        piv = prow[col]
        if piv == -1:
            for j in support:
                prow[j] = -prow[j]
        elif piv != 1:
            inv = ONE / piv
            for j in support:
                prow[j] *= inv
        for i, row in enumerate(mat):
            f = row[col]
            if f != 0 and i != r:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots, [[as_rat(v) if v else ZERO for v in row] for row in mat]


def rank(rows) -> int:
    rows = [row for row in rows if any(as_rat(v) != 0 for v in row)]
    if not rows:
        return 0
    pivots, _ = rref(rows)
    return len(pivots)


def solve(A_rows, b):
    """A particular solution of ``A x = b`` (free variables zero), or None."""
    if not A_rows:
        return []
    width = len(A_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(A_rows, b)]
    pivots, mat = rref(aug, width=width)
    # consistency: the rows below the pivots are zero left of the rhs
    if any(row[width] != 0 for row in mat[len(pivots):]):
        return None
    x = [ZERO] * width
    for r_i, col in enumerate(pivots):
        x[col] = mat[r_i][width]
    return x


def kernel_basis(A_rows, dim):
    """A deterministic rational basis of ``{x : A x = 0}``."""
    if not A_rows:
        return [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
    pivots, mat = rref(A_rows, width=dim)
    pivot_set = set(pivots)
    free = [j for j in range(dim) if j not in pivot_set]
    basis = []
    for fj in free:
        vec = [ZERO] * dim
        vec[fj] = ONE
        for r_i, col in enumerate(pivots):
            vec[col] = -mat[r_i][fj]
        basis.append(tuple(vec))
    return basis


def rank_sparse(rows) -> int:
    """Rank of rows given as ``{col: value}`` dicts (exact, deterministic)."""
    pivots = []  # list of (col, normalized row dict)
    count = 0
    for row in rows:
        cur = {c: as_rat(v) for c, v in row.items() if as_rat(v) != 0}
        for col, prow in pivots:
            if col in cur:
                f = cur[col]
                for c, v in prow.items():
                    nv = cur.get(c, ZERO) - f * v
                    if nv == 0:
                        cur.pop(c, None)
                    else:
                        cur[c] = nv
        if cur:
            col = min(cur)
            piv = cur[col]
            inv = ONE / piv
            cur = {c: v * inv for c, v in cur.items()}
            pivots.append((col, cur))
            pivots.sort(key=lambda t: t[0])
            count += 1
    return count
