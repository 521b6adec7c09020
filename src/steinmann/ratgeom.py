"""Exact rational linear algebra and feasibility kernel.

All geometric decisions in the library (chamber realizability, cone
membership, interior witnesses, rank computations) reduce to small exact
linear programs or Gaussian eliminations over the rationals.  Everything here
is deterministic: fixed variable order, Bland's rule for pivoting, first
nonzero pivot in eliminations.  No floating point is used anywhere.

Conventions for constraint systems: every row is homogeneous, ``a . x  rel  0``
with ``rel`` one of ``">="``, ``">"``, ``"="``.  Strict rows are handled by
maximizing a margin variable ``t`` with ``a . x >= t`` and ``0 <= t <= 1``;
the system is strictly feasible iff the optimum has ``t > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import GroundSet
from .errors import DomainError, GroundMismatchError
from .rat import ONE, ZERO, as_rat

GE = ">="
GT = ">"
EQ = "="


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

    def mapping(self) -> dict:
        return dict(zip(self.ground.labels, self.coords))

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


@dataclass(frozen=True)
class LinearConstraintSystem:
    """Homogeneous rows ``(coefficients, relation)`` with relation >=, > or =."""

    dim: int
    rows: tuple

    def __post_init__(self):
        rows = []
        for coeffs, rel in self.rows:
            coeffs = tuple(as_rat(c) for c in coeffs)
            if len(coeffs) != self.dim:
                raise DomainError("constraint dimension mismatch")
            if rel not in (GE, GT, EQ):
                raise DomainError(f"unknown relation {rel!r}")
            rows.append((coeffs, rel))
        object.__setattr__(self, "rows", tuple(rows))

    def satisfied_by(self, x) -> bool:
        for coeffs, rel in self.rows:
            v = sum((c * xi for c, xi in zip(coeffs, x)), ZERO)
            if rel == GE and v < 0:
                return False
            if rel == GT and v <= 0:
                return False
            if rel == EQ and v != 0:
                return False
        return True


# ---------------------------------------------------------------------------
# dense simplex (Bland's rule, exact rationals)


def _simplex(tableau, basis, ncols, enter_limit=None):
    """Run primal simplex to optimality on a max-problem tableau.

    ``tableau`` has one list per constraint row ending in the rhs, plus an
    objective row of reduced costs (maximization: stop when all <= 0) whose
    last entry is the negated objective value.  ``basis`` maps constraint rows
    to their basic columns.  Only the first ``enter_limit`` columns (default
    all) may enter the basis.  Mutates in place; returns False iff unbounded.
    """
    m = len(tableau) - 1
    obj = tableau[m]
    while True:
        enter = -1
        for j in range(ncols if enter_limit is None else enter_limit):
            if obj[j] > 0:  # Bland: first improving column
                enter = j
                break
        if enter < 0:
            return True
        leave, best = -1, None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return False
        _pivot(tableau, basis, leave, enter)


def _pivot(tableau, basis, leave, enter):
    """Make column ``enter`` basic in row ``leave``, eliminating it elsewhere."""
    piv_row = tableau[leave]
    piv = piv_row[enter]
    if piv != 1:
        inv = ONE / piv
        for j in range(len(piv_row)):
            piv_row[j] *= inv
    for i, row in enumerate(tableau):
        f = row[enter]
        if i != leave and f != 0:
            for j in range(len(row)):
                row[j] -= f * piv_row[j]
    basis[leave] = enter


def _solve_lp(A, b, c):
    """max c.z subject to A z = b, z >= 0, all rational.

    Returns (status, value, z) with status "optimal", "unbounded" or
    "infeasible".  Two-phase; deterministic.
    """
    m, n = len(A), len(c)
    rows = [list(row) for row in A]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # phase 1: artificial variable per row
    ncols = n + m
    tableau = []
    for i in range(m):
        art = [ZERO] * m
        art[i] = ONE
        tableau.append(rows[i] + art + [rhs[i]])
    obj = [ZERO] * ncols + [ZERO]
    for i in range(m):  # minimize sum of artificials == max of -(sum)
        for j in range(ncols + 1):
            obj[j] += tableau[i][j]
    obj = [v if j < n else ZERO for j, v in enumerate(obj[:ncols])] + [obj[ncols]]
    tableau.append(obj)
    basis = [n + i for i in range(m)]
    _simplex(tableau, basis, ncols)
    if tableau[m][ncols] != 0:
        return "infeasible", None, None
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j] != 0), None)
            if enter is not None:  # else the row is redundant
                _pivot(tableau, basis, i, enter)
    # phase 2: real objective, artificial columns frozen
    obj2 = [as_rat(cj) for cj in c] + [ZERO] * m + [ZERO]
    for i in range(m):
        if basis[i] < n and obj2[basis[i]] != 0:
            f = obj2[basis[i]]
            for j in range(ncols + 1):
                obj2[j] -= f * tableau[i][j]
    tableau[m] = obj2
    if not _simplex(tableau, basis, ncols, enter_limit=n):
        return "unbounded", None, None
    z = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = tableau[i][ncols]
    value = -tableau[m][ncols]
    return "optimal", value, z


def feasible(system: LinearConstraintSystem):
    """An exact interior point of the system, or None.

    Strict rows are satisfied strictly by maximizing a common margin; weak
    and equality rows exactly.  Every returned point is re-checked by
    substitution before being handed back.
    """
    d = system.dim
    # variables: x+ (d), x- (d), t  -- all >= 0
    n = 2 * d + 1
    A, b = [], []
    for coeffs, rel in system.rows:
        row = list(coeffs) + [-c for c in coeffs]
        if rel == GT:
            A.append(row + [-ONE])
            b.append(ZERO)
        elif rel == GE:
            A.append(row + [ZERO])
            b.append(ZERO)
        else:
            A.append(row + [ZERO])
            b.append(ZERO)
            A.append([-v for v in row] + [ZERO])
            b.append(ZERO)
    # inequality rows become equalities with slacks
    slack_rows = len(A)
    full = []
    for i, row in enumerate(A):
        slacks = [ZERO] * (slack_rows + 1)
        slacks[i] = -ONE  # a.x - t - s = 0  ->  s >= 0 means a.x >= t
        full.append(row + slacks)
    cap = [ZERO] * n + [ZERO] * slack_rows + [ONE]
    cap[2 * d] = ONE  # t + s_cap = 1
    full.append(cap)
    b.append(ONE)
    c = [ZERO] * (n + slack_rows + 1)
    c[2 * d] = ONE  # maximize t
    status, value, z = _solve_lp(full, b, c)
    if status != "optimal" or value is None or value <= 0:
        return None
    x = tuple(z[j] - z[d + j] for j in range(d))
    if not system.satisfied_by(x):
        raise AssertionError("internal error: LP returned an invalid witness")
    return x


def strict_feasible(rows, dim):
    """Witness for ``a . x > 0`` for every row ``a``, or None.

    Specialized margin LP for homogeneous all-strict systems: rows are
    rewritten ``-a.x + t + s = 0`` so the slacks form a feasible starting
    basis (x = 0, t = 0) and no phase-1 artificials are needed.  This is the
    chamber-enumeration hot path.
    """
    m = len(rows)
    n = 2 * dim + 1  # x+, x-, t
    ncols = n + m + 1
    t_col = 2 * dim
    tableau = []
    for i, a in enumerate(rows):
        row = [ZERO] * (ncols + 1)
        for j, v in enumerate(a):
            v = as_rat(v)
            row[j] = -v
            row[dim + j] = v
        row[t_col] = ONE
        row[n + i] = ONE
        tableau.append(row)
    cap = [ZERO] * (ncols + 1)
    cap[t_col] = ONE
    cap[ncols - 1] = ONE
    cap[ncols] = ONE  # rhs
    tableau.append(cap)
    obj = [ZERO] * (ncols + 1)
    obj[t_col] = ONE
    tableau.append(obj)
    basis = [n + i for i in range(m + 1)]
    if not _simplex(tableau, basis, ncols):
        raise AssertionError("margin LP cannot be unbounded")
    value = -tableau[m + 1][ncols]
    if value <= 0:
        return None
    x = [ZERO] * dim
    for i, bcol in enumerate(basis):
        if bcol < dim:
            x[bcol] = tableau[i][ncols]
        elif bcol < 2 * dim:
            x[bcol - dim] -= tableau[i][ncols]
    x = tuple(x)
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
    if k == 0 and not open_cone:
        # member iff target lies in the lineality span (or is zero)
        if r == 0:
            return [] if all(v == 0 for v in tgt) else None
        sol = solve([[lin[j][i] for j in range(r)] for i in range(d)], list(tgt))
        return [] if sol is not None else None
    if k == 0 and open_cone:
        return None
    # variables: c (k), r+ (r), r- (r), t (1 if open)
    n = k + 2 * r + (1 if open_cone else 0)
    A, b = [], []
    for i in range(d):
        row = [g[i] for g in gens] + [l[i] for l in lin] + [-l[i] for l in lin]
        if open_cone:
            row.append(ZERO)
        A.append(row)
        b.append(tgt[i])
    c = [ZERO] * n
    if open_cone:
        t_col = n - 1
        # c_i - t >= 0  ->  c_i - t - s = 0
        base = len(A)
        slack_count = k + 1
        for row in A:
            row.extend([ZERO] * slack_count)
        for i in range(k):
            row = [ZERO] * n + [ZERO] * slack_count
            row[i] = ONE
            row[t_col] = -ONE
            row[n + i] = -ONE
            A.append(row)
            b.append(ZERO)
        cap = [ZERO] * n + [ZERO] * slack_count
        cap[t_col] = ONE
        cap[n + k] = ONE
        A.append(cap)
        b.append(ONE)
        c = [ZERO] * (n + slack_count)
        c[t_col] = ONE
        status, value, z = _solve_lp(A, b, c)
        if status != "optimal" or value is None or value <= 0:
            return None
        coeffs = z[:k]
    else:
        status, _, z = _solve_lp(A, b, c)
        if status != "optimal":
            return None
        coeffs = z[:k]
    # substitution check, always on
    lin_part = [z[k + j] - z[k + r + j] for j in range(r)] if r else []
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
