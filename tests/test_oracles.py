"""The constructions the Steinmann layer used to run, kept as oracles.

``functionals`` reads the Steinmann relations, the discrete derivative,
the Dynkin elements and the Eulerian system off the chamber sign table and
the cone functionals.  The code below is what it replaced: relations from a
margin-LP walk over the arrangement restricted to each codimension-2 flat,
the derivative by an exact epsilon perturbation of embedded witnesses,
Dynkin elements from full m-functionals, the Eulerian system on the
p-functionals, and the m-, p-functionals, coordinates and reconstructions
folded term by term out of cone functionals instead of read through the
realization map.  The linear programs of ``ratgeom`` ran on a tableau of
rationals before the fraction-free one.  Products, coproducts and the
cobracket were folded element by element, branching on the basis inside the
loop over terms, before they became linear extensions of key maps.  Each test
checks that both give the same answer.
"""

import functools
import itertools
import random

import pytest

from steinmann import arrangement as arr
from steinmann import compositions as co
from steinmann import functionals as fn
from steinmann import hopf
from steinmann import preposets as pp
from steinmann import ratgeom
from steinmann import verify
from steinmann import zie
from steinmann.compositions import GroundSet, SetComposition, concat, restrict
from steinmann.errors import DomainError, GroundMismatchError
from steinmann.hopf import BasisElement, TensorElement, normalize_c_keys, quasishuffles, shuffles
from steinmann.rat import ONE, ZERO, as_rat, rat
from steinmann.zie import ZieDualElement, _rebase_p_key, dual_change_basis

# ---------------------------------------------------------------------------
# relations: one LP-enumerated cell of each restricted arrangement per face


def lp_relations(g):
    n = len(g)
    splits = arr.hyperplane_splits(g)
    reduced = arr._reduced_functionals(g)
    m = len(splits)
    chamber_table = arr.chamber_index(g)
    relations = []
    for i in range(m):
        for j in range(i + 1, m):
            if not fn._crossing(splits[i], splits[j]):
                continue
            flat = ratgeom.kernel_basis([reduced[i], reduced[j]], n - 1)
            fdim = len(flat)
            others = [k for k in range(m) if k not in (i, j)]
            induced = {
                k: tuple(
                    sum((reduced[k][c] * flat[b][c] for c in range(n - 1)), ZERO)
                    for b in range(fdim)
                )
                for k in others
            }
            # group parallel restrictions: key = direction with leading 1
            reps, assign = [], {}
            for k in others:
                vec = induced[k]
                lead = next(v for v in vec if v != 0)
                direction = tuple(v / lead for v in vec)
                orient = 1 if lead > 0 else -1
                for idx, (d2, _) in enumerate(reps):
                    if d2 == direction:
                        assign[k] = (idx, orient)
                        break
                else:
                    assign[k] = (len(reps), orient)
                    reps.append((direction, k))
            rep_vectors = [d for d, _ in reps]
            cells = arr.enumerate_sign_chambers(rep_vectors, fdim)
            for bits in sorted(cells):
                z = cells[bits]
                y = tuple(
                    sum((flat[b][c] * z[b] for b in range(fdim)), ZERO)
                    for c in range(n - 1)
                )
                base_signs = [None] * m
                for k in others:
                    idx, orient = assign[k]
                    positive = bool((bits >> idx) & 1) == (orient == 1)
                    base_signs[k] = "+" if positive else "-"
                entries = []
                for si, sj, coeff in (("+", "+", 1), ("+", "-", -1), ("-", "+", -1), ("-", "-", 1)):
                    signs = list(base_signs)
                    signs[i], signs[j] = si, sj
                    sign_str = "".join(signs)
                    assert sign_str in chamber_table
                    entries.append((sign_str, coeff))
                face_signs = list(base_signs)
                face_signs[i] = face_signs[j] = "0"
                face = arr.AdjointFace(g, "".join(face_signs), ratgeom.Point(g, y + (-sum(y, ZERO),)))
                relations.append(fn.SteinmannRelation(g, (i, j), tuple(entries), face))
    return relations


def assert_strict_face(g, face):
    for k, tb in enumerate(arr.hyperplane_splits(g)):
        v = ratgeom.pair(face.witness, tb.weight_vector())
        if face.signs[k] == "0":
            assert v == 0
        else:
            assert v != 0 and (v > 0) == (face.signs[k] == "+")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relations_match_lp_walk(n):
    g = co.standard_ground(n)
    new = fn.steinmann_relations(g)
    old = lp_relations(g)
    assert [(r.hyperplanes, r.entries) for r in new] == [(r.hyperplanes, r.entries) for r in old]
    assert [r.face.signs for r in new] == [r.face.signs for r in old]
    for rel in new:
        assert_strict_face(g, rel.face)


# ---------------------------------------------------------------------------
# derivative: exact epsilon perturbation of embedded witnesses


def _sub_generic_direction(g, base_start):
    n = len(g)
    base = base_start
    while True:
        total = sum(base**i for i in range(n))
        d = tuple(rat(base**i) - rat(total, n) for i in range(n))
        if all(
            sum((d[i] for i in range(n) if (mask >> i) & 1), ZERO) != 0
            for mask in range(1, (1 << n) - 1)
        ):
            return d
        base += 1


def _perturbed_witness(ch, k, seed):
    if k == 0:
        return ch.witness
    g = ch.ground
    if len(g) <= 1:
        return ch.witness
    d = ratgeom.Point(g, _sub_generic_direction(g, 3 + seed))
    margins, scales = [], []
    for tb in arr.hyperplane_splits(g):
        lam = tb.weight_vector()
        margins.append(abs(ratgeom.pair(ch.witness, lam)))
        scales.append(abs(ratgeom.pair(d, lam)))
    delta = min(mg / (2 * sc + 1) for mg, sc in zip(margins, scales))
    return ch.witness + d.scale(delta / (k + 1))


def epsilon_derivative(f, split, seed=0):
    s_labels, t_labels = split
    s, t = set(s_labels), set(t_labels)
    g = f.ground
    if not fn.is_steinmann(f):
        raise DomainError("derivative of a non-Steinmann functional is ill-defined")
    left_g, right_g = g.subset(s), g.subset(t)
    splits = arr.hyperplane_splits(g)
    table = arr.chamber_index(g)
    split_index = next(i for i, tb in enumerate(splits) if set(tb.S) in (s, t))
    oriented_positive_is_s = set(splits[split_index].S) == s
    w_dir = ratgeom.point(
        g, {x: rat(1, len(s)) if x in s else -rat(1, len(t)) for x in g.labels}
    )
    w_pairings = [ratgeom.pair(w_dir, tb.weight_vector()) for tb in splits]
    values = {}
    for ch_s in arr.enumerate_chambers(left_g):
        for ch_t in arr.enumerate_chambers(right_g):
            h = None
            for k in range(0, 2 * len(splits) + 4):
                ws = _perturbed_witness(ch_s, k, seed)
                coords = {x: ws.coord(x) for x in left_g.labels}
                coords.update({x: ch_t.witness.coord(x) for x in right_g.labels})
                cand = ratgeom.point(g, coords)
                if all(
                    ratgeom.pair(cand, splits[i].weight_vector()) != 0
                    for i in range(len(splits))
                    if i != split_index
                ):
                    h = cand
                    break
            assert h is not None
            pairings = [
                ratgeom.pair(h, tb.weight_vector()) if i != split_index else None
                for i, tb in enumerate(splits)
            ]
            eps_candidates = [
                abs(pairings[i]) / (2 * abs(w_pairings[i]) + 1)
                for i in range(len(splits))
                if i != split_index
            ]
            eps = min(eps_candidates) if eps_candidates else ONE
            signs_plus, signs_minus = [], []
            for i in range(len(splits)):
                if i == split_index:
                    signs_plus.append("+" if oriented_positive_is_s else "-")
                    signs_minus.append("-" if oriented_positive_is_s else "+")
                else:
                    base, shift = pairings[i], eps * w_pairings[i]
                    sp, sm = base + shift, base - shift
                    assert sp != 0 and sm != 0 and (sp > 0) == (sm > 0) == (base > 0)
                    signs_plus.append("+" if sp > 0 else "-")
                    signs_minus.append("+" if sm > 0 else "-")
            key_plus, key_minus = "".join(signs_plus), "".join(signs_minus)
            assert key_plus in table and key_minus in table
            values[(ch_s.signs, ch_t.signs)] = f.values[key_plus] - f.values[key_minus]
    return fn.FunctionalTensor(left_g, right_g, values)


def proper_splits(g):
    labels = g.labels
    for r in range(1, len(labels)):
        for s in itertools.combinations(labels, r):
            yield s, tuple(x for x in labels if x not in s)


def random_steinmann(g, rnd, count=None):
    keys = zie.based_keys(g)
    chosen = keys if count is None else rnd.sample(keys, count)
    coords = {k: rat(rnd.randint(-3, 3), rnd.randint(1, 2)) for k in chosen}
    return fn.from_basis_coords(g, coords)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_derivative_matches_epsilon_perturbation(n):
    g = co.standard_ground(n)
    rnd = random.Random(100 + n)
    for trial in range(2):
        f = random_steinmann(g, rnd)
        for split in proper_splits(g):
            seed = rnd.randint(0, 3)
            assert fn.derivative(f, split, seed=seed) == epsilon_derivative(f, split, seed=seed)


def test_derivative_matches_epsilon_perturbation_n5():
    g = co.standard_ground(5)
    f = random_steinmann(g, random.Random(5), count=12)
    for split in ((("3",), ("1", "2", "4", "5")), (("1", "5"), ("2", "3", "4"))):
        assert fn.derivative(f, split) == epsilon_derivative(f, split)


def test_derivative_schedule_fallback_matches():
    # embedded witnesses that land on a third hyperplane force the oracle's
    # perturbation schedule past its first point; the sign assembly must
    # still agree with it
    g = co.standard_ground(4)
    f = random_steinmann(g, random.Random(9))
    split = (("1", "2"), ("3", "4"))
    left, right = (arr.enumerate_chambers(g.subset(side)) for side in split)
    masks = arr._side_masks(g)
    hits = 0
    for ch_s in left:
        for ch_t in right:
            x = tuple(ch_s.witness.coords) + tuple(ch_t.witness.coords)
            sums = arr._side_sums(x)
            hits += sum(1 for mask in masks if sums[mask] == 0) > 1
    assert hits, "no pair needs the fallback; pick another split"
    for seed in (0, 1, 2):
        assert fn.derivative(f, split, seed=seed) == epsilon_derivative(f, split, seed=seed)


def test_derivative_dominant_sides_agree_n5():
    g = co.standard_ground(5)
    f = random_steinmann(g, random.Random(55), count=12)
    for split in ((("3",), ("1", "2", "4", "5")), (("1", "5"), ("2", "3", "4"))):
        assert fn.derivative(f, split, seed=1) == epsilon_derivative(f, split, seed=1)
    for split in proper_splits(g):
        assert fn.derivative(f, split, seed=0) == fn.derivative(f, split, seed=1)


# ---------------------------------------------------------------------------
# Eulerian elements from the p-functional system


@functools.lru_cache(maxsize=None)
def p_system(g):
    """The Eulerian system as it was built: p_K(e) = [K = (I)] over the
    based keys K, from full p-functionals."""
    keys = zie.based_keys(g)
    chambers = arr.enumerate_chambers(g)
    rows = [[fn.p_functional(k).values[ch.signs] for ch in chambers] for k in keys]
    return chambers, rows, [ONE if len(k) == 1 else ZERO for k in keys]


def on_both_systems(call):
    """``call()`` on the p-system, then on the cone system ``functionals`` uses."""
    fn._eulerian_cached.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fn, "_eulerian_system", p_system)
            old = call()
        fn._eulerian_cached.cache_clear()
        return old, call()
    finally:
        fn._eulerian_cached.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eulerian_systems_share_rref(n):
    g = co.standard_ground(n)
    augmented = [
        [list(row) + [b] for row, b in zip(rows, rhs)]
        for _, rows, rhs in (p_system(g), fn._eulerian_system(g))
    ]
    width = len(augmented[0][0]) - 1
    assert ratgeom.rref(augmented[0], width) == ratgeom.rref(augmented[1], width)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eulerian_element_matches_p_system(n):
    g = co.standard_ground(n)
    old, new = on_both_systems(lambda: fn.eulerian_element(g))
    assert list(old.weights.items()) == list(new.weights.items())


@pytest.mark.parametrize("n, count", [(3, 6), (4, 24)])
def test_uniform_search_matches_p_system(n, count):
    g = co.standard_ground(n)
    old, new = on_both_systems(lambda: fn.uniform_eulerian_search(g, count))
    assert new is not None
    assert list(old.weights.items()) == list(new.weights.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cone_functionals_on_eulerian_element(n):
    g = co.standard_ground(n)
    e = fn.eulerian_element(g)
    for key in zie.based_keys(g):
        assert fn.evaluate(fn.c_functional(pp.preposet_of(key)), e) == rat(1, len(key))


# ---------------------------------------------------------------------------
# Dynkin elements from full m-functionals


def m_functional_dynkin(ch):
    terms = {f: fn.m_functional(f).coeff(ch.signs) for f in co.enumerate_compositions(ch.ground)}
    return hopf.BasisElement(ch.ground, "H", terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dynkin_matches_m_functionals(n):
    for ch in arr.enumerate_chambers(co.standard_ground(n)):
        assert fn.dynkin(ch) == m_functional_dynkin(ch)


# ---------------------------------------------------------------------------
# the realization map against term-by-term folds of cone functionals


@functools.lru_cache(maxsize=None)
def m_fold(f):
    """Alternating sum of cone functionals over coarsenings (signed interior)."""
    g = f.ground
    out = None
    for g_comp in co.coarser_compositions(f):
        term = fn.c_functional(pp.preposet_of(g_comp)).scale((-1) ** (len(f) - len(g_comp)))
        out = term if out is None else out + term
    return out


@functools.lru_cache(maxsize=None)
def p_fold(f):
    """Image of the shuffle-dual basis: factorial-weighted sum of m over coarsenings."""
    out = None
    for g_comp in co.coarser_compositions(f):
        _, fact = co.quotient_factors(f, g_comp)
        term = m_fold(g_comp).scale(rat(1, fact))
        out = term if out is None else out + term
    return out


def coords_fold(g, coords):
    out = fn.ChamberFunctional(g, {})
    for key, coeff in coords.items():
        out = out + fn.c_functional(pp.preposet_of(key)).scale(coeff)
    return out


def reconstruct_fold(g, coeffs):
    out = fn.ChamberFunctional(g, {})
    for key, coeff in coeffs.items():
        coeff = as_rat(coeff)
        if coeff != 0:
            out = out + p_fold(key).scale(coeff)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_m_and_p_match_folds(n):
    for f in co.enumerate_compositions(co.standard_ground(n)):
        assert fn.m_functional(f) == m_fold(f)
        assert fn.p_functional(f) == p_fold(f)


def test_m_and_p_match_folds_on_based_keys_n5():
    for f in zie.based_keys(co.standard_ground(5)):
        assert fn.m_functional(f) == m_fold(f)
        assert fn.p_functional(f) == p_fold(f)


@pytest.mark.parametrize("n", [4, 5])
def test_coords_and_reconstruct_match_folds(n):
    g = co.standard_ground(n)
    rnd = random.Random(700 + n)
    keys = zie.based_keys(g)
    for _ in range(2):
        coords = {k: rat(rnd.randint(-4, 4), rnd.randint(1, 3)) for k in keys}
        assert fn.from_basis_coords(g, coords) == coords_fold(g, coords)
        assert fn.reconstruct(g, coords) == reconstruct_fold(g, coords)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_realize_sends_c_to_cone_functionals(n):
    for f in co.enumerate_compositions(co.standard_ground(n)):
        assert fn.realize(hopf.basis_vector("C", f)) == fn.c_functional(pp.preposet_of(f))


@pytest.mark.parametrize("basis", ["H", "Q"])
def test_realize_rejects_the_dual_side(basis):
    f = co.enumerate_compositions(co.standard_ground(3))[0]
    with pytest.raises(DomainError):
        fn.realize(hopf.basis_vector(basis, f))


# ---------------------------------------------------------------------------
# linear programs: the simplex on a tableau of rationals


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


def fraction_cone_member(target, gens, open_cone):
    """Membership of ``target`` in the cone of ``gens`` on the rational tableau."""
    k, d = len(gens), len(target)
    A = [[g[i] for g in gens] for i in range(d)]
    b = list(target)
    if not open_cone:
        return _solve_lp(A, b, [ZERO] * k)[0] == "optimal"
    # variables c (k), t, s (k), s_cap: c_i - t - s_i = 0, t + s_cap = 1, max t
    width = 2 * k + 2
    A = [row + [ZERO] * (k + 2) for row in A]
    for i in range(k):
        row = [ZERO] * width
        row[i], row[k], row[k + 1 + i] = ONE, -ONE, -ONE
        A.append(row)
        b.append(ZERO)
    cap = [ZERO] * width
    cap[k] = cap[width - 1] = ONE
    A.append(cap)
    b.append(ONE)
    c = [ZERO] * width
    c[k] = ONE
    status, value, _ = _solve_lp(A, b, c)
    return status == "optimal" and value > 0


HAND_LPS = [
    # both rows reach x0 = 1 at once: a tie in the phase-1 ratio test
    ([[1, 1, 0], [1, 0, 1]], [1, 1], [1, 0, 0]),
    # Beale's cycling example (times 4): degenerate ties at ratio 0
    (
        [[1, -32, -4, 36, 1, 0, 0], [1, -24, -1, 6, 0, 1, 0], [0, 0, 1, 0, 0, 0, 1]],
        [0, 0, 1],
        [3, -80, 2, -24, 0, 0, 0],
    ),
    ([[1, 1]], [-1], [0, 0]),  # infeasible
    ([[1, -1]], [0], [1, 0]),  # unbounded
    ([[-1, -1]], [0], [1, 0]),  # the artificial is driven out on a -1
    ([[-1, -1, 0], [1, 1, 0], [0, 1, 1]], [0, 0, 2], [1, 1, 1]),  # a redundant row too
]


def _random_lp(rnd):
    m, n = rnd.randint(1, 5), rnd.randint(1, 6)
    A = [[rnd.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(n)] for _ in range(m)]
    b = [rnd.choice((0, 0, 0, 1, -1, 2, 3)) for _ in range(m)]  # zeros: degenerate ties
    return A, b, [rnd.randint(-2, 2) for _ in range(n)]


def test_integer_simplex_matches_fraction_simplex(monkeypatch):
    pivots = []
    integer_pivot = ratgeom._pivot

    def recording_pivot(tableau, basis, leave, enter, D):
        pivots.append(tableau[leave][enter])
        return integer_pivot(tableau, basis, leave, enter, D)

    monkeypatch.setattr(ratgeom, "_pivot", recording_pivot)
    rnd = random.Random(17)
    statuses = []
    for A, b, c in HAND_LPS + [_random_lp(rnd) for _ in range(300)]:
        got = ratgeom._solve_lp(A, b, c)
        want = _solve_lp([[rat(v) for v in row] for row in A], [rat(v) for v in b], c)
        assert got == want
        statuses.append(got[0])
    assert statuses[: len(HAND_LPS)] == [
        "optimal", "optimal", "infeasible", "unbounded", "optimal", "optimal"
    ]
    assert {"optimal", "infeasible", "unbounded"} <= set(statuses[len(HAND_LPS):])
    assert any(v < 0 for v in pivots)


def _strict_rows(rnd, dim, integral=True):
    def entry():
        v = rnd.randint(-3, 3)
        return v if integral else rat(v, rnd.randint(1, 4))

    return [tuple(entry() for _ in range(dim)) for _ in range(rnd.randint(1, 7))]


def test_strict_witnesses_match_on_random_systems():
    rnd = random.Random(19)
    found = 0
    for _ in range(200):
        dim = rnd.randint(1, 4)
        rows = _strict_rows(rnd, dim)
        x = ratgeom.strict_feasible(rows, dim)
        assert x == strict_feasible(rows, dim)
        found += x is not None
        rows = _strict_rows(rnd, dim, integral=False)  # scaled to integers: same decision
        assert (ratgeom.strict_feasible(rows, dim) is None) == (strict_feasible(rows, dim) is None)
    assert 0 < found < 200


@pytest.mark.parametrize("n", [5, 6])
def test_strict_witnesses_match_on_cold_margin_lps(monkeypatch, n):
    calls = []
    integer_strict_feasible = ratgeom.strict_feasible

    def recording(rows, dim):
        x = integer_strict_feasible(rows, dim)
        calls.append((rows, dim, x))
        return x

    monkeypatch.setattr(ratgeom, "strict_feasible", recording)
    arr._enumerate_uncached(co.standard_ground(n))
    assert calls
    for rows, dim, x in calls:
        assert x == strict_feasible(rows, dim)


def test_cone_member_on_rational_inputs():
    rnd = random.Random(23)
    seen = set()
    for _ in range(150):
        gens = [
            tuple(rat(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(3))
            for _ in range(rnd.randint(1, 4))
        ]
        if rnd.random() < 0.5:
            target = tuple(rat(rnd.randint(-3, 3), rnd.randint(1, 5)) for _ in range(3))
        else:  # a positive combination: in the open cone
            weights = [rat(rnd.randint(1, 4), rnd.randint(1, 3)) for _ in gens]
            target = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3))
        for open_cone in (False, True):
            coeffs = ratgeom.cone_member(target, gens, open_cone=open_cone)
            member = fraction_cone_member(target, gens, open_cone)
            assert (coeffs is not None) == member
            seen.add((open_cone, member))
            if member:
                assert all(cv > 0 if open_cone else cv >= 0 for cv in coeffs)
                assert all(
                    sum(cv * g[i] for cv, g in zip(coeffs, gens)) == target[i] for i in range(3)
                )
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# products, coproducts and the cobracket element by element, with the
# per-basis branch inside the loop over terms


def element_multiply(a: BasisElement, b: BasisElement) -> BasisElement:
    """The basis-specific product over the disjoint union of the grounds."""
    if a.basis != b.basis:
        raise DomainError("multiply requires equal basis tags; convert first")
    if a.ground.label_set & b.ground.label_set:
        raise GroundMismatchError("multiply requires disjoint grounds")
    basis = a.basis
    a = normalize_c_keys(a)
    b = normalize_c_keys(b)
    new_ground = GroundSet(a.ground.labels + b.ground.labels)
    terms = {}

    def add(key, coeff):
        terms[key] = terms.get(key, ZERO) + coeff

    for fk, fv in a.terms.items():
        for gk, gv in b.terms.items():
            c = fv * gv
            if basis == "M":
                for h in quasishuffles(fk, gk):
                    add(h, c)
            elif basis == "P":
                for h in shuffles(fk, gk):
                    add(h, c)
            elif basis == "C":
                total = len(fk) + len(gk)
                for h in quasishuffles(fk, gk):
                    add(h, c * (-1) ** (total - len(h)))
            else:  # H and Q multiply by concatenation
                add(concat(fk, gk), c)
    return BasisElement(new_ground, basis, terms)


def _is_initial(f: SetComposition, s: set) -> bool:
    """True iff s is a union of initial lumps of f."""
    remaining = set(s)
    for lump in f.lumps:
        if not remaining:
            return True
        if not set(lump) <= remaining:
            return False
        remaining -= set(lump)
    return not remaining


def element_comultiply(x: BasisElement, split) -> TensorElement:
    """Coproduct component at an ordered split (S, T) of the ground set."""
    s_labels, t_labels = split
    s, t = set(s_labels), set(t_labels)
    if s & t or s | t != x.ground.label_set:
        raise DomainError("comultiply requires an ordered two-sided partition of the ground")
    x = normalize_c_keys(x)
    left_g = x.ground.subset(s)
    right_g = x.ground.subset(t)
    terms = {}

    def add(kl, kr, coeff):
        key = (kl, kr)
        terms[key] = terms.get(key, ZERO) + coeff

    for key, coeff in x.terms.items():
        if x.basis in ("M", "P", "C"):
            if _is_initial(key, s):
                add(restrict(key, s), restrict(key, t), coeff)
        elif x.basis == "H":
            add(restrict(key, s), restrict(key, t), coeff)
        else:  # Q: survives iff S is a union of lumps
            if all(set(lump) <= s or set(lump) <= t for lump in key.lumps):
                add(restrict(key, s), restrict(key, t), coeff)
    return TensorElement(left_g, right_g, x.basis, terms)


def element_cobracket(d: ZieDualElement, split) -> dict:
    """The cocommutator of deconcatenation at an ordered split (S, T).

    Returns a mapping ``(left key, right key) -> coefficient`` with both
    sides re-based to their own based comb keys, in the same p/m/c tag as the
    input.  Linear in ``d``.
    """
    s_labels, t_labels = split
    s, t = set(s_labels), set(t_labels)
    if not s or not t or (s & t) or (s | t) != d.ground.label_set:
        raise DomainError("cobracket requires a proper two-sided split")
    tag = d.basis
    p = dual_change_basis(d, "p")
    left_g = d.ground.subset(s)
    right_g = d.ground.subset(t)
    raw = {}

    def add(kl, kr, coeff):
        raw[(kl, kr)] = raw.get((kl, kr), ZERO) + coeff

    # both terms in (S, T)-indexed coordinates: the factor over S always sits
    # in the left leg, the deconcatenation side only controls the sign
    for key, coeff in p.terms.items():
        if _is_initial(key, s):
            add(restrict(key, s), restrict(key, t), coeff)
        if _is_initial(key, t):
            add(restrict(key, s), restrict(key, t), -coeff)
    # re-base both tensor legs onto their based comb keys
    out = {}
    for (kl, kr), coeff in raw.items():
        for k1, v1 in _rebase_p_key(kl).items():
            for k2, v2 in _rebase_p_key(kr).items():
                key = (k1, k2)
                out[key] = out.get(key, ZERO) + coeff * v1 * v2
    out = {k: v for k, v in out.items() if v != 0}
    if tag == "p":
        return out
    converted = {}
    for (k1, k2), coeff in out.items():
        l_elem = dual_change_basis(ZieDualElement(left_g, "p", {k1: ONE}), tag)
        r_elem = dual_change_basis(ZieDualElement(right_g, "p", {k2: ONE}), tag)
        for kl, vl in l_elem.terms.items():
            for kr, vr in r_elem.terms.items():
                key = (kl, kr)
                converted[key] = converted.get(key, ZERO) + coeff * vl * vr
    return {k: v for k, v in converted.items() if v != 0}


def _vectors_over(g, basis):
    return [hopf.basis_vector(basis, k) for k in co.enumerate_compositions(g)]


@pytest.mark.parametrize("basis", hopf.BASES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_products_match_element_products(basis, n):
    g = co.standard_ground(n)
    for s, t in verify._splits(g):
        for a in _vectors_over(g.subset(s), basis):
            for b in _vectors_over(g.subset(t), basis):
                assert hopf.multiply(a, b) == element_multiply(a, b)


@pytest.mark.parametrize("basis", hopf.BASES)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_coproducts_match_element_coproducts(basis, n):
    g = co.standard_ground(n)
    for x in _vectors_over(g, basis):
        for split in verify._splits(g):
            assert hopf.comultiply(x, split) == element_comultiply(x, split)


def test_preposet_keys_match_element_maps():
    g = co.standard_ground(3)
    splits = verify._splits(g)
    cones = {s: [hopf.cone_element(p) for p in pp.all_preposets(g.subset(s))] for s, _ in splits}
    assert len(cones[g.labels]) == 29
    assert any(isinstance(k, pp.Preposet) for x in cones[g.labels] for k in x.terms)
    for s, t in splits:
        for a in cones[s]:
            for b in cones[t]:
                assert hopf.multiply(a, b) == element_multiply(a, b)
        for x in cones[g.labels]:
            assert hopf.comultiply(x, (s, t)) == element_comultiply(x, (s, t))


@pytest.mark.parametrize("tag", ["p", "m", "c"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cobracket_matches_element_cobracket(tag, n):
    rnd = random.Random(n)
    g = co.standard_ground(n)
    keys = zie.based_keys(g)
    proper = verify._splits(g, proper_only=True)
    nonzero = 0
    for _ in range(3):
        picks = rnd.sample(keys, min(4, len(keys)))
        coeffs = {k: rat(rnd.randint(-3, 3), rnd.randint(1, 3)) for k in picks}
        d = zie.ZieDualElement(g, tag, coeffs)
        for split in proper:
            result = zie.cobracket(d, split)
            assert result == element_cobracket(d, split)
            nonzero += bool(result)
    assert nonzero
