"""The constructions the Steinmann layer used to run, kept as oracles.

``functionals`` reads the Steinmann relations, the discrete derivative,
the Dynkin elements and the Eulerian system off the chamber sign table and
the cone functionals.  The code below is what it replaced: relations from a
margin-LP walk over the arrangement restricted to each codimension-2 flat,
the derivative by an exact epsilon perturbation of embedded witnesses,
Dynkin elements from full m-functionals, the Eulerian system on the
p-functionals, and the m-, p-functionals, coordinates and reconstructions
folded term by term out of cone functionals instead of read through the
realization map.  Each test checks that both give the same answer.
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
from steinmann import zie
from steinmann.errors import DomainError
from steinmann.rat import ONE, ZERO, as_rat, rat

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
