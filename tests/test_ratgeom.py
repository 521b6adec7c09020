import random

import pytest

from steinmann import compositions as co
from steinmann import ratgeom as rg
from steinmann.errors import DomainError
from steinmann.rat import rat


class TestPointsAndPairing:
    def test_pairing_is_signed_distance(self):
        g = co.ground([1, 2, 3])
        h = rg.coroot_point(g, 1, 2)
        lam = rg.point(g, {1: rat(7), 2: rat(3), 3: rat(100)})
        assert rg.pair(h, lam) == 4

    def test_pairing_kills_constants(self):
        g = co.ground([1, 2, 3])
        h = rg.point(g, {1: rat(1), 2: rat(-1), 3: rat(0)})
        lam = rg.weight_point(g, {1, 3})
        shifted = lam + rg.point(g, {1: rat(5), 2: rat(5), 3: rat(5)})
        assert rg.pair(h, lam) == rg.pair(h, shifted) == 1

    def test_pairing_requires_sum_zero(self):
        g = co.ground([1, 2])
        with pytest.raises(DomainError):
            rg.pair(rg.point(g, (rat(1), rat(1))), rg.weight_point(g, {1}))

    def test_lift_example(self):
        g = co.ground([1, 2, 3])
        h = rg.point(g, (rat(1), rat(-1), rat(0)))
        lam = rg.point(g, (rat(1), rat(0), rat(1)))  # a lift of the {1,3} weight
        assert rg.pair(h, lam) == 1


class TestFeasible:
    def test_contradiction(self):
        assert rg.strict_feasible([(1,), (-1,)], 1) is None

    def test_witness_always_satisfies(self):
        rnd = random.Random(3)
        found = 0
        for _ in range(40):
            rows = [
                tuple(rat(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(3))
                for _ in range(rnd.randint(1, 6))
            ]
            x = rg.strict_feasible(rows, 3)
            if x is not None:
                found += 1
                assert all(sum(a * xi for a, xi in zip(row, x)) > 0 for row in rows)
        assert 0 < found < 40

    def test_determinism(self):
        rnd = random.Random(4)
        for _ in range(40):
            rows = [
                tuple(rat(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(3))
                for _ in range(rnd.randint(1, 6))
            ]
            assert rg.strict_feasible(rows, 3) == rg.strict_feasible(rows, 3)
        rows = [(1, -1, 0), (0, 1, -1)]
        assert rg.strict_feasible(rows, 3) == rg.strict_feasible(rows, 3) is not None


class TestConeMember:
    def test_zero_target(self):
        assert rg.cone_member((0, 0), [(1, 0), (0, 1)]) is not None
        assert rg.cone_member((0, 0), []) == []
        assert rg.cone_member((1, 0), []) is None

    def test_weight_addition(self):
        g = co.ground([1, 2, 3])
        target = rg.weight_point(g, {1, 2}).coords
        gens = [rg.weight_point(g, {1}).coords, rg.weight_point(g, {2}).coords]
        coeffs = rg.cone_member(target, gens)
        assert coeffs == [1, 1]

    def test_coroot_addition(self):
        g = co.ground([1, 2, 3])
        target = rg.coroot_point(g, 1, 3).coords
        gens = [rg.coroot_point(g, 1, 2).coords, rg.coroot_point(g, 2, 3).coords]
        assert rg.cone_member(target, gens) == [1, 1]

    def test_open_variant(self):
        # (1,0) is on the boundary of cone{(1,0),(0,1)}: closed yes, open no
        assert rg.cone_member((1, 0), [(1, 0), (0, 1)]) is not None
        assert rg.cone_member((1, 0), [(1, 0), (0, 1)], open_cone=True) is None
        assert rg.cone_member((1, 1), [(1, 0), (0, 1)], open_cone=True) == [1, 1]

    def test_lineality(self):
        # membership modulo the all-ones direction
        assert rg.cone_member((1, 0), [(1, 1)], lineality=[(0, 1)]) is not None
        assert rg.cone_member((1, 0), [(1, 1)]) is None

    def test_certificates_verified(self):
        rnd = random.Random(5)
        for _ in range(30):
            gens = [
                tuple(rat(rnd.randint(-2, 2)) for _ in range(3)) for _ in range(rnd.randint(1, 4))
            ]
            target = tuple(rat(rnd.randint(-3, 3)) for _ in range(3))
            coeffs = rg.cone_member(target, gens)
            if coeffs is not None:
                for i in range(3):
                    assert sum(cv * gv[i] for cv, gv in zip(coeffs, gens)) == target[i]


class TestLinearAlgebra:
    def test_rank_of_weight_vectors(self):
        from steinmann import preposets as pp

        g = co.ground([1, 2, 3])
        rows = [tb.weight_vector().coords for tb in pp.all_two_blocks(g)]
        # weights span the quotient modulo all-ones: rank 3 as lifts, 2 modulo
        ones = tuple(rat(1) for _ in range(3))
        assert rg.rank(rows + [ones]) - 1 == 2

    def test_kernel_of_empty_system(self):
        basis = rg.kernel_basis([], 3)
        assert len(basis) == 3

    def test_solve_and_consistency(self):
        assert rg.solve([(1, 1), (0, 1)], (3, 2)) == [1, 2]
        assert rg.solve([(1, 1), (1, 1)], (1, 2)) is None

    def test_kernel_matches_rank(self):
        rnd = random.Random(7)
        for _ in range(20):
            rows = [
                tuple(rat(rnd.randint(-2, 2)) for _ in range(4))
                for _ in range(rnd.randint(1, 4))
            ]
            k = rg.kernel_basis(rows, 4)
            assert len(k) == 4 - rg.rank(rows)
            for vec in k:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_rank_sparse_agrees_with_dense(self):
        rnd = random.Random(9)
        for _ in range(20):
            rows = [
                [rat(rnd.randint(-2, 2)) for _ in range(5)] for _ in range(rnd.randint(1, 6))
            ]
            sparse = [{j: v for j, v in enumerate(row) if v != 0} for row in rows]
            assert rg.rank_sparse(sparse) == rg.rank(rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_rref_solve_kernel_match_dense_reference(self, seed):
        rnd = random.Random(seed)
        for _ in range(25):
            m, w = rnd.randint(1, 9), rnd.randint(1, 8)
            rows = _sparse_matrix(rnd, m, w)
            if rnd.random() < 0.5 and m > 1:  # rank-deficient: a row that combines two others
                a, b = rnd.sample(range(m), 2)
                c = rat(rnd.randint(-3, 3), rnd.randint(1, 3))
                rows[rnd.randrange(m)] = [x + c * y for x, y in zip(rows[a], rows[b])]
            pivots, mat = _dense_rref(rows, w)
            got = rg.rref(rows, width=w)
            assert got == (pivots, mat)
            assert all(type(v) is type(rat(0)) for row in got[1] for v in row)
            kernel = rg.kernel_basis(rows, w)
            assert len(kernel) == w - len(pivots)
            for vec in kernel:
                assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
            b = [rat(rnd.randint(-4, 4), rnd.randint(1, 4)) for _ in range(m)]
            x = rg.solve(rows, b)
            aug_pivots, _ = _dense_rref([row + [v] for row, v in zip(rows, b)], w + 1)
            if w in aug_pivots:  # the right-hand side is a pivot column: inconsistent
                assert x is None
                continue
            assert [sum(a * v for a, v in zip(row, x)) for row in rows] == b
            assert all(x[j] == 0 for j in range(w) if j not in pivots)

    def test_solve_rejects_an_inconsistent_sparse_system(self):
        rows = [[rat(1), rat(0), rat(2)], [rat(0), rat(0), rat(0)], [rat(2), rat(0), rat(4)]]
        assert rg.solve(rows, [rat(1), rat(0), rat(3)]) is None
        assert rg.solve(rows, [rat(1), rat(0), rat(2)]) == [rat(1), rat(0), rat(0)]

    def test_strict_feasible(self):
        w = rg.strict_feasible([(1, 0), (0, 1), (1, 1)], 2)
        assert w is not None and w[0] > 0 and w[1] > 0


def _sparse_matrix(rnd, m, w):
    """Random rational rows, most entries zero."""
    return [
        [rat(rnd.randint(-3, 3), rnd.randint(1, 3)) if rnd.random() < 0.3 else rat(0) for _ in range(w)]
        for _ in range(m)
    ]


def _dense_rref(rows, width):
    """Reference elimination: first nonzero pivot, every entry of every row updated."""
    mat = [[rat(v) for v in row] for row in rows]
    pivots, r = [], 0
    for col in range(width):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots, mat
