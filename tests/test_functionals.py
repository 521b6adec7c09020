import itertools
import random

import pytest

from steinmann import arrangement as arr
from steinmann import compositions as co
from steinmann import functionals as fn
from steinmann import hopf as hp
from steinmann import preposets as pp
from steinmann import zie
from steinmann.errors import DomainError
from steinmann.rat import rat


def c(labels, lumps):
    return co.composition(labels, lumps)


def proper_splits(g):
    labels = g.labels
    out = []
    for r in range(1, len(labels)):
        for s in itertools.combinations(labels, r):
            out.append((s, tuple(x for x in labels if x not in s)))
    return out


G2 = co.ground([1, 2])
F12 = c([1, 2], [[1], [2]])
F21 = c([1, 2], [[2], [1]])
FL = c([1, 2], [[1, 2]])


class TestCFunctional:
    def test_two_coordinates(self):
        assert dict(fn.c_functional(pp.preposet_of(F12)).values) == {"+": rat(1), "-": rat(0)}
        assert dict(fn.c_functional(pp.preposet_of(FL)).values) == {"+": rat(1), "-": rat(1)}

    def test_empty_preposet_vanishes_on_chambers(self):
        # the dual cone of the full weight cone is the origin, which no
        # chamber meets; cross-check via the sum of all m functionals
        total = None
        for f in co.enumerate_compositions(G2):
            m = fn.m_functional(f)
            total = m if total is None else total + m
        assert total == fn.c_functional(pp.transitive_closure(G2, []))
        assert total.is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_cone_membership_oracle(self, n):
        from steinmann import ratgeom

        g = co.standard_ground(n)
        rnd = random.Random(n)
        comps = co.enumerate_compositions(g)
        preposets = [pp.preposet_of(f) for f in comps]
        preposets += [
            pp.transitive_closure(
                g, [tuple(rnd.sample(list(g.labels), 2)) for _ in range(3)]
            )
            for _ in range(5)
        ]
        for p in preposets:
            cf = fn.c_functional(p)
            gens = [ratgeom.coroot_point(g, a, b).coords for (a, b) in p.pairs()]
            for ch in arr.enumerate_chambers(g):
                member = ratgeom.cone_member(ch.witness.coords, gens) is not None
                assert (cf.values[ch.signs] == 1) == member


class TestMPFunctionals:
    def test_m_values_n2(self):
        assert dict(fn.m_functional(FL).values) == {"+": rat(1), "-": rat(1)}
        assert dict(fn.m_functional(F12).values) == {"+": rat(0), "-": rat(-1)}
        assert dict(fn.m_functional(F21).values) == {"+": rat(-1), "-": rat(0)}

    def test_p_value_n2(self):
        assert dict(fn.p_functional(F12).values) == {"+": rat(1, 2), "-": rat(-1, 2)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_open_cone_oracle(self, n):
        g = co.standard_ground(n)
        for f in co.enumerate_compositions(g):
            m = fn.m_functional(f)
            for ch in arr.enumerate_chambers(g):
                assert m.values[ch.signs] == fn.m_open_cone_value(f, ch)


class TestRelations:
    def test_counts(self):
        assert len(fn.steinmann_relations(co.standard_ground(2))) == 0
        assert len(fn.steinmann_relations(co.standard_ground(3))) == 0
        assert len(fn.steinmann_relations(co.standard_ground(4))) == 6

    def test_structure(self):
        g = co.standard_ground(4)
        for rel in fn.steinmann_relations(g):
            signs = [s for s, _ in rel.entries]
            assert [cf for _, cf in rel.entries] == [1, -1, -1, 1]
            i, j = rel.hyperplanes
            combos = set()
            for s in signs:
                combos.add((s[i], s[j]))
                for k in range(len(s)):
                    if k not in (i, j):
                        assert s[k] == signs[0][k]
            assert combos == {("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")}
            # the recorded codim-2 face witness is strict off its zero set
            face = rel.face
            assert face.signs[i] == face.signs[j] == "0"
            from steinmann import ratgeom

            for k, tb in enumerate(arr.hyperplane_splits(g)):
                v = ratgeom.pair(face.witness, tb.weight_vector())
                if face.signs[k] == "0":
                    assert v == 0
                else:
                    assert v != 0 and (v > 0) == (face.signs[k] == "+")

    def test_rank(self):
        assert fn.stein_quotient_dim(co.standard_ground(3)) == 6
        assert fn.stein_quotient_dim(co.standard_ground(4)) == 26

    def test_cone_functionals_satisfy_relations(self):
        g = co.standard_ground(4)
        rels = fn.steinmann_relations(g)
        rnd = random.Random(3)
        for f in co.enumerate_compositions(g):
            cf = fn.c_functional(pp.preposet_of(f))
            assert all(rel.apply(cf) == 0 for rel in rels)
        for _ in range(10):
            pairs = [tuple(rnd.sample(list(g.labels), 2)) for _ in range(4)]
            cf = fn.c_functional(pp.transitive_closure(g, pairs))
            assert all(rel.apply(cf) == 0 for rel in rels)

    def test_touched_indicator_not_steinmann(self):
        g = co.standard_ground(4)
        rel = fn.steinmann_relations(g)[0]
        touched = rel.entries[0][0]
        ind = fn.ChamberFunctional(g, {touched: rat(1)})
        assert not fn.is_steinmann(ind)


class TestCoords:
    def test_unit_vector(self):
        f = fn.c_functional(pp.preposet_of(F12))
        coords = fn.steinmann_basis_coords(f)
        assert coords == {F12: rat(1), FL: rat(0)}

    def test_n2_solve(self):
        f = fn.ChamberFunctional(G2, {"+": rat(1), "-": rat(0)})
        coords = fn.steinmann_basis_coords(f)
        assert coords == {F12: rat(1), FL: rat(0)}

    def test_non_steinmann_has_no_coords(self):
        g = co.standard_ground(4)
        rel = fn.steinmann_relations(g)[0]
        ind = fn.ChamberFunctional(g, {rel.entries[0][0]: rat(1)})
        assert fn.steinmann_basis_coords(ind) is None

    def test_independence(self):
        # based cone functionals are linearly independent at n <= 4
        from steinmann import ratgeom

        for n in (2, 3, 4):
            g = co.standard_ground(n)
            chambers = arr.enumerate_chambers(g)
            pos = {ch.signs: i for i, ch in enumerate(chambers)}
            rows = []
            for k in zie.based_keys(g):
                cf = fn.c_functional(pp.preposet_of(k))
                rows.append({pos[s]: v for s, v in cf.values.items() if v != 0})
            assert ratgeom.rank_sparse(rows) == len(zie.based_keys(g))


class TestDerivative:
    def test_n2_example(self):
        d = fn.derivative(fn.c_functional(pp.preposet_of(F12)), ([1], [2]))
        assert d.values == {("", ""): rat(1)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_formula_exhaustive(self, n):
        g = co.standard_ground(n)
        for f_comp in co.enumerate_compositions(g):
            f = fn.c_functional(pp.preposet_of(f_comp))
            for split in proper_splits(g):
                assert fn.derivative(f, split) == fn.c_derivative_formula(f_comp, split)

    def test_antisymmetry(self):
        g = co.standard_ground(3)
        f = fn.c_functional(pp.preposet_of(c(["1", "2", "3"], [["2"], ["1", "3"]])))
        for s, t in proper_splits(g):
            assert fn.derivative(f, (s, t)) == fn.derivative(f, (t, s)).swap().scale(-1)

    def test_seed_independence(self):
        g = co.standard_ground(4)
        rnd = random.Random(5)
        coords = {k: rat(rnd.randint(-2, 2)) for k in zie.based_keys(g)}
        f = fn.from_basis_coords(g, coords)
        split = (("1", "4"), ("2", "3"))
        results = {fn.derivative(f, split, seed=s) for s in (0, 1, 2)}
        assert len(results) == 1

    def test_rejects_non_steinmann(self):
        g = co.standard_ground(4)
        rel = fn.steinmann_relations(g)[0]
        ind = fn.ChamberFunctional(g, {rel.entries[0][0]: rat(1)})
        with pytest.raises(DomainError):
            fn.derivative(ind, (("1",), ("2", "3", "4")))

    def test_cobracket_commuting_square(self):
        g = co.standard_ground(3)
        rnd = random.Random(7)
        for _ in range(4):
            coords = {k: rat(rnd.randint(-3, 3)) for k in zie.based_keys(g)}
            f = fn.from_basis_coords(g, coords)
            d = zie.ZieDualElement(g, "c", coords)
            for split in proper_splits(g):
                tensor = fn.derivative(f, split)
                expect = {}
                for (kl, kr), coeff in zie.cobracket(d, split).items():
                    cl = fn.c_functional(pp.preposet_of(kl))
                    cr = fn.c_functional(pp.preposet_of(kr))
                    for a, va in cl.values.items():
                        for b, vb in cr.values.items():
                            v = coeff * va * vb
                            if v != 0:
                                expect[(a, b)] = expect.get((a, b), rat(0)) + v
                assert tensor.values == {k: v for k, v in expect.items() if v != 0}


class TestEulerian:
    def test_small_elements(self):
        e1 = fn.eulerian_element(co.standard_ground(1))
        assert e1.weights == {"": rat(1)}
        e2 = fn.eulerian_element(G2)
        assert e2.weights == {"+": rat(1, 2), "-": rat(1, 2)}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_property_all_keys(self, n):
        g = co.standard_ground(n)
        e = fn.eulerian_element(g)
        for f in co.enumerate_compositions(g):
            expected = rat(1) if len(f) == 1 else rat(0)
            assert fn.evaluate(fn.p_functional(f), e) == expected

    def test_uniform_solution_n3(self):
        uni = fn.uniform_eulerian_search(co.standard_ground(3), 6)
        assert uni is not None
        assert all(v == rat(1, 6) for v in uni.weights.values())


class TestExpansion:
    def test_n2_hand_computation(self):
        f = fn.ChamberFunctional(G2, {"+": rat(1), "-": rat(0)})
        coeffs = fn.comb_coefficients(f)
        assert coeffs == {FL: rat(1, 2), F12: rat(1)}
        assert fn.reconstruct(G2, coeffs) == f

    def test_dual_basis_property(self):
        g = co.standard_ground(3)
        keys = zie.based_keys(g)
        for gk in keys:
            coeffs = fn.comb_coefficients(fn.p_functional(gk))
            assert {k: v for k, v in coeffs.items() if v != 0} == {gk: rat(1)}

    def test_roundtrip_random(self):
        g = co.standard_ground(3)
        rnd = random.Random(11)
        keys = zie.based_keys(g)
        for _ in range(6):
            coords = {k: rat(rnd.randint(-4, 4), rnd.randint(1, 3)) for k in keys}
            f = fn.reconstruct(g, coords)
            recovered = fn.comb_coefficients(f)
            assert {k: v for k, v in recovered.items() if v != 0} == {
                k: v for k, v in coords.items() if v != 0
            }

    def test_agreement_with_basis_coords(self):
        g = co.standard_ground(3)
        rnd = random.Random(13)
        coords = {k: rat(rnd.randint(-3, 3)) for k in zie.based_keys(g)}
        f = fn.from_basis_coords(g, coords)
        # two independent coordinate systems must rebuild the same functional
        via_comb = fn.reconstruct(g, fn.comb_coefficients(f))
        via_c = fn.from_basis_coords(g, fn.steinmann_basis_coords(f))
        assert via_comb == f == via_c

    def test_coords_roundtrip_n5(self):
        g = co.standard_ground(5)
        rnd = random.Random(17)
        keys = zie.based_keys(g)
        coords = {k: rat(rnd.randint(-3, 3)) for k in rnd.sample(keys, 25)}
        f = fn.from_basis_coords(g, coords)
        assert fn.is_steinmann(f)
        rec = fn.steinmann_basis_coords(f)
        assert {k: v for k, v in rec.items() if v != 0} == {
            k: v for k, v in coords.items() if v != 0
        }

    def test_rejects_non_steinmann(self):
        g = co.standard_ground(4)
        rel = fn.steinmann_relations(g)[0]
        ind = fn.ChamberFunctional(g, {rel.entries[0][0]: rat(1)})
        with pytest.raises(DomainError):
            fn.comb_coefficients(ind)


class TestDynkin:
    def test_n2_example(self):
        ch = arr.chamber_index(G2)["+"]
        expected = {FL: rat(1), F21: rat(-1)}
        assert fn.dynkin(ch).terms == expected
        assert fn.egs_expansion(ch).terms == expected

    def test_empty_ground(self):
        (ch,) = arr.enumerate_chambers(co.standard_ground(0))
        assert fn.dynkin(ch) == fn.egs_expansion(ch)
        assert fn.egs_expansion(ch).terms == {c([], []): rat(1)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_equality_and_primitivity(self, n):
        g = co.standard_ground(n)
        for ch in arr.enumerate_chambers(g):
            d = fn.dynkin(ch)
            assert d == fn.egs_expansion(ch)
            for split in proper_splits(g):
                assert hp.comultiply(d, split).is_zero()

    def test_relations_killed(self):
        g = co.standard_ground(4)
        idx = arr.chamber_index(g)
        for rel in fn.steinmann_relations(g):
            total = hp.zero(g, "H")
            for s, coeff in rel.entries:
                total = total + fn.dynkin(idx[s]).scale(coeff)
            assert total.is_zero()
