"""Acceptance suite: one test per acceptance criterion, all tolerances exact.

Each test prints a single ``ACCEPTANCE k (<name>): PASS`` line on success
(run pytest with ``-s`` to see them); a failed assertion marks the criterion
red.
"""

import itertools
import random
import time

from steinmann import arrangement as arr
from steinmann import braid
from steinmann import cli
from steinmann import compositions as co
from steinmann import functionals as fn
from steinmann import hopf as hp
from steinmann import preposets as pp
from steinmann import verify, zie
from steinmann.rat import rat


def _report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def proper_splits(g):
    labels = g.labels
    out = []
    for r in range(1, len(labels)):
        for s in itertools.combinations(labels, r):
            out.append((s, tuple(x for x in labels if x not in s)))
    return out


def random_preposet(g, rnd, max_pairs=None):
    labels = list(g.labels)
    k = rnd.randint(0, max_pairs if max_pairs is not None else 2 * len(labels))
    pairs = [tuple(rnd.sample(labels, 2)) for _ in range(k)]
    return pp.transitive_closure(g, pairs)


def test_criterion_1_counting():
    assert [co.ordered_bell(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
    for n in range(6):
        assert len(co.enumerate_compositions(co.standard_ground(n))) == co.ordered_bell(n)

    expected_chambers = {2: 2, 3: 6, 4: 32, 5: 370}
    for n, count in expected_chambers.items():
        if n < 5:
            assert arr.chamber_count(co.standard_ground(n)) == count

    arr.clear_memo()
    t0 = time.time()
    assert arr.chamber_count(co.standard_ground(5), use_disk_cache=False) == 370
    elapsed = time.time() - t0
    assert elapsed < 60, f"n=5 enumeration took {elapsed:.1f}s"

    t0 = time.time()
    assert arr.chamber_count(co.standard_ground(6), use_disk_cache=False) == 11292
    elapsed6 = time.time() - t0
    assert elapsed6 < 60, f"n=6 enumeration took {elapsed6:.1f}s"
    detail = f"n=5 in {elapsed:.1f}s, n=6 in {elapsed6:.1f}s"
    _report(1, f"counting; {detail}")


def test_criterion_2_hopf_axioms():
    for n in (1, 2, 3):
        result = verify.verify_hopf(n)
        assert result["ok"], result
    result4 = verify.verify_hopf(4, samples=12)  # 256 compatibility cases per basis
    assert result4["ok"], result4
    _report(2, "Hopf axioms exhaustive n<=3, randomized n=4, all five bases")


def test_criterion_3_basis_round_trips():
    for n in range(5):
        g = co.standard_ground(n)
        for key in co.enumerate_compositions(g):
            for src, dst in (("M", "P"), ("P", "M"), ("M", "C"), ("C", "M"), ("H", "Q"), ("Q", "H")):
                x = hp.basis_vector(src, key)
                assert hp.change_basis(hp.change_basis(x, dst), src) == x
    _report(3, "basis round trips M<->P, M<->C, H<->Q on all keys, n<=4")


def test_criterion_4_duality():
    for n in (1, 2, 3):
        result = verify.verify_duality(n)
        assert result["ok"], result
    _report(4, "pairing adjunction and antipode self-duality, exhaustive n<=3")


def test_criterion_5_geometry_algebra_agreement():
    rnd = random.Random(55)
    for n in (2, 3, 4):
        g = co.standard_ground(n)
        for _ in range(8):
            p = random_preposet(g, rnd)
            q = random_preposet(g, rnd)
            assert braid.pointwise_product(braid.cone(p), braid.cone(q)) == braid.cone(
                pp.union(p, q)
            )
            assert braid.support_matches_cone(p)
    _report(5, "cone products match preposet unions; characteristic-function oracle")


def test_criterion_6_adjoint_duality():
    for n in (1, 2, 3, 4):
        g = co.standard_ground(n)
        chambers = arr.enumerate_chambers(g)
        for f in co.enumerate_compositions(g):
            m = fn.m_functional(f)
            for ch in chambers:
                assert m.values[ch.signs] == fn.m_open_cone_value(f, ch), (f, ch.signs)
    _report(6, "m functionals equal the signed open-cone membership oracle, n<=4")


def test_criterion_7_steinmann():
    # relations hold on all composition cones for n <= 5, and on every
    # preposet cone at n = 4 (exhaustive: 355 preposets), random at n = 5
    for n in (2, 3, 4, 5):
        g = co.standard_ground(n)
        rels = fn.steinmann_relations(g)
        for f in co.enumerate_compositions(g):
            cf = fn.c_functional(pp.preposet_of(f))
            assert all(rel.apply(cf) == 0 for rel in rels)
    g4 = co.standard_ground(4)
    rels4 = fn.steinmann_relations(g4)
    for p in pp.all_preposets(g4):
        cf = fn.c_functional(p)
        assert all(rel.apply(cf) == 0 for rel in rels4)
    g5 = co.standard_ground(5)
    rels5 = fn.steinmann_relations(g5)
    rnd = random.Random(77)
    for _ in range(100):
        cf = fn.c_functional(random_preposet(g5, rnd, max_pairs=8))
        assert all(rel.apply(cf) == 0 for rel in rels5)

    # rank identity and kernel = span, n <= 5
    for n in (2, 3, 4, 5):
        result = verify.verify_steinmann(n, random_preposets=0)
        names = {c["name"]: c["ok"] for c in result["checks"]}
        assert names["rank-identity"], result
        assert names["kernel-equals-span"], result
    assert fn.stein_quotient_dim(co.standard_ground(3)) == 6
    assert fn.stein_quotient_dim(co.standard_ground(4)) == 26
    assert fn.stein_quotient_dim(co.standard_ground(5)) == zie.zie_dimension(5) == 150
    _report(7, "relations on all cones; rank(Stein) = chambers - dim of the Lie piece")


def test_criterion_8_lemma_theorem_suite():
    # derivative closed formula, exhaustive n <= 4
    for n in (2, 3, 4):
        g = co.standard_ground(n)
        splits = proper_splits(g)
        for f_comp in co.enumerate_compositions(g):
            f = fn.c_functional(pp.preposet_of(f_comp))
            for split in splits:
                assert fn.derivative(f, split) == fn.c_derivative_formula(f_comp, split)

    # commuting square with the Lie coalgebra cobracket: exhaustive n = 3,
    # randomized n = 4
    rnd = random.Random(88)
    for n, cases in ((3, None), (4, 6)):
        g = co.standard_ground(n)
        keys = zie.based_keys(g)
        instances = (
            [{k: rat(1)} for k in keys]
            if cases is None
            else [
                {k: rat(rnd.randint(-3, 3)) for k in keys} for _ in range(cases)
            ]
        )
        for coords in instances:
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

    # expansion round trips both ways on >= 100 random Steinmann functionals
    g4 = co.standard_ground(4)
    keys4 = zie.based_keys(g4)
    for i in range(100):
        coords = {k: rat(rnd.randint(-5, 5), rnd.randint(1, 4)) for k in keys4}
        f = fn.reconstruct(g4, coords)
        recovered = fn.comb_coefficients(f)
        assert {k: v for k, v in recovered.items() if v != 0} == {
            k: v for k, v in coords.items() if v != 0
        }
        assert fn.reconstruct(g4, recovered) == f
    _report(8, "derivative lemma n<=4; cobracket square; 100 expansion round trips n=4")


def test_criterion_9_dynkin():
    for n in (2, 3, 4):
        result = verify.verify_dynkin(n)
        assert result["ok"], result
    _report(9, "Dynkin = EGS expansion, primitive, and linear over the relations, n<=4")


def test_criterion_10_eulerian():
    for n in (2, 3, 4):
        g = co.standard_ground(n)
        e_series = hp.eulerian_series(g)
        for split in proper_splits(g):
            assert hp.comultiply(e_series, split).is_zero()

    for n in (1, 2, 3, 4, 5):
        g = co.standard_ground(n)
        e = fn.eulerian_element(g)  # raises if the system were inconsistent
        for key in zie.based_keys(g):
            expected = rat(1) if len(key) == 1 else rat(0)
            assert fn.evaluate(fn.p_functional(key), e) == expected

    uni = fn.uniform_eulerian_search(co.standard_ground(4), 24)
    assert uni is not None, "no 24-chamber uniform solution found"
    assert sorted(uni.weights.values()) == [rat(1, 24)] * 24
    for f in co.enumerate_compositions(co.standard_ground(4)):
        expected = rat(1) if len(f) == 1 else rat(0)
        assert fn.evaluate(fn.p_functional(f), uni) == expected
    _report(10, "Eulerian series primitive n<=4; system solvable n<=5; 1/24 uniform n=4")


def test_criterion_11_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli.main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    commands = [
        ("enumerate", "chambers", "--n", "4"),
        ("eulerian", "--n", "4"),
        ("steinmann", "relations", "--n", "4"),
        ("verify", "dynkin", "--n", "3"),
    ]
    for argv in commands:
        assert run(*argv) == run(*argv)

    # cache regeneration is byte-identical
    g = co.standard_ground(4)
    arr.clear_memo()
    arr.enumerate_chambers(g, cache_dir=tmp_path)
    path = arr._cache_path(tmp_path, g)
    blob = path.read_bytes()
    path.unlink()
    arr.clear_memo()
    arr.enumerate_chambers(g, cache_dir=tmp_path)
    assert path.read_bytes() == blob
    arr.clear_memo()

    with capsys.disabled():
        _report(11, "byte-identical JSON output and cache regeneration")
