import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinmann import compositions as co
from steinmann.errors import DomainError, GroundMismatchError


def brute_force_compositions(labels):
    """Independent oracle: surjections onto {1..k}, collected as lump tuples."""
    labels = tuple(labels)
    n = len(labels)
    found = set()
    if n == 0:
        return {()}
    for k in range(1, n + 1):
        for assign in itertools.product(range(k), repeat=n):
            if set(assign) != set(range(k)):
                continue
            lumps = tuple(
                tuple(sorted(l for l, a in zip(labels, assign) if a == j))
                for j in range(k)
            )
            found.add(lumps)
    return found


def c(labels, lumps):
    return co.composition(labels, lumps)


class TestEnumeration:
    def test_empty_ground(self):
        comps = co.enumerate_compositions(co.ground([]))
        assert len(comps) == 1 and comps[0].lumps == ()

    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75), (5, 541)])
    def test_ordered_bell_counts(self, n, count):
        assert co.ordered_bell(n) == count
        if n <= 4:
            g = co.standard_ground(n)
            assert len(co.enumerate_compositions(g)) == count

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        labels = tuple(str(i) for i in range(1, n + 1))
        got = {f.lumps for f in co.enumerate_compositions(co.ground(labels))}
        assert got == brute_force_compositions(labels)

    def test_deterministic_lexicographic_order(self):
        comps = co.enumerate_compositions(co.ground([1, 2]))
        assert [f.lumps for f in comps] == [((1,), (2,)), ((1, 2),), ((2,), (1,))]
        assert comps == sorted(comps, key=lambda f: f.lumps)

    def test_partitions(self):
        counts = [len(co.enumerate_partitions(co.standard_ground(n))) for n in range(5)]
        assert counts == [1, 1, 2, 5, 15]  # Bell numbers


class TestValidation:
    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            c([1, 2], [[1, 2], [2]])

    def test_rejects_empty_lump(self):
        with pytest.raises(DomainError):
            co.SetComposition(co.ground([1]), ((), (1,)))

    def test_rejects_partial_cover(self):
        with pytest.raises(DomainError):
            c([1, 2, 3], [[1], [2]])

    def test_rejects_mixed_label_types(self):
        with pytest.raises(DomainError):
            co.ground([1, "2"])


    # each constructor validates on every call, with the same messages as ever
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: co.ground(["1", "1"]), "ground labels must be distinct: ('1', '1')"),
            (lambda: co.ground([1, "2"]), "ground labels must be all strings or all integers"),
            (lambda: c([1, 2], [[1], [], [2]]), "compositions may not contain empty lumps"),
            (lambda: c([1, 2], [[1, 2], [2]]), "label 2 appears in two lumps"),
            (lambda: c([1, 2, 3], [[1], [2]]), "lumps must cover the ground set exactly"),
            (
                lambda: co.restrict(c([1, 2], [[1], [2]]), {1, 3}),
                "restriction labels must lie in the ground set",
            ),
            (lambda: co.ground([1, 2]).subset({1, 3}), "labels [3] not in ground set"),
            # True == 1 and hashes alike: a memo hit on the valid (1, 2) must not answer it
            (lambda: co.ground([1, 2]) and co.ground([True, 2]),
             "ground labels must be all strings or all integers"),
            (lambda: co.ground([1.0]), "ground labels must be all strings or all integers"),
            (lambda: co.SetComposition(co.ground([1, 2]), [[1], [1, 2]]), "label 1 appears in two lumps"),
            (lambda: co.SetComposition(co.ground([1]), [[1], []]), "compositions may not contain empty lumps"),
        ],
        ids=["duplicate", "mixed-kinds", "empty-lump", "repeated", "partial-cover",
             "restrict-foreign", "subset-foreign", "bool-after-int", "float",
             "list-lumps-repeated", "list-lumps-empty"],
    )
    def test_messages(self, build, message):
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                build()

    def test_subset_rejects_foreign_labels_after_the_memo_is_warm(self):
        g = co.ground(["a", "b", "c"])
        with pytest.raises(DomainError, match=re.escape("labels ['z'] not in ground set")):
            g.subset(["a", "z"])
        assert g.subset(["c", "a"]) is g.subset({"a", "c"})
        assert g.subset(["c", "a"]) == co.ground(["a", "c"])
        with pytest.raises(DomainError, match=re.escape("labels ['z'] not in ground set")):
            g.subset(["a", "z"])


class TestInterning:
    def test_unhashable_lumps_construct_unmemoized_and_equal_the_tuple_form(self):
        g = co.ground([1, 2, 3])
        before = co._intern_composition.cache_info().currsize
        f = co.SetComposition(g, [[2, 1], [3]])
        assert co._intern_composition.cache_info().currsize == before
        assert f == co.SetComposition(g, ((1, 2), (3,))) and f.lumps == ((1, 2), (3,))
        assert hash(f) == hash(co.SetComposition(g, ((1, 2), (3,))))

    def test_stored_hashes_are_the_field_tuple_hashes(self):
        g = co.ground(["b", "a", "c"])
        f = c(["a", "b", "c"], [["c"], ["b", "a"]])
        assert hash(g) == hash((("a", "b", "c"),))
        assert hash(f) == hash((f.ground, (("c",), ("a", "b"))))
        assert g.label_set == frozenset("abc")

    @pytest.mark.parametrize("name", ["labels", "label_set", "lumps", "ground", "other"])
    def test_immutable(self, name):
        value = c([1, 2], [[2], [1]])
        for obj in (value, value.ground):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)

    def test_equal_values_from_every_path_are_one_object(self):
        from steinmann import serialize

        g = co.standard_ground(4)
        target = c(["1", "3", "4"], [["3"], ["1", "4"]])
        built = [
            co.restrict(c(g, [["3"], ["2"], ["4", "1"]]), {"1", "3", "4"}),
            co.concat(c(["3"], [["3"]]), c(["1", "4"], [["4", "1"]])),
            next(f for f in co.enumerate_compositions(target.ground) if f.lumps == target.lumps),
            serialize.composition_from_json([["3"], ["4", "1"]]),
            co.SetComposition(co.ground(("4", "3", "1")), (("3",), ("4", "1"))),
        ]
        for f in built:
            assert f == target and hash(f) == hash(target) and f is target

    def test_labels_equal_to_ground_labels_are_stored_as_the_ground_labels(self):
        g = co.ground([1, 2])
        co._intern_composition.cache_clear()  # so the True form is built, not found
        for lumps in (((True,), (2,)), ((1,), (2,))):
            f = co.SetComposition(g, lumps)
            assert f == c([1, 2], [[1], [2]])
            assert all(type(x) is int for lump in f.lumps for x in lump)

    def test_copy_and_pickle_return_the_interned_value(self):
        import copy
        import pickle

        f = c(["a", "b"], [["b"], ["a"]])
        assert copy.deepcopy(f) is f and copy.copy(f.ground) is f.ground
        assert pickle.loads(pickle.dumps(f)) == f


class TestConcatRestrict:
    def test_concat_examples(self):
        assert co.concat(c([1, 2], [[1], [2]]), c([3], [[3]])) == c([1, 2, 3], [[1], [2], [3]])
        assert co.concat(c([], []), c([1, 2], [[1, 2]])) == c([1, 2], [[1, 2]])
        assert co.concat(c([1, 3], [[1, 3]]), c([2, 4], [[2], [4]])) == c(
            [1, 2, 3, 4], [[1, 3], [2], [4]]
        )

    def test_concat_rejects_overlap(self):
        with pytest.raises(GroundMismatchError):
            co.concat(c([1], [[1]]), c([1], [[1]]))

    def test_restrict_examples(self):
        assert co.restrict(c([1, 2, 3], [[1, 2], [3]]), {1, 2}) == c([1, 2], [[1, 2]])
        assert co.restrict(c([1, 2, 3], [[1, 2], [3]]), {1, 3}) == c([1, 3], [[1], [3]])
        assert co.restrict(c([1, 2, 3], [[1], [2], [3]]), set()) == c([], [])

    def test_restrict_rejects_foreign_labels(self):
        with pytest.raises(DomainError):
            co.restrict(c([1, 2], [[1], [2]]), {3})

    def test_restrict_concat_coherence(self):
        rnd = random.Random(11)
        g6 = list(range(1, 7))
        for _ in range(30):
            cut = rnd.randint(0, 6)
            left = g6[:cut]
            right = g6[cut:]
            f = rnd.choice(co.enumerate_compositions(co.ground(left)))
            g = rnd.choice(co.enumerate_compositions(co.ground(right)))
            s = set(rnd.sample(g6, rnd.randint(0, 6)))
            whole = co.restrict(co.concat(f, g), s)
            pieces = co.concat(
                co.restrict(f, s & set(left)), co.restrict(g, s & set(right))
            )
            assert whole == pieces


class TestOrder:
    def test_examples(self):
        F = c([1, 2, 3], [[1], [2], [3]])
        assert co.leq(c([1, 2, 3], [[1, 2, 3]]), F)
        assert co.leq(c([1, 2, 3], [[1, 2], [3]]), c([1, 2, 3], [[2], [1], [3]]))
        assert not co.leq(c([1, 2, 3], [[1, 3], [2]]), F)

    def test_partial_order(self):
        comps = co.enumerate_compositions(co.standard_ground(3))
        one_lump = c(["1", "2", "3"], [["1", "2", "3"]])
        for f in comps:
            assert co.leq(f, f)
            assert co.leq(one_lump, f)
        for f in comps:
            for g in comps:
                if co.leq(f, g) and co.leq(g, f):
                    assert f == g
                for h in comps:
                    if co.leq(f, g) and co.leq(g, h):
                        assert co.leq(f, h)

    def test_coarser_finer_consistency(self):
        comps = co.enumerate_compositions(co.standard_ground(4))
        for f in random.Random(3).sample(comps, 10):
            coarser = set(co.coarser_compositions(f))
            assert coarser == {g for g in comps if co.leq(g, f)}
            finer = set(co.finer_compositions(f))
            assert finer == {g for g in comps if co.leq(f, g)}

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatchError):
            co.leq(c([1], [[1]]), c([2], [[2]]))


class TestQuotientFactors:
    def test_examples(self):
        F = c([1, 2, 3], [[1], [2], [3]])
        assert co.quotient_factors(F, c([1, 2, 3], [[1, 2], [3]])) == (2, 2)
        assert co.quotient_factors(F, F) == (1, 1)
        assert co.quotient_factors(F, c([1, 2, 3], [[1, 2, 3]])) == (3, 6)

    def test_formula_oracle(self):
        from math import factorial

        comps = co.enumerate_compositions(co.standard_ground(4))
        rnd = random.Random(5)
        for f in rnd.sample(comps, 12):
            for g in co.coarser_compositions(f):
                l_val, fact_val = co.quotient_factors(f, g)
                counts = [len(co.restrict(f, lump)) for lump in g.lumps]
                assert l_val == prod(counts)
                assert fact_val == prod(factorial(k) for k in counts)

    def test_requires_comparable(self):
        with pytest.raises(DomainError):
            co.quotient_factors(c([1, 2], [[1], [2]]), c([1, 2], [[2], [1]]))


def prod(it):
    out = 1
    for x in it:
        out *= x
    return out


class TestOppositeRelabel:
    def test_opposite(self):
        assert co.opposite(c([1, 2, 3], [[1], [2, 3]])) == c([1, 2, 3], [[2, 3], [1]])
        for f in co.enumerate_compositions(co.standard_ground(3)):
            assert co.opposite(co.opposite(f)) == f

    def test_relabel_example(self):
        f = c([1, 2], [[1], [2]])
        assert co.relabel(f, {"a": 1, "b": 2}) == c(["a", "b"], [["a"], ["b"]])

    def test_relabel_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            co.relabel(c([1, 2], [[1], [2]]), {"a": 1, "b": 1})

    def test_relabel_composes_functorially(self):
        f = c([1, 2, 3], [[1, 3], [2]])
        sigma = {"a": 1, "b": 2, "c": 3}  # letters over numbers
        tau = {"x": "a", "y": "b", "z": "c"}  # coords over letters
        composite = {new: sigma[old] for new, old in tau.items()}
        assert co.relabel(f, composite) == co.relabel(co.relabel(f, sigma), tau)

    @given(st.permutations(["a", "b", "c", "d"]))
    @settings(max_examples=24, deadline=None)
    def test_relabel_functorial_and_equivariant(self, perm):
        old = co.ground([1, 2, 3, 4])
        mapping = dict(zip(perm, old.labels))
        comps = co.enumerate_compositions(old)
        rnd = random.Random(hash(tuple(perm)) & 0xFFFF)
        f = rnd.choice(comps)
        g = rnd.choice(comps)
        rf, rg = co.relabel(f, mapping), co.relabel(g, mapping)
        # order and restriction commute with relabeling
        assert co.leq(rg, rf) == co.leq(g, f)
        s = set(rnd.sample(old.labels, 2))
        rs = {new for new, o in mapping.items() if o in s}
        assert co.relabel(co.restrict(f, s), {n: o for n, o in mapping.items() if o in s}) == co.restrict(rf, rs)
        assert co.relabel(co.opposite(f), mapping) == co.opposite(rf)
