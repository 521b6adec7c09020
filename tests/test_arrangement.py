import hashlib
import json
import math
import os

import pytest

from steinmann import arrangement as arr
from steinmann import compositions as co
from steinmann import preposets as pp
from steinmann import ratgeom as rg
from steinmann.errors import ResourceBoundError
from steinmann.rat import rat_str


class TestHyperplanes:
    def test_count_and_orientation(self):
        for n in range(1, 6):
            g = co.standard_ground(n)
            splits = arr.hyperplane_splits(g)
            assert len(splits) == 2 ** (n - 1) - 1 if n > 0 else 0
            for tb in splits:
                assert g.min_label() in tb.S

    def test_deterministic_order(self):
        g = co.standard_ground(3)
        assert [tb.S for tb in arr.hyperplane_splits(g)] == [
            ("1",),
            ("1", "2"),
            ("1", "3"),
        ]


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 32)])
    def test_counts(self, n, count):
        g = co.standard_ground(n)
        assert arr.chamber_count(g) == count

    def test_witnesses_are_strict_and_consistent(self):
        g = co.standard_ground(4)
        splits = arr.hyperplane_splits(g)
        for ch in arr.enumerate_chambers(g):
            assert ch.witness.sums_to_zero()
            for s, tb in zip(ch.signs, splits):
                v = rg.pair(ch.witness, tb.weight_vector())
                assert v != 0 and (v > 0) == (s == "+")

    def test_signatures_totally_nonsymmetric(self):
        g = co.standard_ground(4)
        for ch in arr.enumerate_chambers(g):
            assert pp.classify(ch.signature())["totally_nonsymmetric"]

    def test_signature_matches_adjoint_signature_of_witness(self):
        g = co.standard_ground(3)
        for ch in arr.enumerate_chambers(g):
            assert pp.adjoint_signature(ch.witness) == ch.signature()

    def test_sorted_canonically(self):
        g = co.standard_ground(4)
        signs = [ch.signs for ch in arr.enumerate_chambers(g)]
        assert signs == sorted(signs)
        assert len(set(signs)) == len(signs)

    def test_resource_bound(self):
        with pytest.raises(ResourceBoundError):
            arr.enumerate_chambers(co.standard_ground(7))
        with pytest.raises(ResourceBoundError):
            arr.enumerate_chambers(co.standard_ground(5), max_n=4)

    def test_relabel_invariance_of_counts(self):
        assert arr.chamber_count(co.ground(["a", "b", "c", "d"])) == 32


class TestCache:
    def test_roundtrip_and_determinism(self, tmp_path):
        g = co.standard_ground(4)
        arr.clear_memo()
        first = arr.enumerate_chambers(g, cache_dir=tmp_path)
        path = arr._cache_path(tmp_path, g)
        assert path.exists()
        blob1 = path.read_bytes()
        header = json.loads(blob1.splitlines()[0])
        assert header["format"] == arr.CACHE_FORMAT and header["n"] == 4

        arr.clear_memo()
        second = arr.enumerate_chambers(g, cache_dir=tmp_path)  # read back
        assert [c.signs for c in first] == [c.signs for c in second]
        assert [c.witness.coords for c in first] == [c.witness.coords for c in second]

        os.unlink(path)
        arr.clear_memo()
        arr.enumerate_chambers(g, cache_dir=tmp_path)  # regenerate
        assert path.read_bytes() == blob1
        arr.clear_memo()

    def test_corrupt_cache_is_regenerated(self, tmp_path):
        g = co.standard_ground(4)
        arr.clear_memo()
        arr.enumerate_chambers(g, cache_dir=tmp_path)
        path = arr._cache_path(tmp_path, g)
        path.write_text('{"format": 999}\n')
        arr.clear_memo()
        chambers = arr.enumerate_chambers(g, cache_dir=tmp_path)
        assert len(chambers) == 32
        assert json.loads(path.read_text().splitlines()[0])["format"] == arr.CACHE_FORMAT
        arr.clear_memo()


    @pytest.mark.parametrize(
        "poison",
        ["truncated", "duplicated", "zero-denominator", "non-object", "non-integer", "json-number"],
    )
    def test_poisoned_cache_is_regenerated(self, tmp_path, poison):
        g = co.standard_ground(4)
        arr.clear_memo()
        arr.enumerate_chambers(g, cache_dir=tmp_path)
        path = arr._cache_path(tmp_path, g)
        lines = path.read_text().splitlines()
        if poison == "truncated":
            lines = lines[:-5]
        elif poison == "duplicated":
            lines.insert(3, lines[3])
        elif poison in ("zero-denominator", "non-integer", "json-number"):
            rec = json.loads(lines[3])
            rec["witness"][0] = {"zero-denominator": "1/0", "non-integer": "1/2"}.get(poison, 3)
            lines[3] = json.dumps(rec)
        else:
            lines[3] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        assert arr._read_cache(path, g) is None
        arr.clear_memo()
        assert arr.chamber_count(g, cache_dir=tmp_path) == 32
        assert len(arr._read_cache(path, g)) == 32
        arr.clear_memo()

    def test_chamber_index_is_memoized_beside_its_table(self):
        g = co.standard_ground(4)
        index = arr.chamber_index(g)
        assert arr.chamber_index(g) is index
        assert list(index) == [ch.signs for ch in arr.enumerate_chambers(g)]
        arr.clear_memo()
        rebuilt = arr.chamber_index(g)
        assert rebuilt is not index and rebuilt.keys() == index.keys()
        assert all(rebuilt[s] is ch for s, ch in zip(rebuilt, arr.enumerate_chambers(g)))

    def test_relabelled_grounds_share_one_file(self, tmp_path, monkeypatch):
        writes = []
        write = arr._write_cache
        monkeypatch.setattr(arr, "_write_cache", lambda *a: writes.append(a) or write(*a))
        tables = []
        for labels in (["1", "2", "3", "4"], ["1", "2", "3", "5"], ["1", "2", "3", "4"]):
            arr.clear_memo()
            tables.append(arr.enumerate_chambers(co.ground(labels), cache_dir=tmp_path))
        arr.clear_memo()
        assert len(writes) == 1
        assert tables[1][0].ground.labels == ("1", "2", "3", "5")
        assert [c.signs for c in tables[1]] == [c.signs for c in tables[0]]
        assert [c.witness.coords for c in tables[2]] == [c.witness.coords for c in tables[0]]


    def test_relabelled_ground_reuses_the_table_in_memory(self, tmp_path, monkeypatch):
        arr.clear_memo()
        arr.enumerate_chambers(co.standard_ground(4), cache_dir=tmp_path)  # writes the file
        arr.clear_memo()
        reads = []
        read = arr._read_cache
        monkeypatch.setattr(arr, "_read_cache", lambda *a: reads.append(a) or read(*a))
        grounds = [co.ground(["1", "2", "3", "4"]), co.ground(["1", "2", "3", "5"])]
        tables = [arr.enumerate_chambers(g, cache_dir=tmp_path) for g in grounds]
        index = arr.chamber_index(grounds[1])
        arr.clear_memo()
        assert len(reads) == 1
        for g, table in zip(grounds, tables):
            assert all(ch.ground == g and ch.witness.ground == g for ch in table)
        assert [c.signs for c in tables[1]] == [c.signs for c in tables[0]]
        assert [c.witness.coords for c in tables[1]] == [c.witness.coords for c in tables[0]]
        assert all(index[ch.signs] is ch for ch in tables[1])


def _bits(signs):
    return sum(1 << k for k, c in enumerate(signs) if c == "+")


class TestOrbitWalk:
    """The orbit walk against the plain sign-chamber walk, which it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_plain_walk(self, n):
        g = co.standard_ground(n)
        plain = arr.enumerate_sign_chambers(
            arr._reduced_functionals(g), n - 1, neighbor_ok=arr._pre_adjoint_neighbor_filter(g)
        )
        assert sorted(_bits(c.signs) for c in arr._enumerate_uncached(g)) == sorted(plain)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_witnesses_are_primitive_integer_vectors(self, n):
        g = co.standard_ground(n)
        splits = arr.hyperplane_splits(g)
        for ch in arr._enumerate_uncached(g):
            coords = ch.witness.coords
            assert all(v.denominator == 1 for v in coords)
            assert math.gcd(*(int(v) for v in coords)) == 1
            assert ch.witness.sums_to_zero()
            for s, tb in zip(ch.signs, splits):
                v = rg.pair(ch.witness, tb.weight_vector())
                assert v != 0 and (v > 0) == (s == "+")

    def test_n6_has_11292_strict_chambers(self):
        g = co.standard_ground(6)
        sides = [[g.position(x) for x in tb.S] for tb in arr.hyperplane_splits(g)]
        chambers = arr.enumerate_chambers(g)
        assert len({c.signs for c in chambers}) == len(chambers) == 11292
        for ch in chambers:
            x = ch.witness.coords
            assert sum(x) == 0
            for s, side in zip(ch.signs, sides):
                v = sum(x[i] for i in side)
                assert v != 0 and (v > 0) == (s == "+")
        # the table, witnesses included, as the Fraction-tableau simplex first found it
        table = json.dumps([(c.signs, [rat_str(v) for v in c.witness.coords]) for c in chambers])
        digest = hashlib.sha256(table.encode()).hexdigest()
        assert digest == "81d5284ea9ed427072edb1a5daa8c8e7c3125726b7af03200c4dbbe3d7e8af50"


class TestGenericCore:
    def test_one_dim(self):
        table = arr.enumerate_sign_chambers([(1,)], 1)
        assert set(table) == {0, 1}

    def test_line_arrangement(self):
        # three generic lines through the origin in the plane: 6 chambers
        table = arr.enumerate_sign_chambers([(1, 0), (0, 1), (1, 1)], 2)
        assert len(table) == 6

    def test_witness_signs(self):
        functionals = [(1, 0), (0, 1), (1, -1), (2, 1)]
        table = arr.enumerate_sign_chambers(functionals, 2)
        for bits, w in table.items():
            for k, f in enumerate(functionals):
                v = sum(a * b for a, b in zip(f, w))
                assert v != 0 and (v > 0) == bool((bits >> k) & 1)
