import json
import re

import pytest

from steinmann import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumeration:
    def test_chambers_count(self, capsys):
        code, out, _ = run(capsys, "chambers", "count", "--n", "4")
        assert code == 0
        assert json.loads(out) == {"n": 4, "chambers": 32}

    def test_enumerate_compositions(self, capsys):
        code, out, _ = run(capsys, "enumerate", "compositions", "--n", "2")
        doc = json.loads(out)
        assert doc["count"] == 3
        assert doc["compositions"] == [[["1"], ["2"]], [["1", "2"]], [["2"], ["1"]]]

    def test_enumerate_partitions(self, capsys):
        code, out, _ = run(capsys, "enumerate", "partitions", "--n", "3")
        assert json.loads(out)["count"] == 5

    def test_enumerate_chambers(self, capsys):
        code, out, _ = run(capsys, "enumerate", "chambers", "--n", "3")
        doc = json.loads(out)
        assert doc["count"] == 6
        assert doc["hyperplanes"] == [["1"], ["1", "2"], ["1", "3"]]

    def test_custom_ground(self, capsys):
        code, out, _ = run(capsys, "chambers", "count", "--ground", "a,b,c")
        assert json.loads(out) == {"n": 3, "chambers": 6}


M1 = '{"ground":["1"],"basis":"M","terms":[{"key":[["1"]],"coeff":"1"}]}'
M2 = '{"ground":["2"],"basis":"M","terms":[{"key":[["2"]],"coeff":"1"}]}'
M12 = '{"ground":["1","2"],"basis":"M","terms":[{"key":[["1"],["2"]],"coeff":"1"}]}'
H12 = '{"ground":["1","2"],"basis":"H","terms":[{"key":[["1"],["2"]],"coeff":"1"}]}'


class TestAlgebra:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "mul", "--a", M1, "--b", M2)
        doc = json.loads(out)
        assert code == 0 and len(doc["terms"]) == 3

    def test_comul(self, capsys):
        code, out, _ = run(capsys, "comul", "--x", M12, "--split", "1;2")
        doc = json.loads(out)
        assert doc["terms"] == [{"left": [["1"]], "right": [["2"]], "coeff": "1"}]

    def test_antipode(self, capsys):
        code, out, _ = run(capsys, "antipode", "--x", M12)
        doc = json.loads(out)
        keys = {tuple(tuple(l) for l in t["key"]) for t in doc["terms"]}
        assert keys == {(("2",), ("1",)), (("1", "2"),)}

    def test_pair(self, capsys):
        code, out, _ = run(capsys, "pair", "--a", M12, "--b", H12)
        assert json.loads(out) == {"value": "1"}

    def test_basis(self, capsys):
        code, out, _ = run(capsys, "basis", "--x", M12.replace('"M"', '"P"'), "--to", "M")
        doc = json.loads(out)
        assert {t["coeff"] for t in doc["terms"]} == {"1", "1/2"}

    def test_tits_compositions(self, capsys):
        code, out, _ = run(capsys, "tits", "--f", '[["1","2"],["3"]]', "--g", '[["3"],["1","2"]]')
        assert json.loads(out) == [["1", "2"], ["3"]]

    def test_cone(self, capsys):
        code, out, _ = run(capsys, "cone", "--preposet", '{"ground":["1","2"],"pairs":[]}')
        doc = json.loads(out)
        assert len(doc["expansion"]["terms"]) == 3
        assert len(doc["monomial"]["terms"]) == 3


class TestZieCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "zie", "reduce", "--tree", '[["1"],[["2"],["3"]]]')
        doc = json.loads(out)
        assert doc["terms"] == [
            {"key": [["1"], ["2"], ["3"]], "coeff": "1"},
            {"key": [["1"], ["3"], ["2"]], "coeff": "-1"},
        ]

    def test_embed(self, capsys):
        zjson = '{"ground":["1","2"],"terms":[{"key":[["1"],["2"]],"coeff":"1"}]}'
        code, out, _ = run(capsys, "zie", "embed", "--x", zjson)
        doc = json.loads(out)
        assert doc["basis"] == "Q" and len(doc["terms"]) == 2

    def test_project(self, capsys):
        pjson = '{"ground":["1","2"],"basis":"P","terms":[{"key":[["2"],["1"]],"coeff":"1"}]}'
        code, out, _ = run(capsys, "zie", "project", "--x", pjson)
        doc = json.loads(out)
        assert doc["basis"] == "p"
        assert doc["terms"] == [{"key": [["1"], ["2"]], "coeff": "-1"}]

    def test_bracket(self, capsys):
        a = '{"ground":["1"],"terms":[{"key":[["1"]],"coeff":"1"}]}'
        b = '{"ground":["2"],"terms":[{"key":[["2"]],"coeff":"1"}]}'
        code, out, _ = run(capsys, "zie", "bracket", "--a", a, "--b", b)
        assert json.loads(out)["terms"] == [{"key": [["1"], ["2"]], "coeff": "1"}]

    def test_cobracket(self, capsys):
        d = '{"ground":["1","2"],"basis":"p","terms":[{"key":[["1"],["2"]],"coeff":"1"}]}'
        code, out, _ = run(capsys, "zie", "cobracket", "--x", d, "--split", "1;2")
        doc = json.loads(out)
        assert doc["terms"] == [{"left": [["1"]], "right": [["2"]], "coeff": "1"}]


class TestSteinmannCommands:
    def test_relations(self, capsys):
        code, out, _ = run(capsys, "steinmann", "relations", "--n", "4")
        doc = json.loads(out)
        assert doc["count"] == 6
        assert all(r["signs"] == [1, -1, -1, 1] for r in doc["relations"])

    def test_check_and_coords(self, capsys):
        f = '{"ground":["1","2"],"values":{"+":"1","-":"0"}}'
        code, out, _ = run(capsys, "steinmann", "check", "--f", f)
        assert json.loads(out) == {"steinmann": True}
        code, out, _ = run(capsys, "steinmann", "coords", "--f", f)
        doc = json.loads(out)
        assert doc["steinmann"] and doc["coords"] == [
            {"key": [["1"], ["2"]], "coeff": "1"},
            {"key": [["1", "2"]], "coeff": "0"},
        ]

    def test_derivative(self, capsys):
        f = '{"ground":["1","2"],"values":{"+":"1","-":"0"}}'
        code, out, _ = run(capsys, "derivative", "--f", f, "--split", "1;2")
        doc = json.loads(out)
        assert doc["values"] == [{"left": "", "right": "", "coeff": "1"}]

    def test_eulerian(self, capsys):
        code, out, _ = run(capsys, "eulerian", "--n", "2")
        assert json.loads(out)["weights"] == {"+": "1/2", "-": "1/2"}

    def test_dynkin(self, capsys):
        code, out, _ = run(capsys, "dynkin", "egs", "--n", "2", "--chamber", "+")
        doc = json.loads(out)
        assert doc["terms"] == [
            {"key": [["1", "2"]], "coeff": "1"},
            {"key": [["2"], ["1"]], "coeff": "-1"},
        ]
        code2, out2, _ = run(capsys, "dynkin", "mbasis", "--n", "2", "--chamber", "+")
        assert json.loads(out2) == doc

    def test_expand(self, capsys):
        f = '{"ground":["1","2"],"values":{"+":"1","-":"0"}}'
        code, out, _ = run(capsys, "expand", "--f", f)
        doc = json.loads(out)
        assert doc["coefficients"] == [
            {"key": [["1"], ["2"]], "coeff": "1"},
            {"key": [["1", "2"]], "coeff": "1/2"},
        ]
        assert doc["reconstruction"]["values"] == {"+": "1", "-": "0"}

    def test_verify(self, capsys):
        code, out, _ = run(capsys, "verify", "hopf", "--n", "2")
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True


class TestErrors:
    def test_malformed_json_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mul", "--a", "not json", "--b", M2)
        assert code == 2 and "malformed JSON" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("steinmann", "check", "--f", "{}"), "ground"),
            (("steinmann", "check", "--f", "[]"), "ground"),
            (("steinmann", "check", "--f", '{"ground":["1","2"],"values":{"+":"1/0"}}'), "values['+']"),
            (("mul", "--a", '{"ground":["1"]}', "--b", M2), "terms"),
            (("mul", "--a", M1.replace('"coeff":"1"', '"coeff":"x"'), "--b", M2), "terms[0].coeff"),
            (("mul", "--a", M1.replace('"coeff":"1"', '"coeff":"1/0"'), "--b", M2), "terms[0].coeff"),
            (("mul", "--a", M1.replace('[["1"]]', '"1"'), "--b", M2), "terms[0].key"),
            (("cone", "--preposet", "{}"), "ground"),
            (("tits", "--f", '[["1"]]', "--g", "5"), "composition"),
            (("tits", "--f", '[[{}]]', "--g", '[["1"]]'), "composition[0]"),
            (("cone", "--preposet", '{"ground":["1","2"],"pairs":[5]}'), "pairs[0]"),
            (("cone", "--preposet", '{"ground":["1","2"],"pairs":[["2","1"],["1","9"]]}'), "pairs[1]"),
            (("cone", "--preposet", '{"ground":["1","2"],"pairs":[["1","2","1"]]}'), "pairs[0]"),
            (("zie", "reduce", "--tree", "5"), "tree"),
            (("zie", "reduce", "--tree", '[["1"],[{}]]'), "tree[1]"),
            (("zie", "reduce", "--tree", '[[["1"],[]],["2"]]'), "tree[0][1]"),
        ],
        ids=["object-missing-ground", "array-not-object", "values-zero-denominator",
             "missing-terms", "coeff-not-rational", "coeff-zero-denominator",
             "key-not-a-composition", "preposet-missing-ground", "composition-not-an-array",
             "composition-lump-not-labels",
             "preposet-pair-not-an-array", "preposet-pair-off-ground", "preposet-pair-too-long",
             "tree-not-an-array", "tree-leaf-not-labels", "tree-empty-leaf"],
    )
    def test_wrong_shaped_json_is_usage_error(self, capsys, argv, field):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize(
        "decoder, data, field",
        [
            ("point_from_json", {"coords": ["1"]}, "ground"),
            ("point_from_json", {"ground": ["1", "2"], "coords": ["1"]}, "coords"),
            ("point_from_json", {"ground": ["1", "2"], "coords": ["1", 5]}, "coords[1]"),
            ("two_block_from_json", {"S": ["1"]}, "T"),
            ("two_block_from_json", {"S": "1", "T": ["2"]}, "S"),
            ("two_block_from_json", [["1"], ["2"]], "S"),
            ("partition_from_json", {"blocks": []}, "partition"),
            ("partition_from_json", [["1"], "2"], "partition[1]"),
            ("preposet_from_json", {"ground": ["1", "2"], "pairs": [[None, "1"]]}, "pairs[0]"),
            ("tree_from_json", [["1"], ["2"], ["3"]], "tree"),
        ],
    )
    def test_decoders_name_the_field(self, decoder, data, field):
        from steinmann import serialize
        from steinmann.errors import UsageError

        with pytest.raises(UsageError, match=re.escape(repr(field))):
            getattr(serialize, decoder)(data)

    @pytest.mark.parametrize(
        "argv",
        [
            ("comul", "--x", M12),
            ("derivative", "--f", '{"ground":["1","2"],"values":{"+":"1","-":"0"}}'),
            ("zie", "cobracket", "--x", '{"ground":["1","2"],"basis":"p","terms":[]}'),
        ],
        ids=["comul", "derivative", "zie-cobracket"],
    )
    @pytest.mark.parametrize("split", ["1,1;2", "1;2,1"])
    def test_split_with_a_repeated_label_is_usage_error(self, capsys, argv, split):
        code, out, err = run(capsys, *argv, "--split", split)
        assert code == 2 and out == ""
        assert err == "error: split repeats label '1'\n"

    def test_domain_error(self, capsys):
        code, out, err = run(capsys, "mul", "--a", M1, "--b", M1)
        assert code == 1 and "disjoint" in err

    def test_unknown_chamber(self, capsys):
        code, out, err = run(capsys, "dynkin", "egs", "--n", "2", "--chamber", "++")
        assert code == 1

    def test_max_n_guard(self, capsys):
        code, out, err = run(capsys, "--max-n", "3", "chambers", "count", "--n", "4")
        assert code == 1
        # restore the default bound for other tests in this process
        from steinmann import arrangement as arr

        arr.set_max_n(arr.DEFAULT_MAX_N)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("enumerate", "compositions", "--n", "3"),
            ("enumerate", "chambers", "--n", "4"),
            ("eulerian", "--n", "3"),
            ("steinmann", "relations", "--n", "4"),
            ("dynkin", "egs", "--n", "3", "--chamber", "+++"),
        ],
    )
    def test_byte_identical_output(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
