"""The batch suites on the empty ground set, and on broken structure maps."""

import pytest

from steinmann import cli, hopf, verify


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suites_ok_at_n0(suite):
    result = verify.SUITES[suite](0)
    assert result["ok"], result


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_cli_suites_ok_at_n0(capsys, suite):
    assert cli.main(["verify", suite, "--n", "0"]) == 0
    assert capsys.readouterr().out.startswith('{"ok": true')


def unsigned_c_product(product):
    return lambda basis, f, g: product("M" if basis == "C" else basis, f, g)


def restricting_q_coproduct(coproduct):
    return lambda basis, key, s, t: coproduct("H" if basis == "Q" else basis, key, s, t)


@pytest.mark.parametrize(
    "name, mutate, basis",
    [("_key_product", unsigned_c_product, "C"), ("_key_coproduct", restricting_q_coproduct, "Q")],
    ids=["C-product-without-signs", "Q-coproduct-restricts"],
)
def test_hopf_suite_catches_a_broken_key_map(monkeypatch, name, mutate, basis):
    monkeypatch.setattr(hopf, name, mutate(getattr(hopf, name)))
    result = verify.verify_hopf(3)
    failed = {c["name"] for c in result["checks"] if not c["ok"]}
    assert not result["ok"]
    assert f"antipode-identity[{basis}]" in failed
    assert all(name.endswith(f"[{basis}]") for name in failed)


def test_duality_suite_catches_a_deconcatenating_h_coproduct(monkeypatch):
    coproduct = hopf._key_coproduct
    monkeypatch.setattr(
        hopf, "_key_coproduct", lambda basis, key, s, t: coproduct("M" if basis == "H" else basis, key, s, t)
    )
    result = verify.verify_duality(3)
    assert {c["name"] for c in result["checks"] if not c["ok"]} == {"pairing-adjunction"}
