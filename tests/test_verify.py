"""The batch suites on the empty ground set."""

import pytest

from steinmann import cli, verify


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_suites_ok_at_n0(suite):
    result = verify.SUITES[suite](0)
    assert result["ok"], result


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_cli_suites_ok_at_n0(capsys, suite):
    assert cli.main(["verify", suite, "--n", "0"]) == 0
    assert capsys.readouterr().out.startswith('{"ok": true')
