"""Replay the golden CLI corpus byte for byte.

``golden/cli_corpus.json`` holds argv lists and the exact stdout
``steinmann.cli.main`` printed for them.  It covers every element type the
CLI prints (M/P/C/H/Q elements, tensors, Lie and dual Lie elements, chamber
functionals and sums, functional tensors, relations, chambers), so a change
to the shared linear-combination code or to the JSON encoders that alters
any output shows up here.
"""

import json
from pathlib import Path

import pytest

from steinmann import cli

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli_corpus.json").read_text())


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{i:02d}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(CORPUS)]
)
def test_golden_stdout(capsys, case):
    code = cli.main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == case["stdout"]
