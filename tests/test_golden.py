"""Replay the golden CLI corpus byte for byte.

``golden/cli_corpus.json`` holds argv lists and the exact stdout
``steinmann.cli.main`` printed for them.  It covers every element type the
CLI prints (M/P/C/H/Q elements, tensors, Lie and dual Lie elements, chamber
functionals and sums, functional tensors, relations, chambers), so a change
to the shared linear-combination code or to the JSON encoders that alters
any output shows up here.
"""

import json
import os
import subprocess
import sys
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


def _first(command, *needles):
    return next(
        c for c in CORPUS
        if c["argv"][: len(command)] == list(command) and all(n in " ".join(c["argv"]) for n in needles)
    )


# commands whose output gathers keys through dicts and sets of compositions
HASH_SEED_CASES = [
    _first(("verify", "hopf"), "--n 3"),
    _first(("comul",), '"basis": "M"'),
    _first(("mul",), '"basis": "C"', '"pairs"'),
    _first(("zie", "cobracket")),
]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_stdout_does_not_depend_on_the_hash_seed(seed):
    script = (
        "import json, sys\n"
        "from steinmann import cli\n"
        "sys.exit(max(cli.main(argv) for argv in json.load(sys.stdin)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps([c["argv"] for c in HASH_SEED_CASES]),
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "".join(c["stdout"] for c in HASH_SEED_CASES)
