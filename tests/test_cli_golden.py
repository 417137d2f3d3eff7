"""Golden CLI output: every fixture command reproduces its stored stdout.

The fixtures under ``tests/fixtures/cli`` were written by
``make_golden.py`` there; a refactor or a speed-up must leave every
byte of them unchanged.
"""

import json
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli"
sys.path.insert(0, str(FIXTURES))

from make_golden import run_cli  # noqa: E402

MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())["commands"]


@pytest.mark.parametrize(
    "entry", MANIFEST, ids=[f"{e['case']}-{e['stdout'][:-4]}" for e in MANIFEST]
)
def test_cli_output_matches_golden(entry):
    case_dir = FIXTURES / entry["case"]
    code, stdout = run_cli(entry["argv"], case_dir)
    assert code == entry["exit"]
    assert stdout == (case_dir / entry["stdout"]).read_text()
