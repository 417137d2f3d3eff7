"""Golden demo output: each demo prints exactly its stored stdout.

Every demo runs as a subprocess against the package under test and its
stdout is compared byte for byte with ``fixtures/demos/<name>.out``.
Regenerate the fixtures only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicspectral

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "demos"


def run_demo(demo: Path) -> str:
    """Stdout of one demo, importing the same package as these tests."""
    src = str(Path(padicspectral.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    assert run_demo(demo) == (FIXTURES / f"{demo.stem}.out").read_text()


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (FIXTURES / f"{demo.stem}.out").write_text(run_demo(demo))
