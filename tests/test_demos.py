"""Golden demo output: each demo prints exactly its stored stdout, and the
README's library example runs and holds what it claims.

Every demo runs as a subprocess against the package under test and its
stdout is compared byte for byte with ``fixtures/demos/<name>.out``.
Regenerate the fixtures only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_demos.py
"""

import os
import re
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


def test_readme_example_runs():
    # every python block of the README, run in turn in one namespace; the
    # example's two claims: the group law holds at (6, 26), and Stone
    # recovers A mod 5^31, one digit lost to the division by log(1+p)
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert blocks
    scope = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), scope)
    assert scope["group"].verify_group_law(6, 26).ok
    assert scope["recovered"].generator.congruent(scope["A"], 31)


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (FIXTURES / f"{demo.stem}.out").write_text(run_demo(demo))
