"""The repository's pytest settings report every failure they meet.

Every warning is an error there, so a warning raised while pytest itself
reports a failure would end the run with an INTERNALERROR and leave each
later test unrun and unreported.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

THREE_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_plain_fails():
    assert False


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # hypothesis's failure report imports libcst, whose import warns
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG)]
    run = subprocess.run(
        [sys.executable, *argv, "--rootdir", str(tmp_path), "test_three.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
    assert run.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
