"""Locate this checkout, import its package, and describe the environment.

The benchmark must measure the code of the checkout it sits in, never an
installed copy, so the import is refused unless ``padicspectral`` loads
from ``<checkout>/src``.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class WrongCheckout(RuntimeError):
    """padicspectral is missing or loads from outside this checkout's src/."""


def import_package():
    """Import padicspectral from <checkout>/src or raise WrongCheckout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module("padicspectral")
    except ImportError as e:
        raise WrongCheckout(f"padicspectral is not importable from {SRC}: {e}") from e
    path = Path(package.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise WrongCheckout(f"padicspectral loads from {path}, not from {SRC}")
    return package


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's src/ only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def git_sha() -> str | None:
    """HEAD commit read from .git without running git (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(package) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "package_path": str(Path(package.__file__).resolve()),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "platform": platform.platform(),
    }
