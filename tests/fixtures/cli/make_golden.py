"""Write the golden CLI fixtures: inputs, expected stdout and exit codes.

Run from the repository root with the package importable:

    PYTHONPATH=src python3 tests/fixtures/cli/make_golden.py

Each case is a certifiable matrix A from ``sample_certifiable_matrix``
with a fixed seed, its group bundle under the budget of target prec, and
U(1+p) as the input of ``stone``.  The zero case runs ``stone`` on the
identity, whose V = 0 gets the zero certificate: one eigenvalue that owns
every column of S.  Its ``bundle.json`` is written as versions before the
three-field certificate wrote it, with ``"multiplicities": [n]``, so that
``group-eval`` and ``check-law`` read an older file.  The ``refusals``
case holds one small matrix for each refusal that residue eigenanalysis
decides: a scalar reduction, a residue characteristic polynomial that
does not split over F_p, and a repeated residue eigenvalue.  ``manifest.json``
lists every command line with the exit code and the stdout file it must
reproduce byte for byte.  Regenerate only when a change of output is
intended, and say so in the change log: ``tests/test_cli_golden.py``
exists to catch any other change, and checks that :func:`input_files`
still gives the committed inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from random import Random

from padicspectral import (
    OneParamGroup,
    PadicMatrix,
    SeriesBudget,
    certify_strongly_normal,
    stone_recover,
)
from padicspectral.cli import main
from padicspectral.sampling import sample_certifiable_matrix

HERE = Path(__file__).resolve().parent

# (p, prec, n, seed)
CASES = [(5, 32, 3, 11), (13, 64, 6, 12), (7, 24, 2, 13)]

# (p, prec, n) of the zero case: stone on I_n
ZERO = (5, 32, 3)

SAMPLED_CASES = [f"p{p}_prec{prec}_n{n}" for p, prec, n, _ in CASES]
ZERO_CASE = "zero_p{}_prec{}_n{}".format(*ZERO)

# (name, entries, p): certify must refuse each one with exit 2
REFUSALS = [
    ("scalar", [[3, 0], [0, 3]], 7),  # DegenerateReduction
    ("nonsplit", [[1, 2], [3, 4]], 5),  # x^2 - 2 mod 5: ResidueEigenvalueDeficit
    ("repeated", [[0, 1], [1, 1]], 5),  # double root 3: RepeatedResidueEigenvalue
]
REFUSAL_PREC = 8


def _commands(p: int, prec: int) -> dict:
    s = str(1 + p * 12345)
    flags = ["--prec", str(prec)]
    return {
        "certify": flags + ["certify", "matrix.json"],
        "stone": flags + ["stone", "unitary.json"],
        "group-eval-bundle": flags + ["group-eval", "bundle.json", "--s", s],
        "group-eval-matrix": flags + ["group-eval", "matrix.json", "--s", s],
        "check-law": flags + ["check-law", "bundle.json", "--samples", "3"],
        "lipschitz": flags + ["lipschitz", "bundle.json", "--samples", "3"],
        "additive": flags + ["additive", "bundle.json", "--z", "3"],
        "converge": flags + ["converge", "bundle.json", "--s", s, "--max-n", "4"],
    }


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_cli(argv: list[str], case_dir: Path) -> tuple[int, str]:
    """Run the CLI in-process on files of ``case_dir``; return (exit, stdout)."""
    resolved = [str(case_dir / a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(resolved)
    return code, out.getvalue()


def _record(manifest: list, case: str, commands: dict) -> None:
    """Run each command line on the files of ``case``, write its stdout to
    ``<command>.out`` there and list it in the manifest."""
    for command, argv in commands.items():
        code, stdout = run_cli(argv, HERE / case)
        (HERE / case / f"{command}.out").write_text(stdout)
        manifest.append({"case": case, "argv": argv, "exit": code, "stdout": f"{command}.out"})


def input_files() -> dict[str, str]:
    """The text of every input file, by its path under this directory:
    each sampled case's matrix, bundle and U(1+p), the zero case's identity
    and older-schema bundle, and the refusal inputs."""
    files = {}
    for name, (p, prec, n, seed) in zip(SAMPLED_CASES, CASES):
        a = sample_certifiable_matrix(Random(seed), p, prec, n)
        group = OneParamGroup(certify_strongly_normal(a), SeriesBudget(prec))
        files[f"{name}/matrix.json"] = _text(a.to_dict())
        files[f"{name}/bundle.json"] = _text(group.to_dict())
        files[f"{name}/unitary.json"] = _text(group.evaluate(1 + p).matrix.to_dict())
    p, prec, n = ZERO
    ident = PadicMatrix.identity(n, p, prec)
    bundle = stone_recover(ident, SeriesBudget(prec)).to_dict()
    bundle["certificate"]["multiplicities"] = [n]
    files[f"{ZERO_CASE}/unitary.json"] = _text(ident.to_dict())
    files[f"{ZERO_CASE}/bundle.json"] = _text(bundle)
    for name, entries, p in REFUSALS:
        files[f"refusals/{name}.json"] = _text(PadicMatrix(entries, p, REFUSAL_PREC).to_dict())
    return files


def main_generate() -> None:
    for name, text in input_files().items():
        (HERE / name).parent.mkdir(exist_ok=True)
        (HERE / name).write_text(text)
    manifest = []
    for name, (p, prec, _, _) in zip(SAMPLED_CASES, CASES):
        _record(manifest, name, _commands(p, prec))
    flags = ["--prec", str(ZERO[1])]
    zero_commands = {
        "stone": flags + ["stone", "unitary.json"],
        "group-eval-bundle": flags + ["group-eval", "bundle.json", "--s", "6"],
        "check-law": flags + ["check-law", "bundle.json", "--samples", "2"],
    }
    _record(manifest, ZERO_CASE, zero_commands)
    refusal_commands = {
        f"certify-{name}": ["--prec", str(REFUSAL_PREC), "certify", f"{name}.json"]
        for name, _, _ in REFUSALS
    }
    _record(manifest, "refusals", refusal_commands)
    (HERE / "manifest.json").write_text(_text({"commands": manifest}))


if __name__ == "__main__":
    main_generate()
