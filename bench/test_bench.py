"""Tests of the benchmark itself: checkers, tracer hygiene, smoke runs.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from random import Random
from types import SimpleNamespace

import pytest

import run
import tracer
import workloads
from checkout import ROOT
from padicspectral import GroupCheck, PadicMatrix, Valuation, spectral
from workloads import WORKLOADS, Context, check_certificate, congruent, make_case

P, PREC, N = 5, 16, 3


@pytest.fixture
def case():
    return make_case(Random(7), P, PREC, N)


def _edited(cert, **changes):
    """The certificate's public surface, with some of it replaced."""
    surface = {
        "eigenvalues": cert.eigenvalues,
        "precision": cert.precision,
        "spectral_measure": cert.spectral_measure,
    }
    return SimpleNamespace(**{**surface, **changes})


def test_certificate_check_rejects_corruption(case):
    cert = spectral.certify_strongly_normal(case.a)
    eigen = list(cert.eigenvalues)
    bump = PadicMatrix([[P ** (PREC - 1) if (r, c) == (0, 2) else 0 for c in range(N)] for r in range(N)], P, PREC)
    assert check_certificate(case, cert)
    assert check_certificate(case, _edited(cert))
    assert not check_certificate(case, _edited(cert, eigenvalues=[eigen[0] + P**3, *eigen[1:]]))
    assert not check_certificate(case, _edited(cert, eigenvalues=eigen[::-1]))
    assert not check_certificate(case, _edited(cert, eigenvalues=eigen[:-1]))
    assert not check_certificate(case, _edited(cert, precision=PREC - 1))

    def measure(subset):
        e = cert.spectral_measure(subset)
        return e + bump if list(subset) == [1] else e

    assert not check_certificate(case, _edited(cert, spectral_measure=measure))


def test_congruence_check_rejects_corruption(case):
    rows = [list(r) for r in case.a.rows()]
    assert congruent(rows, case.a.rows(), P, PREC, PREC - 2)
    rows[2][1] += P ** (PREC - 3)
    assert not congruent(rows, case.a.rows(), P, PREC, PREC - 2)
    assert congruent(rows, case.a.rows(), P, PREC, PREC - 3)
    assert not congruent(case.a.rows(), case.a.rows(), P, PREC - 3, PREC - 2)


def test_certify_large_check_rejects_other_results(tmp_path):
    workload = WORKLOADS["certify-large"]
    inputs = workload.make(Random(3), workload.smoke, tmp_path)
    cert0, stone0 = workload.op(Context(tmp_path), inputs, 0)[1]
    cert1, stone1 = workload.op(Context(tmp_path), inputs, 1)[1]
    assert workload.check(inputs, 0, (cert0, stone0))
    assert not workload.check(inputs, 0, (cert1, stone0))
    assert not workload.check(inputs, 0, (cert0, stone1))


def test_group_law_check_rejects_failed_law_and_wrong_stone(tmp_path):
    workload = WORKLOADS["group-law"]
    inputs = workload.make(Random(3), workload.smoke, tmp_path)
    law, recovered = workload.op(Context(tmp_path), inputs, 3)[1]
    assert workload.check(inputs, 3, (law, recovered))
    assert not workload.check(inputs, 3, (GroupCheck("group-law", Valuation.exact(2), 9), recovered))
    other = workload.op(Context(tmp_path), inputs, 7)[1][1]
    assert not workload.check(inputs, 3, (law, other))


def test_cli_check_rejects_each_corrupted_output(tmp_path):
    workload = WORKLOADS["cli-pipeline"]
    inputs = workload.make(Random(3), workload.smoke, tmp_path)
    mine = workload.op(Context(tmp_path), inputs, 0)[1]
    other = workload.op(Context(tmp_path), inputs, 1)[1]
    assert workload.check(inputs, 0, mine)
    for k in range(3):  # certificate, recovered group, U(s) of another op
        assert not workload.check(inputs, 0, mine[:k] + other[k : k + 1] + mine[k + 1 :])
    failed_law = json.dumps({**json.loads(mine[3]), "pass": False}).encode()
    assert not workload.check(inputs, 0, mine[:3] + (failed_law,))
    with pytest.raises(ValueError):
        workload.check(inputs, 0, mine[:3] + (b"not json",))


def test_failing_op_counts_and_does_not_stop(tmp_path):
    class Broken:
        def op(self, ctx, inputs, i):
            raise ZeroDivisionError

        def check(self, inputs, i, out):
            return True

    inputs = workloads.Inputs({}, [None, None])
    result = run.measure(Broken(), Context(tmp_path), inputs, seconds=10.0)
    assert result["attempted"] == 2 and result["failed"] == 2
    assert result["report"]["failed_ratio"][0] == 1.0


def _library_state():
    import padicspectral

    modules = {
        name: mod for name, mod in sys.modules.items() if name.startswith("padicspectral")
    }
    state = {}
    for name, mod in modules.items():
        for attr, value in vars(mod).items():
            state[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("padicspectral"):
                for cattr, cvalue in vars(value).items():
                    state[(name, attr, cattr)] = cvalue
    assert padicspectral.__name__ in modules
    return state


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_both_modes(name):
    workload = WORKLOADS[name]
    before = _library_state()
    plain = run.run(name, 5, 0.5, False, size=workload.smoke)
    traced = run.run(name, 5, 0.5, True, size=workload.smoke)
    after = _library_state()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before), "tracer left a wrapper behind"
    for result in (plain, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(plain["metrics"]) == {m for m, _, _ in run.END_TO_END}
    assert set(traced["metrics"]) == {m for m, _, _ in tracer.PER_LAYER}
    assert all(v > 0 for v, _ in plain["metrics"].values())


def test_traced_counts_repeat_exactly():
    size = WORKLOADS["group-law"].smoke
    first, second = (run.run("group-law", 9, 0.5, True, size=size)["metrics"] for _ in range(2))
    counts = [name for name, unit, _ in tracer.PER_LAYER if unit in ("count", "bytes")]
    assert first["core.padicint_new.calls"][0] > 0
    assert all(first[c] == second[c] for c in counts)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_refuses_without_checkout_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "group-law", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60, env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0 and proc.stdout == b""
