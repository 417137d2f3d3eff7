"""The benchmark workloads: seeded inputs, one timed op, independent checks.

Every input is built as A = S D S^-1 with D = diag(d) and S from
``sampling.sample_invertible_matrix``, so the right answers are known
from the construction, never from the code under test:

- the certified eigenvalues are d, sorted by residue, and the projectors
  are S e_j e_j^T S^-1, both exact at the certificate's precision;
- U(s) = S diag(s^d_j) S^-1, computed here with ``pow`` on integers,
  within p^(prec - guard) (the group-law tolerance of the acceptance
  suite);
- the Stone roundtrip gives back A within p^(prec - guard - 1), the
  tolerance of acceptance criterion 07.

No two ops of a run share a matrix to certify, an s or (s1, s2), or a
U(1+p), so a result cache could not show a gain here that real inputs
would not give it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

# Entry points are called through their modules (spectral.x, groups.x) so
# that the tracer, which patches the package's module bindings, sees them.
from padicspectral import (
    OneParamGroup,
    PadicMatrix,
    SeriesBudget,
    StrongNormalCertificate,
    groups,
    spectral,
)
from padicspectral.sampling import sample_invertible_matrix, sample_principal_unit

import checkout

CLI_TIMEOUT_S = 60
LAUNCHER = Path(__file__).resolve().parent / "trace_cli.py"


@dataclass(frozen=True)
class Size:
    primes: tuple[int, ...]
    prec: int
    n: int
    pool: int  # inputs made during set-up: the most ops one run can do


@dataclass(frozen=True)
class Case:
    """A = S D S^-1; the expected results follow from S, S^-1 and d."""

    a: PadicMatrix
    s: tuple
    s_inv: tuple
    d: tuple[int, ...]

    @property
    def p(self) -> int:
        return self.a.p

    def conjugate(self, values) -> list[list[int]]:
        """S diag(values) S^-1 mod p^prec, in plain integers."""
        mod = self.a.modulus
        n = len(values)
        scaled = [[self.s[r][j] * values[j] for j in range(n)] for r in range(n)]
        cols = list(zip(*self.s_inv))
        return [[sum(x * y for x, y in zip(row, col)) % mod for col in cols] for row in scaled]

    def u1p(self) -> PadicMatrix:
        """U(1+p) = (1+p)^A by integer powers on the eigenvalues."""
        p, prec, mod = self.p, self.a.prec, self.a.modulus
        return PadicMatrix(self.conjugate([pow(1 + p, x, mod) for x in self.d]), p, prec)


def make_case(rng: Random, p: int, prec: int, n: int) -> Case:
    residues = rng.sample(range(p), n)
    d = tuple(r + p * rng.randrange(p ** (prec - 1)) for r in residues)
    s = sample_invertible_matrix(rng, p, prec, n)
    s_inv = s.inverse()
    a = s @ PadicMatrix.diagonal(d, p, prec) @ s_inv
    return Case(a, s.rows(), s_inv.rows(), d)


# -- checks: plain integers in, bool out ------------------------------------


def check_certificate(case: Case, cert) -> bool:
    """Eigenvalues equal d and each E({k}) equals S e_j e_j^T S^-1, exactly.

    Only the certificate's public surface is used (eigenvalues, precision,
    spectral_measure), so a change of its stored form does not break this.
    """
    p, n = case.p, len(case.d)
    prec = cert.precision
    eigenvalues = [e.residue for e in cert.eigenvalues]
    if prec < case.a.prec or len(eigenvalues) != n:
        return False
    mod = p**prec
    order = sorted(range(n), key=lambda j: case.d[j] % p)
    if [x % mod for x in eigenvalues] != [case.d[j] % mod for j in order]:
        return False
    for k, j in enumerate(order):
        e = cert.spectral_measure([k]).rows()
        for r in range(n):
            for c in range(n):
                if (e[r][c] - case.s[r][j] * case.s_inv[j][c]) % mod:
                    return False
    return True


def congruent(rows, expected, p: int, prec: int, digits: int) -> bool:
    """rows == expected mod p^digits, and rows claim at least that many digits."""
    if prec < digits or len(rows) != len(expected):
        return False
    mod = p**digits
    return all(
        len(r) == len(e) and all((x - y) % mod == 0 for x, y in zip(r, e))
        for r, e in zip(rows, expected)
    )


def stone_tolerance(budget: SeriesBudget) -> int:
    return budget.target - budget.guard - 1


def law_tolerance(budget: SeriesBudget) -> int:
    return budget.target - budget.guard


# -- workloads ----------------------------------------------------------------


@dataclass
class Inputs:
    """Everything set-up makes: one entry of ``items`` per op."""

    budgets: dict
    items: list
    shared: list = field(default_factory=list)


@dataclass
class Context:
    workdir: Path
    tracer: object = None  # a tracer.Tracer during the traced pass


def _budgets(size: Size) -> dict:
    return {p: SeriesBudget.auto(size.prec, p) for p in size.primes}


def _prime(size: Size, i: int) -> int:
    return size.primes[i % len(size.primes)]


class CertifyLarge:
    """certify, evaluate U(1+p), recover the generator: linalg and spectral."""

    name = "certify-large"
    size = Size((31,), 128, 16, pool=48)
    warm = Size((31,), 16, 4, pool=1)
    smoke = Size((5,), 16, 3, pool=3)
    trace_ops = 3

    def make(self, rng: Random, size: Size, workdir: Path) -> Inputs:
        cases = [make_case(rng, _prime(size, i), size.prec, size.n) for i in range(size.pool)]
        return Inputs(_budgets(size), cases)

    def op(self, ctx: Context, inputs: Inputs, i: int):
        case = inputs.items[i]
        budget = inputs.budgets[case.p]
        t0 = perf_counter()
        cert = spectral.certify_strongly_normal(case.a)
        t1 = perf_counter()
        u = OneParamGroup(cert, budget).evaluate(1 + case.p)
        t2 = perf_counter()
        recovered = groups.stone_recover(u.matrix, budget)
        t3 = perf_counter()
        return {"certify_s": t1 - t0, "stone_s": t3 - t2}, (cert, recovered)

    def check(self, inputs: Inputs, i: int, out) -> bool:
        case = inputs.items[i]
        cert, recovered = out
        g = recovered.generator
        return check_certificate(case, cert) and congruent(
            g.rows(), case.a.rows(), case.p, g.prec, stone_tolerance(inputs.budgets[case.p])
        )


class GroupLaw:
    """U(s1 s2) = U(s1) U(s2) on small generators: the scalar series and core."""

    name = "group-law"
    size = Size((5, 7, 11), 128, 4, pool=2400)
    warm = Size((5, 7, 11), 128, 4, pool=4)
    smoke = Size((5,), 16, 3, pool=8)
    trace_ops = 80
    generators_per_prime = 4
    stone_every = 4

    def make(self, rng: Random, size: Size, workdir: Path) -> Inputs:
        budgets = _budgets(size)
        gens = []
        for i in range(self.generators_per_prime * len(size.primes)):
            case = make_case(rng, _prime(size, i), size.prec, size.n)
            gens.append(OneParamGroup(spectral.certify_strongly_normal(case.a), budgets[case.p]))
        items = []
        for i in range(size.pool):
            gi = i % len(gens)
            p = gens[gi].p
            s1 = sample_principal_unit(rng, p, size.prec)
            s2 = sample_principal_unit(rng, p, size.prec)
            stone = None
            if i % self.stone_every == self.stone_every - 1:
                case = make_case(rng, _prime(size, i // self.stone_every), size.prec, size.n)
                stone = (case, case.u1p())
            items.append((gi, s1, s2, stone))
        return Inputs(budgets, items, gens)

    def op(self, ctx: Context, inputs: Inputs, i: int):
        gi, s1, s2, stone = inputs.items[i]
        t0 = perf_counter()
        law = inputs.shared[gi].verify_group_law(s1, s2)
        t1 = perf_counter()
        stages = {"group_law_s": t1 - t0}
        recovered = None
        if stone is not None:
            case, u = stone
            recovered = groups.stone_recover(u, inputs.budgets[case.p])
            stages["stone_s"] = perf_counter() - t1
        return stages, (law, recovered)

    def check(self, inputs: Inputs, i: int, out) -> bool:
        law, recovered = out
        stone = inputs.items[i][3]
        if stone is None:
            return law.ok and recovered is None
        case = stone[0]
        g = recovered.generator
        return law.ok and congruent(
            g.rows(), case.a.rows(), case.p, g.prec, stone_tolerance(inputs.budgets[case.p])
        )


class CliFailure(RuntimeError):
    """A CLI subprocess exited non-zero."""


def run_cli(ctx: Context, args: list, infile: Path, op: int) -> tuple[bytes, float]:
    """One CLI subprocess; returns its stdout and wall time.

    Untraced it is ``python -m padicspectral.cli``; traced it goes through
    trace_cli.py, whose spans and counts are merged into ctx.tracer.
    """
    spans = ctx.workdir / "spans.json"
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "padicspectral.cli", *args]
    else:
        spans.unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCHER), str(spans), str(op), *args]
    start = perf_counter()
    proc = subprocess.run(
        cmd,
        cwd=checkout.ROOT,
        env=checkout.subprocess_env(),
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    wall = perf_counter() - start
    if ctx.tracer is not None:
        if spans.exists():
            ctx.tracer.merge(json.loads(spans.read_text()))
        ctx.tracer.counts["cli.json_in_bytes"] += infile.stat().st_size
        ctx.tracer.counts["cli.json_out_bytes"] += len(proc.stdout)
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise CliFailure(f"{args[-2:]} exited {proc.returncode}: {tail}")
    return proc.stdout, wall


class CliPipeline:
    """certify, stone, group-eval, check-law as subprocesses on JSON files."""

    name = "cli-pipeline"
    size = Size((13,), 64, 12, pool=96)
    warm = Size((13,), 64, 3, pool=1)
    smoke = Size((5,), 16, 3, pool=2)
    trace_ops = 6
    law_samples = 2

    def make(self, rng: Random, size: Size, workdir: Path) -> Inputs:
        items = []
        for i in range(size.pool):
            case = make_case(rng, _prime(size, i), size.prec, size.n)
            s = sample_principal_unit(rng, case.p, size.prec).residue
            law_seed = rng.randrange(2**31)
            a_path, u_path = workdir / f"a{i}.json", workdir / f"u{i}.json"
            a_path.write_text(json.dumps(case.a.to_dict()))
            u_path.write_text(json.dumps(case.u1p().to_dict()))
            items.append((case, s, law_seed, a_path, u_path))
        return Inputs(_budgets(size), items)

    def op(self, ctx: Context, inputs: Inputs, i: int):
        case, s, law_seed, a_path, u_path = inputs.items[i]
        budget = inputs.budgets[case.p]
        flags = ["--p", str(case.p), "--prec", str(budget.target)]
        stages = {}
        certified, stages["cli_certify_s"] = run_cli(ctx, [*flags, "certify", str(a_path)], a_path, i)
        # group-eval needs a bundle: the certificate that certify printed plus the budget
        bundle = ctx.workdir / "bundle.json"
        cert = json.loads(certified)["certificate"]
        bundle.write_text(json.dumps({"certificate": cert, "budget": budget.to_dict()}))
        recovered, stages["cli_stone_s"] = run_cli(ctx, [*flags, "stone", str(u_path)], u_path, i)
        group = ctx.workdir / "recovered.json"
        group.write_bytes(recovered)
        evaluated, stages["cli_group_eval_s"] = run_cli(
            ctx, [*flags, "group-eval", str(bundle), "--s", str(s)], bundle, i
        )
        law, stages["cli_check_law_s"] = run_cli(
            ctx,
            [*flags, "--seed", str(law_seed), "check-law", str(group), "--samples", str(self.law_samples)],
            group,
            i,
        )
        stages["cert_bytes"] = len(certified)
        return stages, (cert, recovered, evaluated, law)

    def check(self, inputs: Inputs, i: int, out) -> bool:
        case, s, _, _, _ = inputs.items[i]
        cert, recovered, evaluated, law = out
        budget = inputs.budgets[case.p]
        p, mod = case.p, case.a.modulus
        # read back through from_dict, so the check survives a new file format
        stone = OneParamGroup.from_dict(json.loads(recovered)).generator
        u = PadicMatrix.from_dict(json.loads(evaluated)["matrix"])
        u_expected = case.conjugate([pow(s, x, mod) for x in case.d])
        law = json.loads(law)
        return (
            check_certificate(case, StrongNormalCertificate.from_dict(cert))
            and congruent(stone.rows(), case.a.rows(), p, stone.prec, stone_tolerance(budget))
            and congruent(u.rows(), u_expected, p, u.prec, law_tolerance(budget))
            and law.get("pass") is True
            and law.get("samples") == self.law_samples
        )


WORKLOADS = {w.name: w for w in (CertifyLarge(), GroupLaw(), CliPipeline())}
