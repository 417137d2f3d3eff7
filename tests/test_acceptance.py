"""Acceptance suite: ten criteria, each printed as one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete (or ``-v`` for the per-test verdicts).  Sample counts that do
not pin a prime are split across p in {3, 5, 7}; every tolerance is
fixed here, none are calibrated at runtime.  Precision is 32 digits
throughout, and every comparison is at all 32 digits, less the one digit
that Stone recovery pays to the division by log(1+p); a result that
claims fewer digits than its comparison fails it.
"""

from random import Random

from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    Valuation,
    digit_truncation_error,
    pexp,
    plog,
    principal_power,
    stone_recover,
    zeta_of,
)
from oracle import oracle_power
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_group,
    sample_in_pzp,
    sample_padic,
    sample_principal_unit,
)
from padicspectral.spectral import certify_strongly_normal

PRIMES = [3, 5, 7]
PREC = 32
BUDGETS = {p: SeriesBudget(PREC) for p in PRIMES}


def _split(total):
    base, extra = divmod(total, len(PRIMES))
    return {p: base + (1 if i < extra else 0) for i, p in enumerate(PRIMES)}


def _agree(x, y, digits):
    """x == y mod p^digits, both claiming at least that many digits."""
    return min(x.prec, y.prec) >= digits and x.congruent(y, digits)


def _report(num, name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {name}")
    assert ok, f"criterion {num:02d} ({name}) failed"


def test_criterion_01_scalar_differential():
    """principal_power == binary-exponentiation oracle, exact mod p^32."""
    rng = Random(101)
    ok = True
    for p, count in _split(1000).items():
        b = BUDGETS[p]
        for _ in range(count):
            z = sample_in_pzp(rng, p, PREC)
            lam = rng.randrange(2**20)
            series = principal_power(z, PadicInt(lam, p, PREC), b)
            direct = oracle_power(1 + z.residue, lam, p, PREC)
            ok = ok and series.congruent(PadicInt(direct, p, PREC), PREC)
    _report(1, "scalar differential test, 1000 samples, exact mod p^32", ok)


def test_criterion_02_log_exp_inversion():
    """pexp(plog(u)) == u and plog(pexp(x)) == x mod p^32."""
    rng = Random(102)
    ok = True
    for p, count in _split(500).items():
        b = BUDGETS[p]
        ok = ok and plog(PadicInt(1 + p, p, PREC), b).valuation() == Valuation.exact(1)
        for _ in range(count):
            u = sample_principal_unit(rng, p, PREC)
            ok = ok and _agree(pexp(plog(u, b), b), u, PREC)
            x = sample_in_pzp(rng, p, PREC)
            ok = ok and _agree(plog(pexp(x, b), b), x, PREC)
    _report(2, "log/exp inversion, 500 samples, mod p^32", ok)


def test_criterion_03_zeta_roundtrip():
    """principal_power(p, zeta_of(s)) == s mod p^32."""
    rng = Random(103)
    ok = True
    for p, count in _split(500).items():
        b = BUDGETS[p]
        z = PadicInt(p, p, PREC)
        for _ in range(count):
            s = sample_principal_unit(rng, p, PREC)
            # zeta(s) has 31 digits, and (1+p)^zeta mod p^32 depends on
            # zeta mod p^31 only, so principal_power claims all 32 digits
            back = principal_power(z, zeta_of(s, b), b)
            ok = ok and _agree(back, s, PREC)
    _report(3, "zeta coordinate roundtrip, 500 samples, mod p^32", ok)


def test_criterion_04_spectral_algebra():
    """Idempotent suite and orthogonality identity, exact at cert precision."""
    rng = Random(104)
    ok = True
    for p, count in _split(100).items():
        for _ in range(count):
            n = rng.randrange(2, min(p, 5) + 1)
            a = sample_certifiable_matrix(rng, p, PREC, n)
            cert = certify_strongly_normal(a)
            d = cert.precision
            ident = PadicMatrix.identity(n, p, d)
            zero = PadicMatrix.diagonal([0] * n, p, d)
            total, recon = zero, zero
            for i, (lam, e) in enumerate(zip(cert.eigenvalues, cert.projectors)):
                ok = ok and (e @ e).congruent(e, d)
                ok = ok and e.op_norm() == Valuation.exact(0)
                for f in cert.projectors[i + 1 :]:
                    ok = ok and (e @ f).congruent(zero, d)
                total, recon = total + e, recon + lam * e
            ok = ok and total.congruent(ident, d)
            ok = ok and recon.congruent(a, d)
            for _ in range(100):
                vec = [sample_padic(rng, p, PREC) for _ in range(n)]
                ok = ok and cert.verify_orthogonality(vec)
    _report(4, "spectral algebra, 100 matrices x 100 vectors, exact", ok)


def test_criterion_05_group_law():
    """U(s1 s2) == U(s1) U(s2) mod p^32; U(1) = I exactly."""
    rng = Random(105)
    ok = True
    for p, count in _split(100).items():
        b = BUDGETS[p]
        for _ in range(count):
            n = rng.randrange(2, min(p, 4) + 1)
            g = sample_group(rng, p, PREC, n, b)
            u1 = g.evaluate(1).matrix
            ok = ok and u1 == PadicMatrix.identity(n, p, u1.prec)
            s1 = sample_principal_unit(rng, p, PREC)
            s2 = sample_principal_unit(rng, p, PREC)
            law = g.verify_group_law(s1, s2)
            ok = ok and law.ok and law.required == PREC
    _report(5, "group law, 100 random (A, s1, s2), mod p^32", ok)


def test_criterion_06_lipschitz_bound():
    """v(U(s1) - U(s2)) >= v(s1 - s2), zero violations."""
    rng = Random(106)
    violations = 0
    for p, count in _split(100).items():
        b = BUDGETS[p]
        for _ in range(count):
            n = rng.randrange(2, min(p, 4) + 1)
            g = sample_group(rng, p, PREC, n, b)
            s1 = sample_principal_unit(rng, p, PREC)
            s2 = sample_principal_unit(rng, p, PREC)
            if not g.lipschitz_check(s1, s2).ok:
                violations += 1
    _report(6, "Lipschitz bound, 100 pairs, zero violations", violations == 0)


def test_criterion_07_stone_roundtrip():
    """stone_recover(evaluate(A, 1+p)) == A mod p^31."""
    rng = Random(107)
    ok = True
    for p, count in _split(20).items():
        b = BUDGETS[p]
        for _ in range(count):
            n = rng.randrange(2, min(p, 4) + 1)
            g = sample_group(rng, p, PREC, n, b)
            u1p = g.evaluate(1 + p).matrix
            recovered = stone_recover(u1p, b).generator
            ok = ok and _agree(recovered, g.generator, PREC - 1)
    _report(7, "Stone roundtrip, 20 generators, mod p^31", ok)


def test_criterion_08_digit_convergence():
    """Digit-cut error valuation >= n + 2 at p = 5 for all n <= 25."""
    rng = Random(108)
    p = 5
    b = BUDGETS[p]
    ok = True
    assert digit_truncation_error(0, p) == 2  # bound constant at p = 5
    for _ in range(20):
        n_dim = rng.randrange(2, 5)
        g = sample_group(rng, p, PREC, n_dim, b)
        s = sample_principal_unit(rng, p, PREC)
        reference = g.evaluate(s).matrix
        for n, approx in enumerate(g.digit_limit_approxes(s, range(26))):
            err = (approx - reference).op_norm()
            ok = ok and err.value >= digit_truncation_error(n, p)
    _report(8, "digit-truncation convergence, p=5, error >= n+2 for n <= 25", ok)


def test_criterion_09_additivity():
    """W(z1 + z2) == W(z1) W(z2) mod p^32."""
    rng = Random(109)
    ok = True
    for p, count in _split(50).items():
        b = BUDGETS[p]
        for _ in range(count):
            n = rng.randrange(2, min(p, 4) + 1)
            g = sample_group(rng, p, PREC, n, b)
            z1 = sample_padic(rng, p, PREC)
            z2 = sample_padic(rng, p, PREC)
            lhs = g.additive_evaluate(z1 + z2).matrix
            rhs = g.additive_evaluate(z1).matrix @ g.additive_evaluate(z2).matrix
            ok = ok and _agree(lhs, rhs, PREC)
    _report(9, "additive representation, 50 pairs, mod p^32", ok)


def test_criterion_10_dual_path():
    """Spectral evaluation == operator Mahler series mod p^32."""
    rng = Random(110)
    ok = True
    for p, count in _split(50).items():
        b = BUDGETS[p]
        for _ in range(count):
            n = rng.randrange(2, min(p, 4) + 1)
            g = sample_group(rng, p, PREC, n, b)
            s = sample_principal_unit(rng, p, PREC)
            spectral = g.evaluate(s).matrix
            mahler = g.evaluate_mahler(s)
            ok = ok and _agree(spectral, mahler, PREC)
    _report(10, "dual-path agreement, 50 cases, mod p^32", ok)
