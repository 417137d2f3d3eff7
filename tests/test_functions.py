"""Mahler coefficients, principal powers, log/exp, and the zeta coordinate."""

from math import isqrt
from operator import mul
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padicspectral import (
    OneParamGroup,
    PadicInt,
    SeriesBudget,
    additive_reparam,
    certify_strongly_normal,
    digit_truncation_error,
    mahler_coeff,
    pexp,
    plog,
    principal_power,
    truncation_length,
    zeta_of,
)
from padicspectral.core import MAX_PREC
from padicspectral.errors import (
    InsufficientPrecision,
    NotPrincipal,
    OutOfConvergenceDomain,
    PrimeMismatch,
)
from padicspectral import functions
from padicspectral.functions import _power_residues, log_series
from oracle import oracle_power, oracle_series
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_in_pzp,
    sample_padic,
    sample_principal_unit,
)

PRIMES = [3, 5, 7]
BUDGETS = {p: SeriesBudget(32) for p in PRIMES}


def test_budget_is_a_target_only():
    # one field; a "guard" key of an older bundle is read and ignored
    b = SeriesBudget(32)
    assert b.to_dict() == {"target": 32}
    assert SeriesBudget.from_dict({"target": 32, "guard": 5}) == b
    with pytest.raises(TypeError):
        SeriesBudget(32, 5)
    with pytest.raises(ValueError):
        SeriesBudget(0)


def test_truncation_length_examples():
    b = SeriesBudget(32)
    assert truncation_length(1, b) == 32
    assert truncation_length(2, b) == 16
    assert truncation_length(3, b) == 11
    with pytest.raises(ValueError):
        truncation_length(0, b)


def test_mahler_examples():
    for p in PRIMES:
        for lam in (0, 1, 9, 3 * p + 1):
            assert mahler_coeff(0, PadicInt(lam, p, 16)) == PadicInt.one(p, 16)
    # P_3(7) = 7*6*5/3! = 35, exact rational arithmetic
    assert mahler_coeff(3, PadicInt(7, 5, 32)).residue == 35
    for n in range(1, 7):
        assert mahler_coeff(n, PadicInt.zero(5, 16)).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_mahler_matches_exact_binomial(p):
    # small integer arguments have exact integer binomials
    from math import comb

    for lam in range(0, 12):
        for n in range(0, 8):
            got = mahler_coeff(n, PadicInt(lam, p, 24))
            assert got.congruent(PadicInt(comb(lam, n), p, 24), got.prec)


def test_mahler_precision_is_lipschitz_honest():
    # P_9 is 3^2-Lipschitz on Z_3: 2 digits of lam determine none of P_9(lam)
    with pytest.raises(InsufficientPrecision):
        mahler_coeff(9, PadicInt(9, 3, 2))
    got = mahler_coeff(9, PadicInt(9, 3, 3))
    assert got.prec == 1 and got.residue == 1  # P_9(9) = 1
    # every claimed digit survives a change of lam beyond its precision
    rng = Random(321)
    for p in PRIMES:
        for n in (1, p - 1, p, p * p + 1, 40):
            lam = sample_padic(rng, p, 12)
            got = mahler_coeff(n, lam)
            assert got.prec == 12 - (len(_base_p_digits(n, p)) - 1)
            moved = PadicInt(lam.residue + p**12 * rng.randrange(1, p**6), p, 18)
            assert mahler_coeff(n, moved).congruent(got, got.prec)


def _base_p_digits(n, p):
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def test_principal_power_examples():
    b = BUDGETS[5]
    z = PadicInt(5, 5, 32)
    assert principal_power(z, PadicInt(2, 5, 32), b).congruent(
        PadicInt(36, 5, 32), 32
    )
    assert principal_power(z, PadicInt.zero(5, 32), b) == PadicInt.one(5, 32)
    assert principal_power(z, PadicInt(1, 5, 32), b).congruent(
        PadicInt(6, 5, 32), 32
    )
    with pytest.raises(NotPrincipal):
        principal_power(PadicInt(2, 5, 32), PadicInt(1, 5, 32), b)


@pytest.mark.parametrize("p", PRIMES)
def test_principal_power_vs_binary_exponentiation(p):
    # the PadicInt route against the integer oracle, exact at 32 digits
    b = BUDGETS[p]
    rng = Random(400 + p)
    for _ in range(60):
        z = sample_in_pzp(rng, p, 32)
        lam = rng.randrange(2**20)
        series = principal_power(z, PadicInt(lam, p, 32), b)
        direct = oracle_power(1 + z.residue, lam, p, 32)
        assert series.congruent(PadicInt(direct, p, 32), 32)
        # the int-exponent bypass takes the binary route and must agree too
        assert principal_power(z, lam, b).congruent(series, 32)


def _exponents(p):
    """Eigenvalues at mixed precisions, 0 and 1 among them, and integers."""
    residue = st.one_of(st.sampled_from([0, 1]), st.integers(0, p**90))
    padic = st.builds(
        lambda r, prec: PadicInt(r, p, prec), residue, st.integers(1, 90)
    )
    return st.one_of(padic, st.sampled_from([0, 1]), st.integers(0, 10**80))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([3, 5, 31, 65521]),
    zprec=st.integers(1, 80),
    target=st.integers(1, 90),
    n=st.sampled_from([0, 1, 4, 16]),
    data=st.data(),
)
def test_planned_powers_match_one_at_a_time(p, zprec, target, n, data):
    # each power against one builtin pow, in residue and in precision: an
    # exponent's digits fix the power to v(z) more digits than they number;
    # v(z) runs past prec z, so z = 0 at its precision comes up too
    v = data.draw(st.integers(1, zprec + 2))
    z = PadicInt(p**v * data.draw(st.integers(0, p**zprec)), p, zprec)
    vz = next(k for k in range(zprec + 1) if k == zprec or z.residue % p ** (k + 1))
    lams = data.draw(st.lists(_exponents(p), min_size=n, max_size=n))
    expected = []
    for lam in lams:
        if isinstance(lam, int):
            e, prec = lam, min(target, zprec)
        else:
            e, prec = lam.residue, min(target, zprec, lam.prec + vz)
        expected.append(PadicInt(pow(1 + z.residue, e, p**prec), p, prec))
    assert functions.PowerPlan(p, lams, SeriesBudget(target)).powers(z) == expected


def _pinned_jobs(p, m, n):
    """(p, z, jobs): v(z) = 1 and n exponents of every length, to m digits."""
    rng = Random(p * m + n)
    z = p * (1 + p * rng.randrange(p ** (m - 2)))
    return p, z, [(rng.randrange(p ** (m + 2)), m) for _ in range(n)]


@st.composite
def _power_jobs(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 31, 65521]))
    m = draw(st.integers(1, 160))
    # v >= m gives z = 0 mod p^m; v > 1 a shorter series
    v = draw(st.integers(1, m + 1))
    z = p**v * draw(st.integers(0, p**4)) % p**m
    # e = 0, e below p^k (b = 0), and e of any length, at mixed precisions
    exponent = st.one_of(
        st.just(0), st.integers(0, p**3), st.integers(0, p ** (m + 2))
    )
    jobs = draw(
        st.lists(st.tuples(exponent, st.integers(1, m)), min_size=1, max_size=20)
    )
    return p, z, jobs


@settings(max_examples=120, deadline=None)
@given(_power_jobs())
@example(_pinned_jobs(7, 128, 4))  # a table of small powers
@example(_pinned_jobs(31, 128, 4))  # one pow per exponent
@example(_pinned_jobs(31, 128, 16))  # a table at a larger p, for more exponents
@example((7, 0, _pinned_jobs(7, 128, 4)[2]))  # z = 0 on the table's route
@example((31, 0, _pinned_jobs(31, 128, 4)[2]))  # and on the pows'
def test_power_residues_match_pow(case):
    # either route to (1+z)^a, the table or the pows, gives pow's residues
    p, z, jobs = case
    assert _planned_residues(p, z, jobs) == [pow(1 + z, e, p**d) for e, d in jobs]


def _planned_residues(p, z, jobs):
    """_power_residues on a plan of the jobs' exponents at their largest
    precision, each exponent e to its own d digits."""
    target = SeriesBudget(max(d for _, d in jobs))
    plan = functions.PowerPlan(p, [e for e, _ in jobs], target)
    return _power_residues(z, plan, [d for _, d in jobs])


def test_power_table_replaces_pows_where_cheaper(monkeypatch):
    # a table gives t and every (1+z)^a at (7, 128, 4 exponents): no pow
    # takes a positive exponent; at p = 65521 a table of p - 1 powers per
    # digit would cost more than it saves, so t = pow(1+z, p^k) comes back
    exponents = []

    def counted(base, exp, mod=None):
        exponents.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(functions, "pow", counted, raising=False)
    for p, m, table in ((7, 128, True), (65521, 1024, False)):
        _, z, jobs = _pinned_jobs(p, m, 4)
        exponents.clear()
        _planned_residues(p, z, jobs)
        positive = [e for e in exponents if e > 0]
        k = functions._split_point(p, m, 4, 1)
        assert k >= 1
        if table:
            assert positive == []
        else:
            assert p**k in positive and max(positive) == p**k


def _valuation(z):
    """v(z) at z's precision: prec z for z = 0 there."""
    return next(k for k in range(z.prec + 1) if k == z.prec or z.residue % z.p ** (k + 1))


def _pow_reference(z, lams, target):
    """Each (1+z)^lam by one builtin pow, at PowerPlan.powers' precision."""
    out = []
    for lam in lams:
        prec = min(target, z.prec)
        if isinstance(lam, PadicInt):
            prec = min(prec, lam.prec + _valuation(z))
        e = lam.residue if isinstance(lam, PadicInt) else lam
        out.append(PadicInt(pow(1 + z.residue, e, z.p**prec), z.p, prec))
    return out


@st.composite
def _planned_powers(draw):
    # the row divisors j are divisible by p for p <= 31, and p = 65521
    # takes (1+z)^a by pows, not a table
    p = draw(st.sampled_from([3, 5, 7, 11, 31, 65521]))
    target = draw(st.integers(1, 140))
    n = draw(st.sampled_from([1, 4, 16]))
    k = functions._split_point(p, target, n, 1)
    terms = -(-target // (1 + k))
    # e = 0, b = e // p^k below the row length J, and e of any length
    residue = st.one_of(
        st.just(0), st.integers(0, p**k * terms), st.integers(0, p ** (target + 2))
    )
    lam = st.one_of(
        residue, st.builds(lambda r, q: PadicInt(r, p, q), residue, st.integers(1, target + 2))
    )
    lams = draw(st.lists(lam, min_size=n, max_size=n))
    # v(z) from 1 to 3, z at precisions below the target and above
    zs = [
        PadicInt(p**v * draw(st.integers(0, p**8)), p, draw(st.integers(1, target + 2)))
        for v in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ]
    return p, target, lams, zs


@settings(max_examples=60, deadline=None)
@given(_planned_powers())
def test_power_plan_matches_pow(case):
    # one plan serves every z: each planned power against one builtin pow,
    # in residue and precision, and against a plan built for this call only
    p, target, lams, zs = case
    budget = SeriesBudget(target)
    plan = functions.PowerPlan(p, lams, budget)
    for z in zs:
        expected = _pow_reference(z, lams, target)
        assert plan.powers(z) == expected
        assert functions.PowerPlan(p, lams, budget).powers(z) == expected


@pytest.mark.parametrize("p,prec,n", [(3, 40, 1), (5, 64, 4), (31, 128, 16)])
def test_group_reuses_its_power_plan(p, prec, n):
    # a group evaluated again (its kept plan) and a fresh equal group (a new
    # plan) give identical U(s) and powers, which match one pow each
    rng = Random(7400 + p)
    a = sample_certifiable_matrix(rng, p, prec, n)
    g = OneParamGroup(certify_strongly_normal(a), SeriesBudget(prec))
    for v in (1, 2, 3):
        s = PadicInt(1 + p**v * rng.randrange(p**prec), p, prec - v)
        first, again = g.evaluate(s), g.evaluate(s)
        assert first == again == OneParamGroup(g.cert, g.budget).evaluate(s)
        z = s - 1
        assert first.unit_spectrum() == _pow_reference(z, g.cert.eigenvalues, prec)
    # a plan carries its target: one built at fewer digits gives them all,
    # and it takes no z over another prime
    plan = functions.PowerPlan(p, g.cert.eigenvalues, SeriesBudget(prec - 1))
    assert plan.powers(z) == _pow_reference(z, g.cert.eigenvalues, prec - 1)
    with pytest.raises(PrimeMismatch, match=f"^p=7 vs p={p}$"):
        plan.powers(PadicInt(7, 7, prec))


@pytest.mark.parametrize("p", PRIMES)
def test_principal_power_homomorphism(p):
    # scalar group law: (1+z)^(lam+mu) = (1+z)^lam (1+z)^mu
    b = BUDGETS[p]
    rng = Random(500 + p)
    for _ in range(40):
        z = sample_in_pzp(rng, p, 32)
        lam = sample_padic(rng, p, 32)
        mu = sample_padic(rng, p, 32)
        lhs = principal_power(z, lam + mu, b)
        rhs = principal_power(z, lam, b) * principal_power(z, mu, b)
        assert lhs.congruent(rhs, 32)


@pytest.mark.parametrize("p", PRIMES)
def test_principal_power_valuation_and_uniform_bound(p):
    # valuation(result - 1) >= valuation(z), attained at lam = 1
    b = BUDGETS[p]
    rng = Random(600 + p)
    for _ in range(10):
        z = sample_in_pzp(rng, p, 32)
        if z.is_zero():
            continue
        vz = z.valuation().value
        seen = []
        for _ in range(20):
            u = principal_power(z, sample_padic(rng, p, 32), b)
            assert u.reduce_mod_p() == 1
            seen.append((u - 1).valuation().value)
        seen.append((principal_power(z, PadicInt(1, p, 32), b) - 1).valuation().value)
        assert min(seen) == vz


def test_mahler_tail_independent_of_budget():
    # a larger target only appends digits to the ones a smaller one returns
    z = PadicInt(5, 5, 46)
    lam = PadicInt(987654321, 5, 46)
    small = principal_power(z, lam, SeriesBudget(32))
    large = principal_power(z, lam, SeriesBudget(46))
    assert (small.prec, large.prec) == (32, 46)
    assert small.congruent(large, 32)


@pytest.mark.parametrize("p", PRIMES)
def test_plog_basics(p):
    b = BUDGETS[p]
    one_plus_p = PadicInt(1 + p, p, 32)
    assert plog(one_plus_p, b).valuation().value == 1
    assert plog(PadicInt.one(p, 32), b).is_zero()
    with pytest.raises(NotPrincipal):
        plog(PadicInt(2 if p != 3 else 5, p, 32), b)


@pytest.mark.parametrize("p", PRIMES)
def test_log_exp_inversion(p):
    b = BUDGETS[p]
    rng = Random(700 + p)
    for _ in range(50):
        u = sample_principal_unit(rng, p, 32)
        assert pexp(plog(u, b), b).congruent(u, 32)
        x = sample_in_pzp(rng, p, 32)
        assert plog(pexp(x, b), b).congruent(x, 32)


def test_pexp_domain():
    b = BUDGETS[5]
    assert pexp(PadicInt.zero(5, 32), b) == PadicInt.one(5, 32)
    with pytest.raises(OutOfConvergenceDomain):
        pexp(PadicInt(1, 5, 32), b)


@pytest.mark.parametrize("p", PRIMES)
def test_series_against_rational_oracle(p):
    # the independent big-rational partial sums confirm each series route
    from fractions import Fraction

    from oracle import oracle_series

    b = BUDGETS[p]
    tol = 32
    rng = Random(1050 + p)
    for _ in range(15):
        u = sample_principal_unit(rng, p, 32)
        got = plog(u, b)
        ref = oracle_series("log", Fraction(u.residue), 90, p, tol)
        assert got.congruent(PadicInt(ref, p, tol), tol)

        x = sample_in_pzp(rng, p, 32)
        got = pexp(x, b)
        ref = oracle_series("exp", Fraction(x.residue), 90, p, tol)
        assert got.congruent(PadicInt(ref, p, tol), tol)

        z = sample_in_pzp(rng, p, 32)
        lam = rng.randrange(1, 500)
        got = principal_power(z, PadicInt(lam, p, 32), b)
        ref = oracle_series("mahler", Fraction(z.residue), 90, p, tol, exponent=lam)
        assert got.congruent(PadicInt(ref, p, tol), tol)


def _mahler_partial_sum(z, lam, terms):
    """sum_{n < terms} z^n P_n(lam) mod p^32, from mahler_coeff in integers.

    P_n(lam) is good to 32 - floor(log_p n) digits and z^n has valuation
    >= n, so every term is right mod p^32 whatever its top digits are.
    """
    total = sum(z.residue**n * mahler_coeff(n, lam).residue for n in range(terms))
    return total % z.p**32


@pytest.mark.parametrize("p", PRIMES)
def test_principal_power_against_independent_series(p):
    # pow against two Mahler partial sums that share no code with it, at
    # every digit of a full 32-digit p-adic exponent; 32 terms drop only
    # terms of valuation >= 32
    from fractions import Fraction

    from oracle import oracle_series

    b = BUDGETS[p]
    rng = Random(1100 + p)
    for _ in range(6):
        z = sample_in_pzp(rng, p, 32)
        lam = sample_padic(rng, p, 32)
        got = principal_power(z, lam, b)
        ref = oracle_series(
            "mahler", Fraction(z.residue), 32, p, 32, exponent=lam.residue
        )
        assert got == PadicInt(ref, p, 32)
        assert got == PadicInt(_mahler_partial_sum(z, lam, 32), p, 32)


@pytest.mark.parametrize("p", PRIMES)
def test_log_exp_zeta_against_independent_series(p):
    # the argument-reduced log, the pow-based exp and zeta against exact
    # rational partial sums (90 terms drop only valuation >= 46 at p = 3)
    from fractions import Fraction

    from oracle import oracle_series

    b = BUDGETS[p]
    rng = Random(1150 + p)
    log_base = PadicInt(oracle_series("log", Fraction(1 + p), 90, p, 33), p, 33)
    for _ in range(6):
        u = sample_principal_unit(rng, p, 32)
        ref = oracle_series("log", Fraction(u.residue), 90, p, 33)
        assert plog(u, b) == PadicInt(ref, p, 32)
        if u.residue != 1:
            zeta = PadicInt(ref, p, 33).divide_exact(log_base)
            assert zeta_of(u, b) == zeta.truncate_to(31)
        x = sample_in_pzp(rng, p, 32)
        ref = oracle_series("exp", Fraction(x.residue), 90, p, 32)
        assert pexp(x, b) == PadicInt(ref, p, 32)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("target", [32, 128])
def test_log_reduction_matches_unreduced_series(p, target):
    # log(1+x) = log((1+x)^(p^k)) / p^k against the plain series on x
    b = SeriesBudget(target)
    rng = Random(1170 + p + target)
    for _ in range(6):
        u = sample_principal_unit(rng, p, target)
        if u.residue == 1:
            continue
        got = plog(u, b)
        x = u - 1
        direct = log_series(x, x.valuation().value, b.target, mul)
        assert got == direct


def _engine_log(x, working):
    """log(1 + x) to ``working`` digits by the series engine on PadicInt,
    with the argument reduced by p^isqrt(W): a route of its own, on
    PadicInt arithmetic and with another split than plog."""
    p, k = x.p, isqrt(working)
    w = working + k
    t = PadicInt(pow(1 + x.residue, p**k, p**w) - 1, p, w)
    return log_series(t, t.valuation().value, w, mul).divide_exact(PadicInt(p**k, p, w))


@st.composite
def _log_inputs(draw):
    p = draw(st.sampled_from([3, 5, 31, 65521]))
    # a power at p = 65521 and 4096 digits costs seconds, so it stays smaller
    target = draw(st.integers(1, 4096 if p < 100 else 160))
    prec = draw(st.integers(2, target + 3))
    # v >= prec gives s = 1; target <= v < prec gives s != 1 with t = 0
    v = draw(st.integers(1, prec + 2))
    unit = draw(st.integers(1, p**4)) if v < prec else 0
    return p, target, prec, (p**v * unit) % p**prec


@settings(max_examples=40, deadline=None)
@given(_log_inputs())
@example((3, 4096, 4096, 3))
@example((65521, 160, 160, 65521**150))
@example((31, 128, 131, 31**129))  # x != 0, but t = 0 mod p^(W+k)
@example((5, 1, 2, 5))
def test_log_routes_match_series_engine(case):
    # plog, zeta_of and pexp, with their residue logarithm, give the
    # residues and precisions of the PadicInt series engine
    p, target, prec, x_res = case
    b = SeriesBudget(target)
    s = PadicInt(1 + x_res, p, prec)
    assert plog(s, b) == _engine_log(s - 1, target).truncate_to(min(target, prec))
    log_base = _engine_log(PadicInt(p, p, target + 1), target + 1)
    zeta = _engine_log(s - 1, target + 1).divide_exact(log_base)
    assert zeta_of(s, b) == zeta.truncate_to(min(target, prec - 1))
    x = PadicInt(x_res, p, prec)
    out = min(target, prec)
    exponent = x.divide_exact(log_base).residue
    assert pexp(x, b) == PadicInt(pow(1 + p, exponent, p**out), p, out)


@pytest.mark.parametrize("p", PRIMES)
def test_log_series_digits_against_oracle(p):
    # every digit the log engine returns, against an exact rational sum
    rng = Random(1180 + p)
    for working in range(4, 40):
        for v in (1, 2, 3):
            x = PadicInt(p**v * rng.randrange(1, p**working, p), p, working + 3)
            got = log_series(x, v, working, mul)
            ref = oracle_series("log", 1 + x.residue, 3 * working, p, working)
            assert got == PadicInt(ref, p, working)


@st.composite
def _lemma_inputs(draw):
    p = draw(st.sampled_from(PRIMES))
    prec = draw(st.integers(1, 64))
    target = draw(st.integers(1, 64))

    def in_pzp(n):
        return PadicInt(p * draw(st.integers(0, p ** (n - 1) - 1)), p, n)

    z = in_pzp(prec)
    lam = PadicInt(draw(st.integers(0, p**prec - 1)), p, draw(st.integers(1, 64)))
    s = in_pzp(prec) + 1
    x = in_pzp(prec)
    t = draw(st.integers(1, p**8))
    return SeriesBudget(target), z, lam, s, x, t


def _perturb(x, t):
    """x + p^prec t, tracked to 8 more digits than x."""
    return PadicInt(x.residue + x.p**x.prec * t, x.p, x.prec + 8)


@settings(max_examples=80, deadline=None)
@given(_lemma_inputs())
# at target 1, log(1+p) taken to one digit would be 0
@example((SeriesBudget(1), *(PadicInt(r, 3, 9) for r in (3, 1, 4, 3)), 1))
# an exponent of 31 digits fixes (1+5)^lam to 32, and one of 10 digits
# fixes (1+27)^lam to 13
@example((SeriesBudget(32), *(PadicInt(r, 5, m) for r, m in ((5, 32), (7**30, 31), (6, 32), (5, 32))), 2))
@example((SeriesBudget(40), *(PadicInt(r, 3, m) for r, m in ((27, 40), (2**15, 10), (4, 40), (3, 40))), 1))
def test_precision_lemma_scalar_functions(case):
    # moving any input beyond its tracked digits moves no returned digit;
    # p z, and with it e^(pz), is fixed to one digit more than z
    b, z, lam, s, x, t = case
    got = principal_power(z, lam, b)
    assert got.prec == min(b.target, z.prec, lam.prec + z.valuation().value)
    assert principal_power(_perturb(z, t), lam, b).congruent(got, got.prec)
    assert principal_power(z, _perturb(lam, t), b).congruent(got, got.prec)
    assert additive_reparam(lam, b).prec == min(b.target, lam.prec + 1)
    for f, arg in ((plog, s), (zeta_of, s), (pexp, x), (additive_reparam, lam)):
        if f is zeta_of and arg.prec == 1:
            # zeta(s) costs one digit, so a one-digit s determines none
            with pytest.raises(InsufficientPrecision):
                f(arg, b)
            continue
        got = f(arg, b)
        assert f(_perturb(arg, t), b).congruent(got, got.prec)


@pytest.mark.parametrize("p", PRIMES)
def test_exp_of_scaled_log_is_power(p):
    # exp(zeta log(1+p)) = (1+p)^zeta
    b = BUDGETS[p]
    rng = Random(800 + p)
    base_log = plog(PadicInt(1 + p, p, 32), b)
    for _ in range(25):
        zeta = sample_padic(rng, p, 32)
        lhs = pexp(zeta * base_log, b)
        rhs = principal_power(PadicInt(p, p, 32), zeta, b)
        assert lhs.congruent(rhs, 32)


@pytest.mark.parametrize("p", PRIMES)
def test_zeta_examples(p):
    b = BUDGETS[p]
    assert zeta_of(PadicInt(1 + p, p, 32), b).congruent(PadicInt(1, p, 31), 31)
    assert zeta_of(PadicInt.one(p, 32), b).is_zero()
    for k in (2, 3, 7):
        s = PadicInt((1 + p) ** k, p, 32)
        assert zeta_of(s, b).congruent(PadicInt(k, p, 31), 31)


@pytest.mark.parametrize("p", PRIMES)
def test_zeta_roundtrip(p):
    b = BUDGETS[p]
    rng = Random(900 + p)
    z = PadicInt(p, p, 32)
    for _ in range(40):
        s = sample_principal_unit(rng, p, 32)
        zeta = zeta_of(s, b)
        back = principal_power(z, zeta, b)
        assert back.congruent(s.truncate_to(back.prec), back.prec)


@pytest.mark.parametrize("p", PRIMES)
def test_zeta_matches_uncached_quotient(p):
    # zeta_of reuses log(1+p) per (p, working digits); the quotient must be
    # the one the two series give when both are summed afresh
    rng = Random(950 + p)
    for target in (8, 32, 128):
        b = SeriesBudget(target)
        wide = b.target + 1
        for prec in (target, target + 3):
            s = sample_principal_unit(rng, p, prec)
            num = plog(s, SeriesBudget(wide))
            den = plog(PadicInt(1 + p, p, wide), SeriesBudget(wide))
            zeta = num.divide_exact(den)
            expected = zeta.truncate_to(min(target, prec - 1, zeta.prec))
            assert zeta_of(s, b) == expected


def test_series_at_the_input_bound():
    # a target at the input bound leaves the series room for their own digits
    b = SeriesBudget(MAX_PREC)
    s = sample_principal_unit(Random(1190), 5, MAX_PREC)
    assert plog(s, b).prec == MAX_PREC
    assert zeta_of(s, b).prec == MAX_PREC - 1


def test_digit_truncation_error_bound():
    # sup_k p^(-k+(k-1)/(p-1)) is attained at k = 1 for every odd p
    for p in PRIMES:
        assert digit_truncation_error(0, p) == 2
        for n in range(6):
            # geometric decay: one more digit per step
            assert digit_truncation_error(n + 1, p) == digit_truncation_error(n, p) + 1


@pytest.mark.parametrize("p", PRIMES)
def test_digit_truncation_observed(p):
    # cutting zeta after its p^n digit perturbs the power by at most the bound
    b = BUDGETS[p]
    rng = Random(1000 + p)
    z = PadicInt(p, p, 32)
    for _ in range(12):
        zeta = sample_padic(rng, p, 32)
        lam = sample_padic(rng, p, 32)
        full = principal_power(z, zeta * lam, b)
        for n in (0, 3):
            digits = zeta.digits()
            cut = sum(d * p**j for j, d in enumerate(digits[: n + 1]))
            approx = principal_power(z, PadicInt(cut, p, 32) * lam, b)
            observed = (approx - full).valuation()
            assert observed.value >= digit_truncation_error(n, p)
