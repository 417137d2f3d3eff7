"""Unitary operators, group evaluation, Stone recovery, additive form."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    Valuation,
    additive_reparam,
    certify_strongly_normal,
    digit_truncation_error,
    generator_log_series,
    make_unitary,
    pexp,
    plog,
    stone_recover,
    zeta_of,
)
from padicspectral.errors import (
    CertificationFailed,
    InsufficientPrecision,
    NormTooLarge,
    NotPrincipal,
    NotPrincipalSpectrum,
)
from oracle import oracle_series
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_group,
    sample_in_pzp,
    sample_padic,
    sample_principal_unit,
)

PRIMES = [3, 5, 7]
BUDGETS = {p: SeriesBudget(32) for p in PRIMES}


def _tol(budget, *mats):
    return min([budget.target] + [m.prec for m in mats])


def test_make_unitary_examples():
    u0 = make_unitary(PadicMatrix.diagonal([0] * 2, 5, 32))
    assert u0.matrix == PadicMatrix.identity(2, 5, 32)
    assert [x.residue for x in u0.eigenvalues] == [1]

    u1 = make_unitary(PadicMatrix.diagonal([5, 10], 5, 32))
    assert sorted(x.residue % 125 for x in u1.eigenvalues) == [6, 11]

    # V = 5 * [[0,1],[2,1]]: sigma(U) = {1 + 5*2, 1 - 5} = {11, -4}
    u2 = make_unitary(PadicMatrix([[0, 5], [10, 5]], 5, 32))
    got = sorted(x.residue % 5**4 for x in u2.eigenvalues)
    assert got == sorted(x % 5**4 for x in (11, -4))
    u2.verify()


def test_make_unitary_refusals():
    with pytest.raises(NormTooLarge):
        make_unitary(PadicMatrix([[1, 0], [0, 5]], 5, 32))
    with pytest.raises(CertificationFailed):
        # scaled part is scalar: p * 2I
        make_unitary(PadicMatrix.diagonal([10, 10], 5, 32))
    with pytest.raises(CertificationFailed):
        # scaled part has an irreducible residue characteristic polynomial
        make_unitary(PadicMatrix([[0, -5], [5, -5]], 5, 32))


def test_evaluate_diagonal_example():
    b = BUDGETS[5]
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix.diagonal([0, 1], 5, 32)), b
    )
    u = g.evaluate(6)
    assert u.matrix.congruent(PadicMatrix.diagonal([1, 6], 5, 32), u.matrix.prec)
    # eigenvalue exponents 0 and 1 push the spectrum to {1, 6}
    assert sorted(x.residue % 25 for x in u.eigenvalues) == [1, 6]


@pytest.mark.parametrize("p", PRIMES)
def test_evaluate_at_one_is_identity(p):
    rng = Random(1800 + p)
    g = sample_group(rng, p, 32, 2, BUDGETS[p])
    u = g.evaluate(1)
    assert u.matrix == PadicMatrix.identity(2, p, u.matrix.prec)


def test_evaluate_rejects_non_principal():
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix.diagonal([0, 1], 5, 32)), BUDGETS[5]
    )
    with pytest.raises(NotPrincipal):
        g.evaluate(2)


@pytest.mark.parametrize(
    "call",
    [
        lambda g: g.evaluate(2),
        lambda g: g.evaluate_mahler(2),
        lambda g: g.verify_group_law(6, 2),
        lambda g: g.lipschitz_check(2, 6),
        lambda g: g.digit_limit_approxes(2, [1]),
    ],
    ids=["evaluate", "evaluate_mahler", "verify_group_law", "lipschitz_check", "digit_limit"],
)
def test_non_principal_s_has_one_refusal(call):
    # every entry point of s refuses by functions.require_principal's rule
    g = OneParamGroup(certify_strongly_normal(PadicMatrix.diagonal([0, 1], 5, 32)), BUDGETS[5])
    match = r"^s must be congruent to 1 mod p, got PadicInt\(2, p=5, prec=32\)$"
    with pytest.raises(NotPrincipal, match=match):
        call(g)


@pytest.mark.parametrize("p", PRIMES)
def test_dual_path_agreement(p):
    b = BUDGETS[p]
    rng = Random(1900 + p)
    for _ in range(6):
        n = rng.randrange(2, min(p, 4) + 1)
        g = sample_group(rng, p, 32, n, b)
        s = sample_principal_unit(rng, p, 32)
        spectral = g.evaluate(s).matrix
        mahler = g.evaluate_mahler(s)
        assert spectral.congruent(mahler, _tol(b, spectral, mahler))


@pytest.mark.parametrize("p", PRIMES)
def test_group_law(p):
    b = BUDGETS[p]
    rng = Random(2000 + p)
    g = sample_group(rng, p, 32, 2, b)
    assert g.verify_group_law(1, 1).ok
    for _ in range(10):
        s1 = sample_principal_unit(rng, p, 32)
        s2 = sample_principal_unit(rng, p, 32)
        chk = g.verify_group_law(s1, s2)
        assert chk.ok and chk.margin >= 0


def test_group_law_example_pair():
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), BUDGETS[5]
    )
    assert g.verify_group_law(6, 26).ok  # s1 s2 = 156


@pytest.mark.parametrize("p", PRIMES)
def test_lipschitz(p):
    b = BUDGETS[p]
    rng = Random(2100 + p)
    g = sample_group(rng, p, 32, 2, b)
    for _ in range(10):
        s1 = sample_principal_unit(rng, p, 32)
        s2 = sample_principal_unit(rng, p, 32)
        assert g.lipschitz_check(s1, s2).ok
    same = sample_principal_unit(rng, p, 32)
    chk = g.lipschitz_check(same, same)
    assert chk.ok and not chk.observed.is_finite


def test_lipschitz_example():
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), BUDGETS[5]
    )
    chk = g.lipschitz_check(6, 31)  # |6 - 31| = 5^{-2}
    assert chk.required == 2 and chk.ok


@pytest.mark.parametrize("p", PRIMES)
def test_unitarity_closure(p):
    # |U(s) - I| <= |s - 1| < 1
    b = BUDGETS[p]
    rng = Random(2200 + p)
    g = sample_group(rng, p, 32, 2, b)
    for _ in range(10):
        s = sample_principal_unit(rng, p, 32)
        u = g.evaluate(s).matrix
        v = u - PadicMatrix.identity(2, p, u.prec)
        assert v.op_norm() >= min((s - 1).valuation(), Valuation.at_least(v.prec))


def test_stone_diagonal_example():
    b = BUDGETS[5]
    g = stone_recover(PadicMatrix.diagonal([1, 6], 5, 32), b)
    expected = PadicMatrix.diagonal([0, 1], 5, g.generator.prec)
    assert g.generator.congruent(expected, g.generator.prec)


def test_stone_identity():
    # A = 0 pays the digit of the log(1+p) division like any other generator
    g = stone_recover(PadicMatrix.identity(2, 5, 32), BUDGETS[5])
    assert g.generator.is_zero()
    assert g.generator.prec == 31
    u = g.evaluate(6)
    assert u.matrix == PadicMatrix.identity(2, 5, u.matrix.prec)


def test_stone_one_digit_eigenvalue():
    # V = diag(5, 10) at 2 digits fixes its eigenvalues p^w lam' mod 25,
    # though lam' = 1, 2 has 1 digit, and so A = diag(1, 2) mod 5 on both paths
    expected = PadicMatrix.diagonal([1, 2], 5, 1)
    u1p = PadicMatrix.diagonal([6, 11], 5, 2)
    assert stone_recover(u1p, BUDGETS[5]).generator == expected
    assert generator_log_series(u1p, BUDGETS[5]) == expected
    with pytest.raises(InsufficientPrecision):
        stone_recover(PadicMatrix.diagonal([6, 11], 5, 1), BUDGETS[5])
    with pytest.raises(InsufficientPrecision):
        generator_log_series(PadicMatrix.identity(2, 5, 1), BUDGETS[5])


def test_stone_refuses_norm_one():
    with pytest.raises(NotPrincipalSpectrum):
        stone_recover(PadicMatrix([[1, 1], [0, 6]], 5, 32), BUDGETS[5])


def test_norm_one_has_one_refusal():
    # |V| = 1 names the same unit entry of V = U(1+p) - I on every route
    v = PadicMatrix([[0, 1], [0, 5]], 5, 32)
    u = PadicMatrix.identity(2, 5, 32) + v
    match = r"^\|V\| = 1: entry \(0, 1\) is a unit$"
    with pytest.raises(NormTooLarge, match=match):
        make_unitary(v)
    for route in (stone_recover, generator_log_series):
        with pytest.raises(NotPrincipalSpectrum, match=match):
            route(u, BUDGETS[5])


def test_stone_refuses_uncertifiable_principal_part():
    # V/p is the companion of x^2 - x - 1 with its double residue root 3
    v = 5 * PadicMatrix([[0, 1], [1, 1]], 5, 32)
    u1p = PadicMatrix.identity(2, 5, 32) + v
    with pytest.raises(CertificationFailed):
        stone_recover(u1p, BUDGETS[5])


@pytest.mark.parametrize("p", PRIMES)
def test_stone_roundtrip(p):
    b = BUDGETS[p]
    rng = Random(2300 + p)
    tol = b.target - 1  # one digit paid to the log(1+p) division
    for _ in range(4):
        n = rng.randrange(2, min(p, 4) + 1)
        g = sample_group(rng, p, 32, n, b)
        u1p = g.evaluate(1 + p).matrix
        rec = stone_recover(u1p, b)
        a, a_rec = g.generator, rec.generator
        d = min(tol, a_rec.prec, a.prec)
        assert a_rec.congruent(a.truncate_to(a_rec.prec), d)
        # and the recovered group reproduces U(1+p)
        again = rec.evaluate(1 + p).matrix
        assert again.congruent(u1p.truncate_to(again.prec), min(tol, again.prec))


@pytest.mark.parametrize("p", PRIMES)
def test_generator_log_series_cross_check(p):
    b = BUDGETS[p]
    rng = Random(2400 + p)
    g = sample_group(rng, p, 32, 2, b)
    u1p = g.evaluate(1 + p).matrix
    via_series = generator_log_series(u1p, b)
    via_spectrum = stone_recover(u1p, b).generator
    d = min(b.target - 1, via_series.prec, via_spectrum.prec)
    assert via_series.congruent(via_spectrum, d)
    assert generator_log_series(
        PadicMatrix.identity(2, p, 32), b
    ).is_zero()


@pytest.mark.parametrize("p", PRIMES)
def test_dual_paths_match_oracle_on_diagonal(p):
    # every digit the operator series return, against exact rational sums
    b = BUDGETS[p]
    rng = Random(4100 + p)
    for _ in range(6):
        n = rng.randrange(2, min(p, 4) + 1)
        a_prec, s_prec = rng.choice([24, 32, 40]), rng.choice([24, 32, 40])
        residues = rng.sample(range(p), n)
        lams = [r + p * rng.randrange(p ** (a_prec - 1)) for r in residues]
        g = OneParamGroup(
            certify_strongly_normal(PadicMatrix.diagonal(lams, p, a_prec)), b
        )
        s = sample_principal_unit(rng, p, s_prec)
        got = g.evaluate_mahler(s)
        d = min(b.target, a_prec, s_prec)
        z = (s - 1).residue
        terms = -(-d // (s - 1).valuation().value) if z else 1
        expected = [
            oracle_series("mahler", z, terms, p, d, exponent=lam) for lam in lams
        ]
        assert got == PadicMatrix.diagonal(expected, p, d)

        mus = [p * rng.randrange(p ** (a_prec - 1)) for _ in range(n)]
        got = generator_log_series(
            PadicMatrix.diagonal([1 + mu for mu in mus], p, a_prec), b
        )
        d = min(b.target, a_prec - 1)
        den = oracle_series("log", 1 + p, 2 * d, p, d + 1) // p
        expected = [
            oracle_series("log", 1 + mu, 2 * d, p, d + 1) // p * pow(den, -1, p**d)
            for mu in mus
        ]
        assert got == PadicMatrix.diagonal(expected, p, d)


def _moved(m, t):
    """m + p^prec t entrywise, tracked to 8 more digits than m."""
    step = m.p**m.prec
    return PadicMatrix(
        [[x + step * y for x, y in zip(r, ty)] for r, ty in zip(m.rows(), t)],
        m.p,
        m.prec + 8,
    )


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    prec=st.integers(8, 40),
    target=st.integers(8, 40),
    data=st.data(),
)
def test_precision_lemma_group_paths(p, seed, prec, target, data):
    # moving the matrix beyond its tracked digits moves no returned digit
    rng = Random(seed)
    n = rng.randrange(2, min(p, 3) + 1)
    cell = st.integers(0, p**8 - 1)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    b = SeriesBudget(target)
    a = sample_certifiable_matrix(rng, p, prec, n)
    s = sample_principal_unit(rng, p, 40)
    g = OneParamGroup(certify_strongly_normal(a), b)
    moved = OneParamGroup(certify_strongly_normal(_moved(a, data.draw(square))), b)
    # z is moved beyond its tracked digits too
    zprec = data.draw(st.integers(1, 40))
    z = PadicInt(data.draw(st.integers(0, p**zprec - 1)), p, zprec)
    z_moved = PadicInt(z.residue + p**zprec * data.draw(cell), p, zprec + 8)

    def results(h, z):
        return [
            *h.cert.eigenvalues,
            *(h.cert.spectral_measure([i]) for i in range(n)),
            h.cert.functional_calculus(lambda lam: lam * lam + 3),
            h.evaluate(s).matrix,
            h.evaluate_mahler(s),
            *h.digit_limit_approxes(s, [0, 1, 3, 8]),
            h.additive_evaluate(z).matrix,
        ]

    for got, got_moved in zip(results(g, z), results(moved, z_moved), strict=True):
        assert got_moved.congruent(got, got.prec)

    # U(1+p) = I is moved to I + p^prec diag(t), t with distinct residues so
    # that V = p^prec diag(t) is certifiable, and tracked to 2 prec + 8
    # digits so that V / p^prec, and with it the eigenbasis, keeps prec + 8
    u1p = g.evaluate(1 + p).matrix
    residues = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n, unique=True))
    t = [r + p * data.draw(cell) for r in residues]
    moved_ident = PadicMatrix.diagonal([1 + p**prec * x for x in t], p, 2 * prec + 8)
    cases = (
        (u1p, _moved(u1p, data.draw(square))),
        (PadicMatrix.identity(n, p, prec), moved_ident),
    )
    for u, u_moved in cases:
        for recover in (lambda m: stone_recover(m, b).generator, lambda m: generator_log_series(m, b)):
            got = recover(u)
            assert recover(u_moved).congruent(got, got.prec)


def test_digit_limit_at_one_plus_p():
    # zeta(1+p) = 1 has digits (1, 0, 0, ...): every cut reproduces U(1+p)
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), BUDGETS[5]
    )
    u1p = g.evaluate(6).matrix
    for approx in g.digit_limit_approxes(6, [0, 1, 4]):
        assert approx.congruent(u1p.truncate_to(approx.prec), approx.prec)
    # ns may be any iterable, read once
    assert g.digit_limit_approxes(6, (n for n in (0, 1, 4))) == g.digit_limit_approxes(6, [0, 1, 4])


@pytest.mark.parametrize("p", PRIMES)
def test_digit_limit_convergence(p):
    b = BUDGETS[p]
    rng = Random(2500 + p)
    g = sample_group(rng, p, 32, 2, b)
    s = sample_principal_unit(rng, p, 32)
    reference = g.evaluate(s).matrix
    ns = (0, 2, 5, 9)
    for n, approx in zip(ns, g.digit_limit_approxes(s, ns)):
        err = (approx - reference).op_norm()
        assert err.value >= digit_truncation_error(n, p)
    # once the bound passes the tracked precision the cut is exact
    (deep,) = g.digit_limit_approxes(s, [b.target])
    assert deep.congruent(reference.truncate_to(deep.prec), deep.prec)


def test_additive_examples():
    b = BUDGETS[5]
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix.diagonal([0, 1], 5, 32)), b
    )
    w0 = g.additive_evaluate(0)
    assert w0.matrix == PadicMatrix.identity(2, 5, w0.matrix.prec)
    # diagonal action: W(z) = diag(1, e^(pz))
    z = PadicInt(3, 5, 32)
    w = g.additive_evaluate(z)
    ez = pexp(PadicInt(5, 5, 32) * z, b)
    expected = PadicMatrix.diagonal([PadicInt.one(5, ez.prec), ez], 5, ez.prec)
    assert w.matrix.congruent(expected, _tol(b, w.matrix, expected))


@pytest.mark.parametrize("p", PRIMES)
def test_additivity(p):
    b = BUDGETS[p]
    rng = Random(2600 + p)
    g = sample_group(rng, p, 32, 2, b)
    for _ in range(8):
        z1 = sample_padic(rng, p, 32)
        z2 = sample_padic(rng, p, 32)
        lhs = g.additive_evaluate(z1 + z2).matrix
        rhs = g.additive_evaluate(z1).matrix @ g.additive_evaluate(z2).matrix
        assert lhs.congruent(rhs, _tol(b, lhs, rhs))


@pytest.mark.parametrize("p", PRIMES)
def test_one_by_one_stone(p):
    # U(1+p) = [1 + p u]: Stone and the log series give zeta(1 + p u)
    b = BUDGETS[p]
    u1p = PadicMatrix([[1 + p * 43]], p, 8)
    g = stone_recover(u1p, b)
    zeta = zeta_of(PadicInt(1 + p * 43, p, 8), b)
    assert g.generator == PadicMatrix([[zeta]], p, 7) == generator_log_series(u1p, b)
    # the basis I is kept at 7 digits, and the unit spectrum at all 8
    u = g.evaluate(1 + p)
    assert u.matrix == u1p.truncate_to(7)
    assert u.eigenvalues == (PadicInt(1 + p * 43, p, 8),)


@pytest.mark.parametrize("p", PRIMES)
def test_additive_reparam_is_principal(p):
    b = BUDGETS[p]
    rng = Random(2700 + p)
    for _ in range(10):
        z = sample_padic(rng, p, 32)
        s = additive_reparam(z, b)
        assert s.reduce_mod_p() == 1


def test_group_serialization_roundtrip():
    b = BUDGETS[5]
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), b
    )
    back = OneParamGroup.from_dict(g.to_dict())
    assert back.generator == g.generator
    assert back.budget == b
    s = PadicInt(31, 5, 32)
    assert back.evaluate(s).matrix == g.evaluate(s).matrix


def test_read_certificate_keeps_only_verified_digits():
    # from_dict verifies at the certificate precision, the minimum over its
    # parts; a digit above it must not reach U(s)
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), BUDGETS[5]
    )
    doc = g.to_dict()
    doc["certificate"]["matrix"] = g.generator.truncate_to(20).to_dict()
    basis = doc["certificate"]["basis"]["entries"]
    basis[0][0] = str(int(basis[0][0]) + 5**25)
    u = OneParamGroup.from_dict(doc).evaluate(6)
    assert u.matrix.prec <= 20
    assert u.matrix == g.evaluate(6).matrix.truncate_to(u.matrix.prec)
    u.verify()


def test_group_check_reporting():
    g = OneParamGroup(
        certify_strongly_normal(PadicMatrix([[0, 1], [2, 1]], 5, 32)), BUDGETS[5]
    )
    chk = g.verify_group_law(6, 26)
    assert chk.check == "group-law"
    assert chk.ok
    assert chk.observed.value >= chk.required
    assert bool(chk) is chk.ok


@pytest.mark.parametrize("p", PRIMES)
def test_pushforward_certificate_of_evaluate(p):
    # sigma(U(s)) = {(1+z)^lambda_i}; U(s)'s certificate data stays coherent,
    # and its calculus at mu - 1 gives V(s) = U(s) - I
    b = BUDGETS[p]
    rng = Random(2800 + p)
    g = sample_group(rng, p, 32, 2, b)
    s = sample_principal_unit(rng, p, 32)
    u = g.evaluate(s)
    v = u.functional_calculus(lambda mu: mu - 1)
    assert u.matrix.congruent(PadicMatrix.identity(2, p, v.prec) + v, v.prec)
    recon = u.functional_calculus(lambda mu: mu)
    assert recon.congruent(u.matrix.truncate_to(recon.prec), recon.prec)
    u.verify()
    # the spectrum of a unitary operator consists of principal units
    assert all(x.reduce_mod_p() == 1 for x in u.eigenvalues)


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_derived_certificates_verify(p):
    # evaluate, make_unitary and stone derive certificates by reuse_basis
    # without re-checking them: each must verify, at no more than its
    # parent's precision
    rng = Random(3300 + p)
    for _ in range(4):
        n = rng.randrange(2, min(p, 6) + 1)
        prec = rng.randrange(16, 65)
        b = SeriesBudget(prec)
        cert = certify_strongly_normal(sample_certifiable_matrix(rng, p, prec, n))
        g = OneParamGroup(cert, b)
        u1p = g.evaluate(1 + p).matrix
        v = u1p - PadicMatrix.identity(n, p, u1p.prec)
        w = v.op_norm().value
        scaled = certify_strongly_normal(v.divide_exact(p**w))
        unitary = make_unitary(v)
        derived = [
            (g.evaluate(sample_principal_unit(rng, p, prec)), cert),
            (unitary, scaled),
            (stone_recover(u1p, b).cert, unitary),
        ]
        for child, parent in derived:
            child.verify()
            assert child.precision <= parent.precision


@pytest.mark.parametrize("p", PRIMES)
def test_dual_path_on_recovered_generator(p):
    # recovered eigenvalues collide mod p: the hard case for the exact
    # divisions inside the operator Mahler recurrence
    b = BUDGETS[p]
    rng = Random(4000 + p)
    g = sample_group(rng, p, 32, 2, b)
    rec = stone_recover(g.evaluate(1 + p).matrix, b)
    s = sample_principal_unit(rng, p, 32)
    spectral = rec.evaluate(s).matrix
    mahler = rec.evaluate_mahler(s)
    assert spectral.congruent(mahler, _tol(b, spectral, mahler))


def test_full_dimension_at_p7():
    # n = p distinct residues is the widest certifiable case
    rng = Random(2900)
    b = BUDGETS[7]
    a = sample_certifiable_matrix(rng, 7, 32, 7)
    g = OneParamGroup(certify_strongly_normal(a), b)
    assert g.verify_group_law(
        sample_principal_unit(rng, 7, 32), sample_principal_unit(rng, 7, 32)
    ).ok
    u1p = g.evaluate(8).matrix
    rec = stone_recover(u1p, b).generator
    d = min(b.target - 1, rec.prec)
    assert rec.congruent(a, d)


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from(PRIMES), seed=st.integers(0, 2**32), prec=st.integers(8, 24))
def test_bundle_guard_field_is_ignored(p, seed, prec):
    # older bundles store a guard beside the target: whatever its value,
    # the group read back returns exactly what the target alone gives
    rng = Random(seed)
    n = rng.randrange(2, min(p, 3) + 1)
    cert = certify_strongly_normal(sample_certifiable_matrix(rng, p, prec, n))
    s = sample_principal_unit(rng, p, prec)
    x, z = sample_in_pzp(rng, p, prec), sample_padic(rng, p, prec)
    group = OneParamGroup(cert, SeriesBudget(prec))
    u1p = group.evaluate(1 + p).matrix

    def results(g):
        b = g.budget
        return [
            g.evaluate(s).matrix,
            g.evaluate_mahler(s),
            stone_recover(u1p, b).generator,
            generator_log_series(u1p, b),
            g.additive_evaluate(z).matrix,
            plog(s, b),
            pexp(x, b),
            zeta_of(s, b),
        ]

    reference = results(group)
    for guard in (0, 3, 14):
        bundle = group.to_dict()
        bundle["budget"]["guard"] = guard
        assert results(OneParamGroup.from_dict(bundle)) == reference


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(PRIMES + [31]),
    seed=st.integers(0, 2**32),
    prec=st.integers(2, 40),
    target=st.integers(1, 40),
    zero=st.booleans(),
    sprecs=st.tuples(st.integers(2, 48), st.integers(2, 48)),
    close=st.none() | st.integers(1, 48),
)
def test_group_checks_match_value_level(p, seed, prec, target, zero, sprecs, close):
    # the checks report what plain integers give: U(s) = S diag(s^lam_i) S^-1
    # by pow on each eigenvalue, over the columns it owns, and explicit sums
    # over S and S^-1, then products, differences and the least entry
    # valuation, at the least precision of the target, s, S, S^-1 and the
    # eigenvalues, each eigenvalue counting v(s - 1) digits more than it
    # tracks; s may track fewer digits than the target, s2 may agree with s1
    # to many digits, and the zero generator owns all its columns with one
    # eigenvalue
    rng = Random(seed)
    n = rng.randrange(2, min(p, 4) + 1)
    budget = SeriesBudget(target)
    if zero:
        g = OneParamGroup(stone_recover(PadicMatrix.identity(n, p, prec), budget).cert, budget)
    else:
        g = sample_group(rng, p, prec, n, budget)
    s1, s2 = (sample_principal_unit(rng, p, k) for k in sprecs)
    if close is not None:
        s2 = PadicInt(s1.residue + p**close * rng.randrange(p), p, sprecs[1])
    cert = g.cert
    basis, inverse = cert.basis.rows(), cert.basis_inverse.rows()
    lams = list(cert.eigenvalues) * (n // len(cert.eigenvalues))
    least = min(target, cert.basis.prec, cert.basis_inverse.prec)

    def u(s):
        v = next(k for k in range(s.prec + 1) if k == s.prec or (s.residue - 1) % p ** (k + 1))
        prec = min([least, s.prec] + [x.prec + v for x in lams])
        mod = p**prec
        w = [pow(s.residue, lam.residue, mod) for lam in lams]
        grid = [
            [sum(basis[i][k] * w[k] * inverse[k][j] for k in range(n)) % mod for j in range(n)]
            for i in range(n)
        ]
        assert g.evaluate(s).matrix == PadicMatrix(grid, p, prec)
        return grid, prec

    def norm(grid, prec):
        return min(Valuation.of_residue(x % p**prec, p, prec) for row in grid for x in row)

    (lhs, prec), (u1, prec1), (u2, prec2) = u(s1 * s2), u(s1), u(s2)
    rhs = [[sum(u1[i][k] * u2[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    diff = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(lhs, rhs)]
    law = g.verify_group_law(s1, s2)
    required = min(prec, prec1, prec2)
    assert (law.observed, law.required) == (norm(diff, required), required)
    assert law.ok

    lip = g.lipschitz_check(s1, s2)
    diff = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(u1, u2)]
    observed = norm(diff, min(prec1, prec2))
    required = min((s1 - s2).valuation().value, prec1, prec2)
    assert (lip.observed, lip.required, lip.ok) == (
        observed,
        required,
        observed.value >= required,
    )
