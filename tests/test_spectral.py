"""Certificates, projection-valued measure, functional calculus."""

import json
from itertools import combinations, product
from math import comb, prod
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    StrongNormalCertificate,
    Valuation,
    certify_strongly_normal,
    make_unitary,
    stone_recover,
)
from padicspectral import kernels, spectral
from padicspectral.errors import (
    CertificationFailed,
    DegenerateReduction,
    DivisionByHigherValuation,
    DimensionMismatch,
    PrimeMismatch,
    RepeatedResidueEigenvalue,
    ResidueEigenvalueDeficit,
)
from oracle import oracle_certificate_holds, oracle_char_poly
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_invertible_matrix,
    sample_padic,
    sample_principal_unit,
)

PRIMES = [3, 5, 7]


def test_diagonal_example():
    a = PadicMatrix.diagonal([2, 4], 5, 32)
    cert = certify_strongly_normal(a)
    assert [e.residue for e in cert.eigenvalues] == [2, 4]
    assert cert.projectors[0] == PadicMatrix.diagonal([1, 0], 5, 32)
    assert cert.projectors[1] == PadicMatrix.diagonal([0, 1], 5, 32)


def test_companion_example():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)
    residues = sorted(e.residue % 5 for e in cert.eigenvalues)
    assert residues == [2, 4]  # eigenvalues 2 and -1
    # E for eigenvalue 2 is (A + I)/3, entries 3^{-1} [[1,1],[2,2]]
    i2 = next(i for i, e in enumerate(cert.eigenvalues) if e.residue % 5 == 2)
    e2 = cert.projectors[i2]
    inv3 = PadicInt(3, 5, 32).inverse()
    expected = PadicMatrix(
        [[inv3, inv3], [2 * inv3, 2 * inv3]], 5, 32
    )
    assert e2 == expected
    assert (e2 @ e2) == e2
    assert (a @ e2) == 2 * e2


def test_refusals():
    with pytest.raises(DegenerateReduction):
        certify_strongly_normal(PadicMatrix.identity(2, 5, 32))
    with pytest.raises(DegenerateReduction):
        certify_strongly_normal(PadicMatrix.diagonal([0] * 2, 5, 32))
    with pytest.raises(DegenerateReduction):
        # scalar residue with non-scalar deeper digits is still degenerate
        certify_strongly_normal(PadicMatrix([[1, 5], [0, 1]], 5, 32))
    with pytest.raises(ResidueEigenvalueDeficit):
        # companion matrix of x^2 + x + 1, irreducible mod 5
        certify_strongly_normal(PadicMatrix([[0, -1], [1, -1]], 5, 32))
    with pytest.raises(RepeatedResidueEigenvalue):
        # companion matrix of x^2 - x - 1, double root 3 mod 5
        certify_strongly_normal(PadicMatrix([[0, 1], [1, 1]], 5, 32))


def _oracle_refusal(rows, p):
    """The refusal certify owes a matrix, by the oracle char poly of its
    reduction and a scan of F_p for roots, each divided out as often as it
    divides: None when it is certifiable."""
    n = len(rows)
    reduced = [[x % p for x in row] for row in rows]
    scalar = [[reduced[0][0] if i == j else 0 for j in range(n)] for i in range(n)]
    if n >= 2 and reduced == scalar:
        return DegenerateReduction
    f = [c % p for c in oracle_char_poly(reduced)]
    mults = []
    for r in range(p):
        m = 0
        while len(f) > 1 and sum(c * r**k for k, c in enumerate(f)) % p == 0:
            quotient, carry = [], 0
            for c in reversed(f[1:]):
                carry = (c + carry * r) % p
                quotient.append(carry)
            f, m = quotient[::-1], m + 1
        mults.append(m)
    if sum(mults) < n:
        return ResidueEigenvalueDeficit
    return RepeatedResidueEigenvalue if max(mults) > 1 else None


@pytest.mark.parametrize(
    "p, prec, n, refused",
    [
        (3, 2, 2, {
            DegenerateReduction: 243, RepeatedResidueEigenvalue: 1944, ResidueEigenvalueDeficit: 1458
        }),
        (3, 1, 3, {
            DegenerateReduction: 3, RepeatedResidueEigenvalue: 8502, ResidueEigenvalueDeficit: 9774
        }),
    ],
    ids=["Z9-n2", "F3-n3"],
)
def test_certify_every_matrix_of_a_small_ring(p, prec, n, refused):
    # every A over Z/p^prec of size n: certify refuses exactly the class the
    # oracle finds, accepts C(p, n) |GL_n(F_p)| / (p-1)^n p^(n^2 (prec-1))
    # matrices (n distinct residue eigenvalues, an eigenbasis mod p up to
    # column scales, any higher digits), and every accepted certificate
    # passes the oracle's A S = S D and rank check
    counts = dict.fromkeys([None, *refused], 0)
    for entries in product(range(p**prec), repeat=n * n):
        rows = [list(entries[i : i + n]) for i in range(0, n * n, n)]
        expected = _oracle_refusal(rows, p)
        counts[expected] += 1
        if expected is not None:
            with pytest.raises(expected):
                certify_strongly_normal(PadicMatrix(rows, p, prec))
            continue
        cert = certify_strongly_normal(PadicMatrix(rows, p, prec))
        assert cert.precision == prec
        eigenvalues = [e.residue for e in cert.eigenvalues]
        assert oracle_certificate_holds(rows, cert.basis.rows(), eigenvalues, p, prec), rows
    gl = prod(p**n - p**k for k in range(n))
    accepted = comb(p, n) * gl // (p - 1) ** n * p ** (n * n * (prec - 1))
    assert counts == {None: accepted, **refused}
    assert sum(counts.values()) == p ** (prec * n * n)


@pytest.mark.parametrize("p", PRIMES)
def test_one_by_one_is_certified(p):
    # a 1 x 1 reduction is scalar, yet its one eigenvalue is distinct
    rng = Random(1700 + p)
    for a in (PadicMatrix([[0]], p, 8), sample_certifiable_matrix(rng, p, 8, 1)):
        cert = certify_strongly_normal(a)
        assert cert.eigenvalues == (PadicInt(a.rows()[0][0], p, 8),)
        assert cert.basis == PadicMatrix.identity(1, p, 8)
        assert cert.projectors == (cert.basis,)


@pytest.mark.parametrize("p", PRIMES)
def test_idempotent_algebra_random(p):
    rng = Random(1500 + p)
    prec = 32
    for _ in range(8):
        n = rng.randrange(2, min(p, 5) + 1)
        a = sample_certifiable_matrix(rng, p, prec, n)
        cert = certify_strongly_normal(a)
        d = cert.precision
        ident = PadicMatrix.identity(n, p, d)
        zero = PadicMatrix.diagonal([0] * n, p, d)
        total = zero
        recon = zero
        for lam, e in zip(cert.eigenvalues, cert.projectors):
            assert (e @ e).congruent(e, d)
            assert e.op_norm() == Valuation.exact(0)
            total = total + e
            recon = recon + lam * e
        for e, f in combinations(cert.projectors, 2):
            assert (e @ f).congruent(zero, d)
        assert total.congruent(ident, d)
        assert recon.congruent(a, d)
        # eigen relation A E_i = lam_i E_i
        for lam, e in zip(cert.eigenvalues, cert.projectors):
            assert (a @ e).congruent(lam * e, d)


def test_spectral_measure():
    rng = Random(9)
    a = sample_certifiable_matrix(rng, 7, 24, 3)
    cert = certify_strongly_normal(a)
    ident = PadicMatrix.identity(3, 7, cert.precision)
    assert cert.spectral_measure(range(3)).congruent(ident, cert.precision)
    assert cert.spectral_measure([]).is_zero()
    # finite additivity over every pair of disjoint subsets of a 3-point spectrum
    indices = {0, 1, 2}
    subsets = [
        frozenset(c) for k in range(4) for c in combinations(indices, k)
    ]
    for s1 in subsets:
        for s2 in subsets:
            if s1 & s2:
                continue
            lhs = cert.spectral_measure(s1 | s2)
            rhs = cert.spectral_measure(s1) + cert.spectral_measure(s2)
            assert lhs.congruent(rhs, cert.precision)
    for out_of_range in ([3], [0, -1]):
        with pytest.raises(IndexError):
            cert.spectral_measure(out_of_range)
    assert cert.spectral_measure([0]) == cert.projectors[0]


def test_functional_calculus_basics():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)
    assert cert.functional_calculus(lambda lam: lam).congruent(a, 32)
    ident = PadicMatrix.identity(2, 5, 32)
    assert cert.functional_calculus(lambda lam: 1).congruent(ident, 32)
    assert cert.functional_calculus(lambda lam: lam * lam).congruent(a @ a, 32)
    assert cert.functional_calculus(lambda lam: lam + 1).congruent(a + ident, 32)
    # spectral_operator owns the precision: the least of S, S^-1 and the
    # values; it takes any iterable, one value per eigenvalue
    lams = cert.eigenvalues
    low = cert.spectral_operator([lams[0].truncate_to(9), lams[1]])
    assert low.prec == 9 and low.congruent(a, 9)
    assert low == cert.spectral_operator(iter([lams[0].truncate_to(9), lams[1]]))
    with pytest.raises(DimensionMismatch):
        cert.spectral_operator(lams[:1])


@pytest.mark.parametrize("p", PRIMES)
def test_functional_calculus_norm_bound(p):
    # |phi(A)| <= sup |phi(lambda_i)| on random polynomials
    rng = Random(1600 + p)
    a = sample_certifiable_matrix(rng, p, 24, 2)
    cert = certify_strongly_normal(a)
    for _ in range(25):
        coeffs = [sample_padic(rng, p, 24) for _ in range(4)]

        def phi(lam, cs=coeffs):
            acc = PadicInt.zero(lam.p, lam.prec)
            for c in reversed(cs):
                acc = acc * lam + c
            return acc

        bound = min(phi(lam).valuation() for lam in cert.eigenvalues)
        assert cert.functional_calculus(phi).op_norm() >= bound


def test_spectrum_pushforward():
    # certifying phi(A) finds exactly {phi(lambda_i)} when residues stay distinct
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)
    squared = cert.functional_calculus(lambda lam: lam * lam)
    cert2 = certify_strongly_normal(squared)
    expected = sorted((lam * lam).residue for lam in cert.eigenvalues)
    assert [e.residue for e in cert2.eigenvalues] == expected
    # and the projectors are reused: phi does not move the idempotents
    for e in cert.projectors:
        assert any(e.congruent(f, cert2.precision) for f in cert2.projectors)


def test_functional_calculus_composition():
    # psi(phi(A)) via one certificate == certify(phi(A)) then apply psi
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)

    def phi(lam):
        return lam * lam

    def psi(mu):
        return mu * mu * mu + mu + 7

    direct = cert.functional_calculus(lambda lam: psi(phi(lam)))
    staged = certify_strongly_normal(
        cert.functional_calculus(phi)
    ).functional_calculus(psi)
    assert direct.congruent(staged, 32)


@pytest.mark.parametrize("p", PRIMES)
def test_orthogonality_identity(p):
    rng = Random(1700 + p)
    a = sample_certifiable_matrix(rng, p, 24, 2)
    cert = certify_strongly_normal(a)
    for _ in range(100):
        vec = [sample_padic(rng, p, 24) for _ in range(2)]
        assert cert.verify_orthogonality(vec)
    assert cert.verify_orthogonality([PadicInt.zero(p, 24)] * 2)
    e1 = [PadicInt.one(p, 24), PadicInt.zero(p, 24)]
    assert cert.verify_orthogonality(e1)
    # int entries are read at the basis precision, as PadicInts are
    assert cert.verify_orthogonality([1, p]) == cert.verify_orthogonality(
        [PadicInt(1, p, 24), PadicInt(p, p, 24)]
    )
    with pytest.raises(DimensionMismatch):
        cert.verify_orthogonality([PadicInt.one(p, 24)])


def test_verify_catches_corruption():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)
    s = cert.basis
    col0 = [row[0] for row in s.rows()]
    repeated = PadicMatrix([[c, c] for c in col0], 5, s.prec)
    bad = StrongNormalCertificate(a, cert.eigenvalues, repeated)
    with pytest.raises(CertificationFailed, match="A S != S D"):
        bad.verify()
    swapped = StrongNormalCertificate(a, tuple(reversed(cert.eigenvalues)), s)
    with pytest.raises(CertificationFailed, match="A S != S D"):
        swapped.verify()
    nudged = s + PadicMatrix([[0, 0], [5**31, 0]], 5, s.prec)
    with pytest.raises(CertificationFailed, match="A S != S D"):
        StrongNormalCertificate(a, cert.eigenvalues, nudged).verify()
    # a column times p keeps A S = S D but leaves S singular mod p
    scaled = s.scale_columns([5, 1])
    assert (a @ scaled).congruent(scaled.scale_columns(cert.eigenvalues), s.prec)
    with pytest.raises(CertificationFailed, match="S mod p is singular"):
        StrongNormalCertificate(a, cert.eigenvalues, scaled).verify()


def test_certificate_serialization():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    cert = certify_strongly_normal(a)
    back = StrongNormalCertificate.from_dict(cert.to_dict())
    assert back.matrix == a
    assert back.eigenvalues == cert.eigenvalues
    assert back.projectors == cert.projectors
    back.verify()
    # reading verifies: a wrong eigenvalue is refused as malformed input
    doc = cert.to_dict()
    doc["eigenvalues"][0]["val"] = str(int(doc["eigenvalues"][0]["val"]) + 5**30)
    with pytest.raises(ValueError, match="certificate does not verify"):
        StrongNormalCertificate.from_dict(doc)


_BUNDLE = Path(__file__).resolve().parent / "fixtures" / "cli" / "p5_prec32_n3" / "bundle.json"


_DISAGREEING_PARTS = {
    "eigenvalue-over-7": (
        lambda cert: cert["eigenvalues"][0].update(p=7),
        PrimeMismatch,
        "^certificate data must share the matrix prime$",
    ),
    "basis-2x2": (
        lambda cert: cert.update(basis=PadicMatrix.identity(2, 5, 32).to_dict()),
        DimensionMismatch,
        "^basis columns do not match the dimension 3$",
    ),
    "two-eigenvalues": (
        lambda cert: cert["eigenvalues"].pop(),
        DimensionMismatch,
        "^2 eigenvalues in dimension 3$",
    ),
}


@pytest.mark.parametrize("case", _DISAGREEING_PARTS.values(), ids=_DISAGREEING_PARTS.keys())
def test_certificate_parts_that_disagree(case):
    # a certificate whose parts disagree in prime or dimension is refused by
    # the constructor's own check, as a PrimeMismatch or DimensionMismatch
    corrupt, error, match = case
    cert = json.loads(_BUNDLE.read_text())["certificate"]
    corrupt(cert)
    with pytest.raises(error, match=match):
        StrongNormalCertificate.from_dict(cert)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 31]),
    prec=st.integers(2, 64),
    n=st.integers(1, 8),
    zero=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_certificate_round_trip(p, prec, n, zero, seed):
    # a certificate file holds no S^-1: the read-back certificate equals the
    # written one, inverts its S exactly, and gives the same group values
    rng = Random(seed)
    n = min(n, p)
    if zero:  # the zero matrix's: a lone eigenvalue 0 owns every column of S = I
        ident = PadicMatrix.identity(n, p, prec)
        cert = StrongNormalCertificate(ident - ident, [PadicInt.zero(p, prec)], ident)
    elif n == 1:
        cert = certify_strongly_normal(PadicMatrix([[rng.randrange(p**prec)]], p, prec))
    else:
        cert = certify_strongly_normal(sample_certifiable_matrix(rng, p, prec, n))
    doc = cert.to_dict()
    assert "basis_inverse" not in doc
    back = StrongNormalCertificate.from_dict(doc)
    assert back == cert
    s, t, ident = back.basis, back.basis_inverse, PadicMatrix.identity(n, p, prec)
    assert s @ t == ident and t @ s == ident
    budget = SeriesBudget(prec)
    g, g_back = OneParamGroup(cert, budget), OneParamGroup(back, budget)
    s1 = sample_principal_unit(rng, p, prec)
    assert g_back.evaluate(s1) == g.evaluate(s1)
    u1p, u1p_back = (x.evaluate(1 + p).matrix for x in (g, g_back))
    assert u1p_back == u1p
    assert stone_recover(u1p_back, budget) == stone_recover(u1p, budget)


def _eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _lift_root_by_digits(coeffs, r, p, prec):
    """The root of f that is r mod p, found one p-adic digit at a time.

    Each step tries all p candidates for the next digit and requires
    exactly one to keep f(x) = 0 mod p^(k+1), as for a simple root.
    """
    x = r
    for k in range(1, prec):
        step = p**k
        fits = [
            y for y in range(x, x + p * step, step) if _eval(coeffs, y) % (p * step) == 0
        ]
        assert len(fits) == 1
        x = fits[0]
    return PadicInt(x, p, prec)


def _lagrange_reference(a):
    """Eigenvalues as roots of the oracle char poly lifted digit by digit,
    projectors as Lagrange products prod_{j != i} (A - lam_j I) / (lam_i - lam_j).

    No library eigenanalysis is used: the char poly comes from cofactor
    expansion over Z on A's residues, and its roots mod p from a scan."""
    f = oracle_char_poly(a.rows())
    residues = [r for r in range(a.p) if _eval(f, r) % a.p == 0]
    lams = [_lift_root_by_digits(f, r, a.p, a.prec) for r in residues]
    ident = PadicMatrix.identity(a.n, a.p, a.prec)
    projectors = []
    for i, lam_i in enumerate(lams):
        num, den = ident, PadicInt.one(a.p, a.prec)
        for j, lam_j in enumerate(lams):
            if j != i:
                num = num @ (a - lam_j * ident)
                den = den * (lam_i - lam_j)
        projectors.append(num * den.inverse())
    return lams, projectors


@pytest.mark.parametrize("p", PRIMES)
def test_eigenbasis_matches_lagrange_reference(p):
    rng = Random(1800 + p)
    for _ in range(6):
        n = rng.randrange(2, min(p, 5) + 1)
        prec = rng.choice([1, 2, 7, 32])
        a = sample_certifiable_matrix(rng, p, prec, n)
        cert = certify_strongly_normal(a)
        lams, projectors = _lagrange_reference(a)
        assert cert.precision == prec
        assert list(cert.eigenvalues) == lams
        assert list(cert.projectors) == projectors


def test_construction_p67_n32():
    rng = Random(1900)
    p, prec, n = 67, 32, 32
    mod = p**prec
    residues = rng.sample(range(p), n)
    d = [r + p * rng.randrange(p ** (prec - 1)) for r in residues]
    s = sample_invertible_matrix(rng, p, prec, n)
    s_inv = s.inverse()
    a = s.scale_columns(d) @ s_inv
    cert = certify_strongly_normal(a)
    order = sorted(range(n), key=lambda j: d[j] % p)
    assert cert.precision == prec
    assert [lam.residue for lam in cert.eigenvalues] == [d[j] for j in order]
    sr, tr = s.rows(), s_inv.rows()
    for k, j in enumerate(order):
        e = cert.spectral_measure([k]).rows()
        expected = [[sr[r][j] * tr[j][c] % mod for c in range(n)] for r in range(n)]
        assert [list(row) for row in e] == expected


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    prec=st.integers(1, 24),
    extra=st.integers(1, 8),
    data=st.data(),
)
def test_digits_beyond_precision_do_not_matter(p, seed, prec, extra, data):
    rng = Random(seed)
    n = rng.randrange(2, min(p, 4) + 1)
    a = sample_certifiable_matrix(rng, p, prec, n)
    t = data.draw(
        st.lists(
            st.lists(st.integers(0, p**extra - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    moved = PadicMatrix(
        [[x + p**prec * y for x, y in zip(r, ty)] for r, ty in zip(a.rows(), t)],
        p,
        prec + extra,
    )
    cert = certify_strongly_normal(a)
    cert2 = certify_strongly_normal(moved)
    d = cert.precision
    assert d == prec
    assert [lam.truncate_to(d) for lam in cert2.eigenvalues] == list(cert.eigenvalues)
    for k in range(n):
        e2 = cert2.spectral_measure([k]).truncate_to(d)
        assert e2 == cert.spectral_measure([k])


@pytest.mark.parametrize("p", [5, 7])
def test_verify_rejects_corruptions_random(p):
    rng = Random(2000 + p)
    prec = 16
    for _ in range(4):
        a = sample_certifiable_matrix(rng, p, prec, 3)
        cert = certify_strongly_normal(a)
        s = cert.basis
        rows = [list(r) for r in s.rows()]
        for r in rows:
            r[1] = r[0]
        cases = [
            (cert.eigenvalues, PadicMatrix(rows, p, prec)),
            ((cert.eigenvalues[1], cert.eigenvalues[0], cert.eigenvalues[2]), s),
        ]
        for i in range(3):
            bump = [[p ** (prec - 1) if (r, c) == (i, 2 - i) else 0 for c in range(3)]
                    for r in range(3)]
            cases.append((cert.eigenvalues, s + PadicMatrix(bump, p, prec)))
            # column i times p: A S = S D, S singular mod p
            cases.append((cert.eigenvalues, s.scale_columns([p if j == i else 1 for j in range(3)])))
        for eigenvalues, basis in cases:
            with pytest.raises(CertificationFailed):
                StrongNormalCertificate(a, eigenvalues, basis).verify()


def _refuses(f, error) -> bool:
    try:
        f()
    except error:
        return True
    return False


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    prec=st.integers(2, 12),
    n=st.integers(1, 9),
    shape=st.sampled_from(["random", "invertible", "column-plus-p", "column-times-p"]),
    seed=st.integers(0, 2**32),
)
def test_verify_refuses_exactly_the_singular_bases(p, prec, n, shape, seed):
    # A = lam I gives A S = S D for every S, so S's rank mod p alone decides:
    # verify and from_dict refuse exactly the S whose inverse is refused.
    # Column j = column i + p t is singular mod p with no zero column, which
    # a check of each column alone would pass
    rng = Random(seed)
    mod = p**prec
    if shape == "invertible":
        rows = [list(r) for r in sample_invertible_matrix(rng, p, prec, n).rows()]
    else:
        rows = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    planted = shape == "column-times-p" or (shape == "column-plus-p" and i != j)
    for r in rows:
        if shape == "column-plus-p" and i != j:
            r[j] = (r[i] + p * rng.randrange(mod)) % mod
        elif shape == "column-times-p":
            r[j] = p * r[j] % mod
    s = PadicMatrix(rows, p, prec)
    lam = PadicInt(rng.randrange(mod), p, prec)
    cert = StrongNormalCertificate(PadicMatrix.diagonal([lam] * n, p, prec), [lam], s)
    singular = _refuses(s.inverse, DivisionByHigherValuation)
    assert singular or not planted
    assert _refuses(cert.verify, CertificationFailed) == singular
    doc = cert.to_dict()
    assert _refuses(lambda: StrongNormalCertificate.from_dict(doc), ValueError) == singular


def _sourced_certificate(source, rng, p, prec, n):
    """A certificate that ``source`` makes: certify, make_unitary of p A or
    of 0, stone_recover of I, or the certificate of U(1)."""
    if n == 1:
        a = PadicMatrix([[rng.randrange(p**prec)]], p, prec)
    else:
        a = sample_certifiable_matrix(rng, p, prec, n)
    budget = SeriesBudget(prec)
    if source == "certify":
        return certify_strongly_normal(a)
    if source == "unitary":
        return make_unitary(PadicMatrix([[p * x for x in r] for r in a.rows()], p, prec))
    if source == "zero":
        return make_unitary(PadicMatrix.diagonal([0] * n, p, prec))
    if source == "stone-identity":
        return stone_recover(PadicMatrix.identity(n, p, prec), budget).cert
    return OneParamGroup(certify_strongly_normal(a), budget).evaluate(1)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 31]),
    prec=st.integers(2, 48),
    n=st.integers(1, 6),
    source=st.sampled_from(["certify", "unitary", "zero", "stone-identity", "evaluate-one"]),
    older=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_certificate_file_holds_three_fields(p, prec, n, source, older, seed):
    # a certificate file is A, S and the eigenvalues; read back, with or
    # without the "multiplicities" key older versions wrote, it is the
    # certificate cut to its precision, which is the certificate itself
    # when its parts share one precision
    rng = Random(seed)
    n = min(n, p)
    cert = _sourced_certificate(source, rng, p, prec, n)
    doc = cert.to_dict()
    assert sorted(doc) == ["basis", "eigenvalues", "matrix"]
    if older:
        k = len(cert.eigenvalues)
        doc["multiplicities"] = [1] * k if k == n else [n]
    back = StrongNormalCertificate.from_dict(doc)
    d = cert.precision
    cut = StrongNormalCertificate(
        cert.matrix.truncate_to(d),
        [e.truncate_to(d) for e in cert.eigenvalues],
        cert.basis.truncate_to(d),
    )
    assert back == cut
    if len({x.prec for x in (cert.matrix, cert.basis, *cert.eigenvalues)}) == 1:
        assert back == cert
    assert StrongNormalCertificate.from_dict(back.to_dict()) == back


def test_zero_matrix_certificate_keeps_one_spectral_point():
    # the lone eigenvalue 1 of U = I owns all three columns of S = I
    u = make_unitary(PadicMatrix.diagonal([0] * 3, 5, 16))
    assert u.eigenvalues == (PadicInt(1, 5, 16),)
    assert u.projectors == (PadicMatrix.identity(3, 5, 16),)
    u.verify()


def test_certificate_shape_checks():
    # 1 or n eigenvalues, and an n x n basis
    a = PadicMatrix([[0, 1, 0], [2, 1, 0], [0, 0, 3]], 5, 32)
    cert = certify_strongly_normal(a)
    s = cert.basis
    with pytest.raises(DimensionMismatch):
        StrongNormalCertificate(a, cert.eigenvalues[:2], s)
    with pytest.raises(DimensionMismatch):
        StrongNormalCertificate(a, cert.eigenvalues * 2, s)
    with pytest.raises(DimensionMismatch):
        StrongNormalCertificate(a, cert.eigenvalues, PadicMatrix.identity(2, 5, 32))
    with pytest.raises(ValueError):
        StrongNormalCertificate.from_dict({"matrix": a.to_dict()})


def _reference_lift(a, start, residues):
    """The eigenbasis lift on PadicMatrix objects at full precision: each
    step multiplies e-digit matrices, as before the half-precision
    corrections, so it shares no grid arithmetic with the code under test."""
    p, n, target = a.p, a.n, a.prec
    s = PadicMatrix(start, p, 1)
    t = s.inverse()
    d = list(residues)
    g = [[pow(dj - di, -1, p) if dj != di else 0 for dj in d] for di in d]
    e = 1
    while e < target:
        e = min(2 * e, target)
        mod = p**e
        s, t = s.at_prec(e), t.at_prec(e)
        c = (t @ (a.truncate_to(e) @ s - s.scale_columns(d))).rows()
        x = [[cij * gij for cij, gij in zip(ci, gi)] for ci, gi in zip(c, g)]
        d = [(di + c[i][i]) % mod for i, di in enumerate(d)]
        g = [
            [gij * (2 - (dj - di) * gij) % mod for dj, gij in zip(d, gi)]
            for di, gi in zip(d, g)
        ]
        s = s + s @ PadicMatrix(x, p, e)
        t = t + t @ (PadicMatrix.identity(n, p, e) - s @ t)
    return s, t, [PadicInt(di, p, target) for di in d]


def _check_lift(a):
    """The lift's S and eigenvalues, and the certificate's S^-1, equal the
    reference's S, eigenvalues and T."""
    h, m = kernels.hessenberg(a.truncate_to(1).rows(), a.p)
    residues = sorted(r for r, _ in kernels.roots(kernels.char_poly(h, a.p), a.p))
    start = list(zip(*kernels.eigenvectors(h, m, residues, a.p)))
    s, t, eigenvalues = _reference_lift(a, start, residues)
    assert spectral._lift_eigenbasis(a, start, residues) == (s, eigenvalues)
    cert = certify_strongly_normal(a)
    assert (cert.basis, list(cert.eigenvalues), cert.basis_inverse) == (s, eigenvalues, t)


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 31]),
    prec=st.sampled_from([1, 2, 3, 7, 33, 63, 127, 128]),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_lift_matches_full_precision_reference(p, prec, n, seed):
    rng = Random(seed)
    n = min(n, p)
    if n == 1:
        a = PadicMatrix([[rng.randrange(p**prec)]], p, prec)
    else:
        a = sample_certifiable_matrix(rng, p, prec, n)
    _check_lift(a)


def test_lift_matches_full_precision_reference_p31_n16():
    _check_lift(sample_certifiable_matrix(Random(2100), 31, 128, 16))


def _certify_with_a_moved_product(monkeypatch, a, which):
    """Certify A with one entry of the ``which``-th product run mod p^4
    moved by p, expecting a refusal; return, for each product from the
    moved one on, whether it packed its rows.

    The products mod p^4 are those of the step from h = 2 to 4 digits that
    multiply 4-digit entries: first A S, then S T (T R', S X' and T Y' run
    mod p^2), whatever ran before the lift.  Moving an entry of A S or S T
    by p^(h-1) leaves A S - S D or I - S T nonzero mod p^h.
    """
    step, seen, run, packs = a.p**4, [0], [], [0]
    kernel, pack = kernels.grid_matmul, kernels._packed

    def corrupted(x, y, mod):
        packed = packs[0]
        out = kernel(x, y, mod)
        seen[0] += mod == step
        moving = not run and mod == step and seen[0] == which
        if moving:
            out[0][0] += a.p
        if run or moving:
            run.append(packs[0] > packed)
        return out

    def counted(*args):
        packs[0] += 1
        return pack(*args)

    monkeypatch.setattr(kernels, "grid_matmul", corrupted)
    monkeypatch.setattr(kernels, "_packed", counted)
    with pytest.raises(CertificationFailed, match="not divisible by p\\^h"):
        certify_strongly_normal(a)
    return run


def test_lift_refuses_a_residual_it_cannot_divide(monkeypatch):
    # the first product mod p^4 is A S in the step from h = 2 to 4 digits,
    # and the refusal comes before the next product
    a = sample_certifiable_matrix(Random(2200), 7, 16, 3)
    assert _certify_with_a_moved_product(monkeypatch, a, 1) == [False]


@pytest.mark.parametrize("p, prec, n", [(7, 16, 3), (31, 128, 16)])
def test_lift_refuses_an_inverse_residual_it_cannot_divide(monkeypatch, p, prec, n):
    # the second product mod p^4 is S T in the step from h = 2 to 4 digits,
    # the refusal comes before the next product, and at n = 16 S T packs
    # its rows
    a = sample_certifiable_matrix(Random(2200), p, prec, n)
    assert _certify_with_a_moved_product(monkeypatch, a, 2) == [n >= 12]
