"""Cost contract: matrix products per public operation, and their digits.

Every matrix product, whether through PadicMatrix.__matmul__, in the
eigenbasis lift, the group checks or the inverse's blocks, runs one entry
point, kernels.grid_matmul, reached by that one binding, whichever of its
algorithms it picks, and counts of its calls are exact on any host,
so they can gate where timings cannot.
Lifting an eigenbasis to N digits takes e(N) = ceil(log2 N) Newton steps
of 5 products each, except the last, which runs 3.  Verifying a
certificate takes 1 more, A S = S D, and checks that S mod p has full
rank by forward elimination mod p, which runs no product.  Inverting S,
once per basis and only where a result reads S^-1 (evaluate, stone's
generator, the projectors), takes the inverse's Schur products where
blocks pay (none below n = 8).  Certificates derived from a verified one
(evaluate, make_unitary, stone) are not verified again, and take its
S^-1 along when it has been read.  The lift inverts each difference of
residue eigenvalues once, mod p, and no divisor after that.
Principal powers pass no pow an exponent above p^k, k from the split's
cost model, so a full-length pow per eigenvalue cannot come back.

A product's digit weight is n^3 digits(a) digits(b), with digits the
base-p length of the largest entry.  A lift step from h to 2h digits
weighs 7 h^2 n^3: A S and S T multiply 2h by h digits, and the
corrections T R', S X' and T Y' only h by h, where a full-precision
step would weigh 10 h^2 n^3.  The last step, without S T and T Y',
weighs 4 h^2 n^3.
"""

from random import Random

import pytest

from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    certify_strongly_normal,
    make_unitary,
    pexp,
    stone_recover,
    zeta_of,
)
from padicspectral import functions, kernels, spectral
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_group,
    sample_principal_unit,
)


def _steps(digits):
    return (digits - 1).bit_length()


def _inverse_products(n, p, prec):
    """The Schur products of an n x n inverse mod p^prec: six per level
    where blocks pay, and none at a Gauss-Jordan leaf."""
    if not kernels._blocks_pay(n, p, p**prec):
        return 0
    k = n // 2
    return 6 + _inverse_products(k, p, prec) + _inverse_products(n - k, p, prec)


def _certify(n, p, prec):
    """Products to certify at prec digits: the lift and verify's A S."""
    return 5 * _steps(prec) - 2 + 1


def _length(x, p):
    """The number of base-p digits of x >= 0."""
    k = 0
    while x:
        x //= p
        k += 1
    return k


@pytest.fixture
def products(monkeypatch):
    """products(f) runs f and lists (n, largest entry of a, largest of b)
    for each call of the product kernel; the kernel is restored after."""
    log = []
    kernel = kernels.grid_matmul

    def counted(a, b, mod):
        log.append((len(a), max(map(max, a)), max(map(max, b))))
        return kernel(a, b, mod)

    monkeypatch.setattr(kernels, "grid_matmul", counted)

    def run(f):
        start = len(log)
        f()
        return log[start:]

    return run


@pytest.fixture
def matmuls(products):
    """matmuls(f) runs f and returns its number of matrix products."""
    return lambda f: len(products(f))


@pytest.mark.parametrize(
    "p,prec,n,w,pinned",
    [
        (31, 128, 16, 1, (34, 1, 4, 1, 34, 53)),
        (7, 64, 5, 2, None),
        (5, 33, 3, 1, None),
    ],
)
def test_matmul_counts(matmuls, p, prec, n, w, pinned):
    rng = Random(7000 + p)
    a = sample_certifiable_matrix(rng, p, prec, n)
    budget = SeriesBudget(prec)
    g = OneParamGroup(certify_strongly_normal(a), budget)
    s1, s2 = (sample_principal_unit(rng, p, prec) for _ in range(2))
    v = sample_certifiable_matrix(rng, p, prec, n) * p**w
    u1p = g.evaluate(1 + p).matrix
    w_stone = (u1p - PadicMatrix.identity(n, p, u1p.prec)).op_norm().value
    data = g.to_dict()

    counts = (
        matmuls(lambda: certify_strongly_normal(a)),
        matmuls(lambda: g.evaluate(s1)),
        matmuls(lambda: g.verify_group_law(s1, s2)),
        matmuls(lambda: OneParamGroup.from_dict(data)),
        matmuls(lambda: make_unitary(v)),
        matmuls(lambda: stone_recover(u1p, budget)),
    )
    # from_dict verifies and inverts nothing; make_unitary reads no S^-1;
    # stone certifies V' = V / p^w, inverts its S for A = S diag S^-1, and
    # multiplies once for that A
    prec_v = u1p.prec - w_stone
    assert counts == (
        _certify(n, p, prec),
        1,
        4,
        1,
        _certify(n, p, prec - w),
        _certify(n, p, prec_v) + _inverse_products(n, p, prec_v) + 1,
    )
    if pinned is not None:
        assert counts == pinned


def test_lift_inverts_residue_differences_once(monkeypatch):
    p, prec, n = 31, 128, 16
    a = sample_certifiable_matrix(Random(7000 + p), p, prec, n)
    moduli = []

    def counted(base, exp, mod=None):
        if exp == -1:
            moduli.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(spectral, "pow", counted, raising=False)
    certify_strongly_normal(a)
    assert 0 < len(moduli) <= n * (n - 1)
    assert set(moduli) == {p}


def test_powers_pass_no_exponent_above_the_split(monkeypatch):
    exponents = []

    def counted(base, exp, mod=None):
        exponents.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(functions, "pow", counted, raising=False)

    p, prec, n = 31, 128, 16
    a = sample_certifiable_matrix(Random(7000 + p), p, prec, n)
    g = OneParamGroup(certify_strongly_normal(a), SeriesBudget(prec))
    g.evaluate(1 + 2 * p)  # v(z) = 1
    k = functions._split_point(p, prec, n, 1)
    assert k >= 1 and exponents and max(exponents) <= p**k

    p, prec = 5, 4096
    x = PadicInt(p * Random(7200).randrange(p ** (prec - 1)), p, prec)
    # log(1+p), cached, reduces its own argument by one pow of its own p^k
    functions.log_one_plus_p(p, prec + 1)
    exponents.clear()
    pexp(x, SeriesBudget(prec))
    k = functions._split_point(p, prec, 1, 1)
    assert k >= 1 and exponents and max(exponents) <= p**k


def test_power_rows_are_built_once_per_group(monkeypatch):
    # a group builds one binomial row per eigenvalue, on its first
    # evaluation, and keeps them: later evaluations and checks build none
    built = []
    row = functions._binomial_row

    def counted(b, p, steps):
        built.append(b)
        return row(b, p, steps)

    monkeypatch.setattr(functions, "_binomial_row", counted)
    rng = Random(7300)
    for p, prec, n in ((31, 128, 16), (5, 64, 4)):
        a = sample_certifiable_matrix(rng, p, prec, n)
        g = OneParamGroup(certify_strongly_normal(a), SeriesBudget(prec))
        s1, s2 = (sample_principal_unit(rng, p, prec) for _ in range(2))
        built.clear()
        g.evaluate(s1)
        assert len(built) == n == len(g.cert.eigenvalues)
        g.evaluate(s2)
        g.verify_group_law(s1, s2)
        g.lipschitz_check(s1, s2)
        assert len(built) == n
        # a group's first law check builds the rows once for its three values
        fresh = OneParamGroup(g.cert, g.budget)
        built.clear()
        fresh.verify_group_law(s1, s2)
        assert len(built) == n


def test_basis_is_inverted_once(monkeypatch):
    # S^-1 has one source, the inverse of S, found where a result first
    # reads it: neither certify's nor from_dict's verify inverts S, a group
    # inverts it on its first evaluation, and evaluate, the checks and
    # stone's derived group invert nothing after that
    inverted = []
    inverse = kernels.grid_inverse

    def counted(m, p, mod):
        inverted.append(mod)
        return inverse(m, p, mod)

    monkeypatch.setattr(kernels, "grid_inverse", counted)

    def inversions(f):
        inverted.clear()
        f()
        return len(inverted)

    p, prec, n = 31, 128, 16
    rng = Random(7400)
    a = sample_certifiable_matrix(rng, p, prec, n)
    budget = SeriesBudget(prec)
    s1, s2 = (sample_principal_unit(rng, p, prec) for _ in range(2))
    # the lift's start inverts S mod p, and verify checks S's rank mod p
    assert inversions(lambda: certify_strongly_normal(a)) == 1
    groups = [OneParamGroup(certify_strongly_normal(a), budget)]
    data = groups[0].to_dict()
    assert inversions(lambda: groups.append(OneParamGroup.from_dict(data))) == 0
    assert inversions(lambda: groups[0].evaluate(1 + p)) == 1
    u1p = groups[0].evaluate(1 + p).matrix
    # the lift's start for V's basis, and that S, read for A = S diag S^-1
    assert inversions(lambda: groups.append(stone_recover(u1p, budget))) == 2
    # the read group inverts S on its first evaluation and never again
    for g, first in zip(groups, (0, 1, 0)):
        assert inversions(lambda: g.evaluate(s1)) == first
        assert inversions(lambda: g.verify_group_law(s1, s2)) == 0
        assert inversions(lambda: g.lipschitz_check(s1, s2)) == 0
        assert inversions(lambda: g.cert.projectors) == 0


def test_certify_digit_weight(products):
    p, prec, n = 31, 128, 16
    a = sample_certifiable_matrix(Random(7000 + p), p, prec, n)
    weight = sum(
        m**3 * _length(x, p) * _length(y, p)
        for m, x, y in products(lambda: certify_strongly_normal(a))
    )
    # the lift's steps h = 1, 2, ..., 32 at 7 h^2 each and h = 64 at 4 h^2,
    # and verify's product of 128-digit entries; the rank check multiplies
    # nothing, and S is not inverted
    lift = 7 * sum(4**i for i in range(6)) + 4 * 4**6
    assert weight == n**3 * (lift + prec**2)
    assert weight == 173_355_008


def test_converge_products_grow_linearly(matmuls):
    p, prec, n = 13, 64, 6
    rng = Random(7100)
    g = sample_group(rng, p, prec, n, SeriesBudget(prec))
    s = sample_principal_unit(rng, p, prec)
    # U(1+p) once, then per digit j: B_j^p and B_j^(d_j), each at most
    # 2 (bits(p) - 1) products, and one step of the running product
    per_digit = 4 * (p.bit_length() - 1) + 1
    for max_n in (5, 10, 20, 40):
        cost = matmuls(lambda: g.digit_limit_approxes(s, range(max_n + 1)))
        assert cost <= 1 + (max_n + 1) * per_digit
    base = g.evaluate(1 + p).matrix
    digits = zeta_of(s, g.budget).digits()
    for k, approx in enumerate(g.digit_limit_approxes(s, range(4))):
        assert approx == base ** sum(d * p**j for j, d in enumerate(digits[: k + 1]))
