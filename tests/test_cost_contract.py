"""Cost contract: full-size matrix products per public operation.

Counts of PadicMatrix.__matmul__ calls are exact on any host, so they
can gate where timings cannot.  Lifting an eigenbasis to N digits takes
e(N) = ceil(log2 N) Newton steps of 5 products each, and verifying a
certificate takes 2 more.  Certificates derived from a verified one
(evaluate, make_unitary, stone) are not verified again.  The lift
inverts each difference of residue eigenvalues once, mod p, and no
divisor after that.
"""

from random import Random

import pytest

from padicspectral import (
    OneParamGroup,
    PadicMatrix,
    SeriesBudget,
    certify_strongly_normal,
    make_unitary,
    stone_recover,
)
from padicspectral import spectral
from padicspectral.sampling import sample_certifiable_matrix, sample_principal_unit


def _steps(digits):
    return (digits - 1).bit_length()


@pytest.fixture
def matmuls(monkeypatch):
    """cost(f) runs f and returns its matmul count; the method is restored after."""
    calls = [0]
    inner = PadicMatrix.__matmul__

    def counted(self, other):
        calls[0] += 1
        return inner(self, other)

    monkeypatch.setattr(PadicMatrix, "__matmul__", counted)

    def cost(f):
        before = calls[0]
        f()
        return calls[0] - before

    return cost


@pytest.mark.parametrize(
    "p,prec,n,w,pinned",
    [
        (31, 128, 16, 1, (37, 1, 4, 2, 37, 38)),
        (7, 64, 5, 2, None),
        (5, 33, 3, 1, None),
    ],
)
def test_matmul_counts(matmuls, p, prec, n, w, pinned):
    rng = Random(7000 + p)
    a = sample_certifiable_matrix(rng, p, prec, n)
    budget = SeriesBudget.auto(prec, p)
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
    assert counts == (
        5 * _steps(prec) + 2,
        1,
        4,
        2,
        5 * _steps(prec - w) + 2,
        5 * _steps(u1p.prec - w_stone) + 3,
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
