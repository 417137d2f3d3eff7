"""Matrix norm, reduction, characteristic polynomials, Hensel lifting."""

from fractions import Fraction
from random import Random

import pytest

from padicspectral import (
    CharPoly,
    PadicInt,
    PadicMatrix,
    ResidueMatrix,
    Valuation,
    hensel_lift_root,
    is_nondegenerate,
    vector_norm,
)
from padicspectral.errors import (
    DimensionMismatch,
    DivisionByHigherValuation,
    NotASimpleRoot,
    PrecisionExceeded,
    PrimeMismatch,
)
from padicspectral.linalg import _char_poly_int
from padicspectral.oracle import oracle_char_poly
from padicspectral.sampling import sample_certifiable_matrix

PRIMES = [3, 5, 7]


def test_op_norm_examples():
    assert PadicMatrix([[5, 1], [0, 25]], 5, 8).op_norm() == Valuation.exact(0)
    assert PadicMatrix.zeros(2, 5, 8).op_norm() == Valuation.at_least(8)
    assert PadicMatrix([[5, 10], [25, 5]], 5, 8).op_norm() == Valuation.exact(1)


def test_ring_op_examples():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 8)
    ident = PadicMatrix.identity(2, 5, 8)
    assert a @ ident == a
    assert PadicMatrix.diagonal([2, 3], 5, 8) @ PadicMatrix.diagonal(
        [5, 7], 5, 8
    ) == PadicMatrix.diagonal([10, 21], 5, 8)
    assert ident.op_norm() == Valuation.exact(0)


@pytest.mark.parametrize("p", PRIMES)
def test_norm_ultrametric(p):
    rng = Random(1100 + p)
    prec = 10
    for _ in range(100):
        a = PadicMatrix(
            [[rng.randrange(p**prec) for _ in range(3)] for _ in range(3)], p, prec
        )
        b = PadicMatrix(
            [[rng.randrange(p**prec) for _ in range(3)] for _ in range(3)], p, prec
        )
        # submultiplicative: v(AB) >= v(A) + v(B)
        assert (a @ b).op_norm() >= (a.op_norm() + b.op_norm()).cap(prec)
        # ultrametric additive bound
        assert (a + b).op_norm() >= min(a.op_norm(), b.op_norm())


def test_reduction_examples():
    assert PadicMatrix([[6, 1], [0, 7]], 5, 8).reduction() == ResidueMatrix(
        [[1, 1], [0, 2]], 5
    )
    a = PadicMatrix([[0, 1], [2, 1]], 5, 8)
    assert (5 * a).reduction() == ResidueMatrix([[0, 0], [0, 0]], 5)
    b = PadicMatrix([[3, 4], [9, 11]], 5, 8)
    lhs = (a + b).reduction()
    rhs = ResidueMatrix(
        [
            [x + y for x, y in zip(r1, r2)]
            for r1, r2 in zip(a.reduction().rows(), b.reduction().rows())
        ],
        5,
    )
    assert lhs == rhs


def test_nondegeneracy():
    assert not is_nondegenerate(PadicMatrix.identity(2, 5, 4).reduction())
    assert is_nondegenerate(ResidueMatrix([[1, 1], [0, 1]], 5))
    assert not is_nondegenerate(ResidueMatrix([[0, 0], [0, 0]], 5))
    assert not is_nondegenerate(ResidueMatrix([[3, 0], [0, 3]], 5))


def test_residue_char_poly_and_roots():
    ahat = PadicMatrix([[0, 1], [2, 1]], 5, 8).reduction()
    f = ahat.char_poly()
    # x^2 - x - 2 = (x - 2)(x + 1)
    assert f.coeffs == (3, 4, 1)
    assert ahat.eigenvalues() == [(2, 1), (4, 1)]

    ident_hat = PadicMatrix.identity(2, 5, 8).reduction()
    assert ident_hat.eigenvalues() == [(1, 2)]

    # x^2 - x - 1 has the double root 3 mod 5 (derivative 2x-1 vanishes there)
    fib = PadicMatrix([[0, 1], [1, 1]], 5, 8).reduction()
    assert fib.char_poly().coeffs == (4, 4, 1)
    assert fib.eigenvalues() == [(3, 2)]
    assert fib.char_poly().derivative_at(3, 1) == 0

    # irreducible residue polynomial: no roots at all
    comp = ResidueMatrix([[0, 4], [1, 4]], 5)  # companion of x^2 + x + 1
    assert comp.eigenvalues() == []


@pytest.mark.parametrize("p", PRIMES)
def test_char_poly_against_cofactor_oracle(p):
    rng = Random(1200 + p)
    for n in (2, 3, 4):
        for _ in range(20):
            grid = [[rng.randrange(p**6) for _ in range(n)] for _ in range(n)]
            mine = PadicMatrix(grid, p, 6).char_poly()
            ref = oracle_char_poly(grid)
            assert list(mine.coeffs) == [c % p**6 for c in ref]


def test_hensel_examples():
    f = CharPoly([-2, -1, 1], 5, 32)  # x^2 - x - 2
    lam = hensel_lift_root(f, 2)
    assert lam == PadicInt(2, 5, 32)  # integer root, iteration stationary

    g = CharPoly([-2, 0, 1], 7, 32)  # x^2 - 2 over Z_7
    r = hensel_lift_root(g, 3)
    assert r.reduce_mod_p() == 3
    assert (r * r).congruent(PadicInt(2, 7, 32), 32)

    h = CharPoly([-1, -1, 1], 5, 32)  # x^2 - x - 1, double root 3 mod 5
    with pytest.raises(NotASimpleRoot):
        hensel_lift_root(h, 3)
    with pytest.raises(ValueError):
        hensel_lift_root(f, 1)  # not a root at all


@pytest.mark.parametrize("p", PRIMES)
def test_hensel_on_random_char_polys(p):
    rng = Random(1300 + p)
    for _ in range(25):
        n = rng.choice([2, 3])
        grid = [[rng.randrange(p**16) for _ in range(n)] for _ in range(n)]
        a = PadicMatrix(grid, p, 16)
        f = a.char_poly()
        for r, mult in a.reduction().eigenvalues():
            if mult > 1 or f.derivative_at(r, 1) == 0:
                continue
            lam = hensel_lift_root(f, r)
            assert f.evaluate(lam.residue) == 0
            assert lam.reduce_mod_p() == r


def test_matrix_structure_errors():
    with pytest.raises(DimensionMismatch):
        PadicMatrix([[1, 2], [3, 4], [5, 6]], 5, 4)
    with pytest.raises(DimensionMismatch):
        PadicMatrix([[1, 2]], 5, 4)
    a = PadicMatrix.identity(2, 5, 4)
    with pytest.raises(DimensionMismatch):
        a @ PadicMatrix.identity(3, 5, 4)
    with pytest.raises(PrimeMismatch):
        a @ PadicMatrix.identity(2, 7, 4)
    with pytest.raises(DimensionMismatch):
        a.matvec([PadicInt(1, 5, 4)])


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("PADIC_MAX_DIM", "2")
    with pytest.raises(DimensionMismatch):
        PadicMatrix.identity(3, 5, 4)
    monkeypatch.delenv("PADIC_MAX_DIM")
    PadicMatrix.identity(3, 5, 4)


def test_matvec_and_vector_norm():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 8)
    v = [PadicInt(1, 5, 8), PadicInt(5, 5, 8)]
    out = a.matvec(v)
    assert [x.residue for x in out] == [5, 7]
    assert vector_norm(v) == Valuation.exact(0)
    assert vector_norm([PadicInt(0, 5, 8), PadicInt(25, 5, 8)]) == Valuation.exact(2)
    assert vector_norm([PadicInt.zero(5, 8)] * 2) == Valuation.at_least(8)


def test_matrix_power():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 8)
    assert a**0 == PadicMatrix.identity(2, 5, 8)
    assert a**1 == a
    assert a**5 == a @ a @ a @ a @ a


def test_scalar_division():
    a = PadicMatrix([[5, 10], [25, 50]], 5, 8)
    q = a.divide_exact_scalar(PadicInt(5, 5, 8))
    assert q.prec == 7
    assert q.rows() == ((1, 2), (5, 10))
    with pytest.raises(DivisionByHigherValuation):
        PadicMatrix([[1, 0], [0, 1]], 5, 8).divide_exact_scalar(PadicInt(5, 5, 8))


@pytest.mark.parametrize("p", PRIMES)
def test_inverse(p):
    from padicspectral.sampling import sample_invertible_matrix

    rng = Random(1400 + p)
    for n in (2, 3, 4):
        s = sample_invertible_matrix(rng, p, 12, n)
        assert s @ s.inverse() == PadicMatrix.identity(n, p, 12)
        assert s.inverse() @ s == PadicMatrix.identity(n, p, 12)
    with pytest.raises(DivisionByHigherValuation):
        PadicMatrix([[p, 0], [0, 1]], p, 8).inverse()


def test_matrix_serialization():
    a = PadicMatrix([[0, 1], [2, 1]], 5, 32)
    d = a.to_dict()
    assert d["entries"] == [["0", "1"], ["2", "1"]]
    assert PadicMatrix.from_dict(d) == a
    with pytest.raises(DimensionMismatch):
        PadicMatrix.from_dict({"p": 5, "prec": 4, "n": 3, "entries": [["1"]]})


def test_matrix_congruence_precision_guard():
    a = PadicMatrix.identity(2, 5, 4)
    with pytest.raises(PrecisionExceeded):
        a.congruent(a, 5)


@pytest.mark.parametrize("p", PRIMES)
def test_residue_eigenvectors(p):
    rng = Random(2100 + p)
    for _ in range(10):
        n = rng.randrange(2, p + 1)
        ahat = sample_certifiable_matrix(rng, p, 4, n).reduction()
        for r, _ in ahat.eigenvalues():
            v = ahat.eigenvector(r)
            assert any(v)
            av = [sum(x * y for x, y in zip(row, v)) % p for row in ahat.rows()]
            assert av == [r * x % p for x in v]
    with pytest.raises(ValueError):
        ResidueMatrix([[1, 0], [0, 2]], 5).eigenvector(3)


def test_scale_columns():
    a = PadicMatrix([[1, 2], [3, 4]], 5, 8)
    assert a.scale_columns([2, 0]) == a @ PadicMatrix.diagonal([2, 0], 5, 8)
    scaled = a.scale_columns([PadicInt(3, 5, 6), 1])
    assert scaled == PadicMatrix([[3, 2], [9, 4]], 5, 6)
    with pytest.raises(DimensionMismatch):
        a.scale_columns([1])


class _WrongRoots(CharPoly):
    """A polynomial whose evaluation at full precision never vanishes."""

    def evaluate(self, x, digits=None):
        return 0 if digits == 1 else 1


def test_correctness_guards_raise():
    # these are exceptions, not asserts, so they survive python -O
    with pytest.raises(ArithmeticError):
        _char_poly_int([[Fraction(1, 2)]])
    with pytest.raises(ArithmeticError):
        hensel_lift_root(_WrongRoots([3, 1], 5, 8), 2)
