"""Matrices over Z_p: norm, ring operations, the product kernels, the
inverse and the reduction mod p (``truncate_to(1)``); and analysis over
F_p on grids of residues in ``kernels``: Hessenberg form, char poly,
roots and eigenvectors."""

import ast
import io
import sys
import tokenize
from collections import Counter
from itertools import accumulate
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padicspectral
from padicspectral import (
    PadicInt,
    PadicMatrix,
    Valuation,
    certify_strongly_normal,
    vector_norm,
)
from padicspectral import kernels
from padicspectral.core import unit_inverse
from padicspectral.errors import (
    DegenerateReduction,
    DimensionMismatch,
    DivisionByHigherValuation,
    PrecisionExceeded,
    PrimeMismatch,
    RepeatedResidueEigenvalue,
)
from oracle import oracle_char_poly
from padicspectral.sampling import (
    sample_certifiable_matrix,
    sample_invertible_matrix,
    sample_padic,
    sample_unit,
)

PRIMES = [3, 5, 7]


def test_op_norm_examples():
    assert PadicMatrix([[5, 1], [0, 25]], 5, 8).op_norm() == Valuation.exact(0)
    assert PadicMatrix.diagonal([0] * 2, 5, 8).op_norm() == Valuation.at_least(8)
    assert PadicMatrix([[5, 10], [25, 5]], 5, 8).op_norm() == Valuation.exact(1)
    assert PadicMatrix([[50, 0], [0, 75]], 5, 8).op_norm() == Valuation.exact(2)
    rng = Random(8)
    for _ in range(50):
        p = rng.choice(PRIMES)
        m = PadicMatrix(
            [[p ** rng.randrange(9) * rng.randrange(p**8) for _ in range(3)] for _ in range(3)], p, 8
        )
        entries = [PadicInt(x, p, 8).valuation() for row in m.rows() for x in row]
        assert m.op_norm() == min(entries)


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
        v = a.op_norm().value + b.op_norm().value
        assert (a @ b).op_norm() >= (Valuation.exact(v) if v < prec else Valuation.at_least(prec))
        # ultrametric additive bound
        assert (a + b).op_norm() >= min(a.op_norm(), b.op_norm())


def _hessenberg(grid, p):
    """(H, M) of an integer grid's reduction mod p."""
    return kernels.hessenberg([[x % p for x in row] for row in grid], p)


def _char_poly(grid, p):
    return kernels.char_poly(_hessenberg(grid, p)[0], p)


def test_reduction_examples():
    # the reduction mod p is the matrix at one digit
    assert PadicMatrix([[6, 1], [0, 7]], 5, 8).truncate_to(1) == PadicMatrix([[1, 1], [0, 2]], 5, 1)
    a = PadicMatrix([[0, 1], [2, 1]], 5, 8)
    assert (5 * a).truncate_to(1) == PadicMatrix([[0, 0], [0, 0]], 5, 1)
    b = PadicMatrix([[3, 4], [9, 11]], 5, 8)
    assert (a + b).truncate_to(1) == a.truncate_to(1) + b.truncate_to(1)
    assert (a @ b).truncate_to(1) == a.truncate_to(1) @ b.truncate_to(1)


def test_nondegeneracy():
    # a scalar reduction at n >= 2 is refused as degenerate, a non-scalar
    # one with one repeated eigenvalue as repeated, and a 1 x 1 matrix is
    # never degenerate
    for rows in ([[0, 0], [0, 0]], [[3, 0], [0, 3]]):
        with pytest.raises(DegenerateReduction):
            certify_strongly_normal(PadicMatrix(rows, 5, 4))
    for rows in ([[1, 1], [0, 1]], [[3, 0], [1, 3]]):
        with pytest.raises(RepeatedResidueEigenvalue):
            certify_strongly_normal(PadicMatrix(rows, 5, 4))
    for x in (0, 3, 5):
        assert certify_strongly_normal(PadicMatrix([[x]], 5, 4)).eigenvalues == (PadicInt(x, 5, 4),)


def test_residue_char_poly_and_roots():
    # x^2 - x - 2 = (x - 2)(x + 1)
    f = _char_poly([[0, 1], [2, 1]], 5)
    assert f == (3, 4, 1)
    assert kernels.roots(f, 5) == [(2, 1), (4, 1)]

    assert kernels.roots(_char_poly([[1, 0], [0, 1]], 5), 5) == [(1, 2)]

    # x^2 - x - 1 = (x - 3)^2 mod 5
    fib = _char_poly([[0, 1], [1, 1]], 5)
    assert fib == (4, 4, 1)
    assert kernels.roots(fib, 5) == [(3, 2)]

    # irreducible residue polynomial: no roots at all
    assert kernels.roots(_char_poly([[0, 4], [1, 4]], 5), 5) == []  # x^2 + x + 1


def _structured_grids(rng, p, n):
    """Zero, scalar, nilpotent Jordan and companion matrices of size n.

    The first three leave columns with no Hessenberg pivot."""
    c = [rng.randrange(p) for _ in range(n)]
    return [
        [[0] * n for _ in range(n)],
        [[3 if i == j else 0 for j in range(n)] for i in range(n)],
        [[int(j == i + 1) for j in range(n)] for i in range(n)],
        [[-c[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)],
    ]


def _random_grid(rng, p, n, density):
    """Integer entries below p^3 in size, each nonzero with the given odds."""
    return [
        [rng.randrange(-(p**3), p**3) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_char_poly_against_cofactor_oracle(p):
    # n runs past p, where F_p has fewer points than the degree; sparse
    # matrices also leave columns with no Hessenberg pivot
    rng = Random(1200 + p)
    for n in range(1, p + 3):
        grids = _structured_grids(rng, p, n)
        for _ in range(8):
            # the cofactor oracle costs up to n!, so large n gets sparse matrices
            density = rng.choice([1.0, 0.5, 0.2]) if n < 8 else 0.4
            grids.append(_random_grid(rng, p, n, density))
        for grid in grids:
            mine = _char_poly(grid, p)
            assert mine == tuple(c % p for c in oracle_char_poly(grid)), grid


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
    # entries and scalars are ints or PadicInts: no string, float or bool
    for bad in ("3", 2.9, True):
        with pytest.raises(TypeError, match="not an int or a PadicInt"):
            PadicMatrix([[bad, 2], [1, 1]], 5, 4)
        with pytest.raises(TypeError):
            a.scale_columns([bad, 1])
    with pytest.raises(TypeError):
        PadicMatrix.diagonal([1, False], 5, 4)


def test_dimension_cap():
    assert PadicMatrix.identity(64, 5, 4).n == 64
    with pytest.raises(DimensionMismatch):
        PadicMatrix.identity(65, 5, 4)


def test_constructor_claims_no_untracked_digits():
    # a PadicInt entry must track every digit the matrix claims
    with pytest.raises(PrecisionExceeded, match="PadicInt\\(1, p=5, prec=2\\)"):
        PadicMatrix([[PadicInt(1, 5, 2)]], 5, 10)
    assert PadicMatrix([[PadicInt(1, 5, 12)]], 5, 10) == PadicMatrix([[1]], 5, 10)
    # a scalar product keeps the scalar's precision, as scale_columns does
    a = PadicMatrix([[1, 2], [3, 4]], 5, 8)
    assert 3 * a == a * 3 == a.scale_columns([3, 3])
    assert a * PadicInt(3, 5, 2) == PadicMatrix([[3, 6], [9, 12]], 5, 2)


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


def test_matrix_power_costs_no_spare_product(monkeypatch):
    # a**1 costs no product and a**2 one: k costs a square per bit below its
    # top bit and a product per set bit after the first
    calls = [0]
    kernel = kernels.grid_matmul

    def counted(a, b, mod):
        calls[0] += 1
        return kernel(a, b, mod)

    monkeypatch.setattr(kernels, "grid_matmul", counted)
    a = sample_certifiable_matrix(Random(4100), 7, 12, 3)
    repeated = PadicMatrix.identity(3, 7, 12)
    for k in range(40):
        calls[0] = 0
        assert a**k == repeated
        assert calls[0] == max(0, k.bit_length() - 1) + max(0, k.bit_count() - 1)
        repeated = repeated @ a



def _plain_product(a, b, mod):
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in zip(*b)] for row in a]


def _factor(rng, shape, kind, bits, p):
    """An r x c grid of integers of the given bit length, shaped by ``kind``."""
    r, c = shape
    if kind == "zero":
        return [[0] * c for _ in range(r)]
    if kind == "unreduced":
        # u + p^h v with u, v < p^h, as the lift's shifted corrections leave them
        ph = p ** max(1, bits // p.bit_length())
        return [[rng.randrange(ph) + ph * rng.randrange(ph) for _ in range(c)] for _ in range(r)]
    rows = [[rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(c)] for _ in range(r)]
    if kind == "diagonal":
        return [[x if i == j else 0 for j, x in enumerate(r)] for i, r in enumerate(rows)]
    if kind == "negative":
        return [[-x if (i + j) % 3 else x for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return rows


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32),
    bits=st.tuples(
        *[st.one_of(st.sampled_from([100, 199, 200, 201, 300, 399, 400]), st.integers(1, 900))]
        * 2
    ),
    kinds=st.tuples(
        *[st.sampled_from(["dense", "zero", "diagonal", "unreduced", "negative"])] * 2
    ),
    extra=st.tuples(*[st.integers(0, 1)] * 3),
)
# the packing bound of 400 bits together, met and missed, each factor longer
@example(n=12, seed=1, bits=(200, 200), kinds=("dense", "dense"), extra=(0, 0, 0))
@example(n=12, seed=2, bits=(200, 201), kinds=("dense", "dense"), extra=(0, 0, 0))
@example(n=20, seed=3, bits=(300, 100), kinds=("dense", "unreduced"), extra=(0, 0, 0))
@example(n=20, seed=4, bits=(100, 300), kinds=("diagonal", "dense"), extra=(0, 0, 0))
@example(n=16, seed=5, bits=(100, 301), kinds=("dense", "dense"), extra=(0, 0, 0))
@example(n=16, seed=6, bits=(80, 80), kinds=("zero", "dense"), extra=(0, 0, 0))
# short entries from n = 8, packed, at the threshold and at odd n
@example(n=8, seed=12, bits=(5, 5), kinds=("dense", "dense"), extra=(0, 0, 0))
@example(n=11, seed=13, bits=(17, 3), kinds=("dense", "unreduced"), extra=(0, 0, 0))
# short entries at n >= 12 with negative ones among them: never packed
@example(n=12, seed=7, bits=(40, 40), kinds=("negative", "dense"), extra=(0, 0, 0))
@example(n=16, seed=8, bits=(40, 40), kinds=("dense", "negative"), extra=(0, 0, 0))
# an r x k by k x c product, as the blocks of an odd-sized inverse
@example(n=8, seed=9, bits=(500, 500), kinds=("dense", "dense"), extra=(0, 1, 0))
@example(n=12, seed=10, bits=(40, 60), kinds=("dense", "dense"), extra=(1, 0, 1))
@example(n=12, seed=11, bits=(60, 40), kinds=("dense", "dense"), extra=(0, 1, 1))
def test_product_kernels_agree(n, seed, bits, kinds, extra):
    # Winograd's inner product, packed rows and the plain kernel compute the
    # same integers, whichever kernel grid_matmul picks, odd n included, for
    # an r x k and a k x c factor (r, k, c each n or n + 1)
    rng = Random(seed)
    p = rng.choice([3, 5, 31])
    mod = p ** rng.randrange(1, 200)
    r, k, c = (n + e for e in extra)
    shapes = ((r, k), (k, c))
    a, b = (_factor(rng, shape, kind, m, p) for shape, kind, m in zip(shapes, kinds, bits))
    expected = _plain_product(a, b, mod)
    assert kernels._winograd(a, b, mod) == expected
    assert kernels.grid_matmul(a, b, mod) == expected
    if "negative" not in kinds:
        bits_a, bits_b = (max(map(max, x)).bit_length() for x in (a, b))
        assert kernels._packed(a, b, mod, bits_a, bits_b) == expected


def test_kernel_choice(monkeypatch):
    # Winograd runs only where both factors have long entries: verify's one
    # product, the inverse's six 8 x 8 Schur products on S^-1's first read
    # and the spectral operator at (31,128,16), not the lift's products,
    # n = 4, (13,64,12) or a product with a diagonal factor.  Packed rows
    # run on products of short entries at n >= 8: 28 of the lift's 33 at
    # (31,128,16) and the start inverse's six 8 x 8 products mod p, all 28
    # of the lift's at (13,64,12), and 28 at (31,128,8)
    calls = Counter()

    def counted(name):
        kernel = getattr(kernels, name)

        def run(*args):
            calls[name] += 1
            return kernel(*args)

        return run

    for name in ("_winograd", "_packed"):
        monkeypatch.setattr(kernels, name, counted(name))

    def kernel_calls(f):
        calls.clear()
        f()
        return calls["_winograd"], calls["_packed"]

    p, prec, n = 31, 128, 16
    a = sample_certifiable_matrix(Random(4200), p, prec, n)
    cert = certify_strongly_normal(a)
    assert kernel_calls(cert.verify) == (1, 0)
    assert kernel_calls(lambda: certify_strongly_normal(a)) == (1, 34)
    assert kernel_calls(lambda: cert.basis_inverse) == (6, 0)
    assert kernel_calls(lambda: cert.spectral_operator(cert.eigenvalues)) == (1, 0)
    diag = PadicMatrix.diagonal([e.residue for e in cert.eigenvalues], p, prec)
    assert kernel_calls(lambda: cert.basis @ diag) == (0, 0)
    small = sample_certifiable_matrix(Random(4312), 13, 64, 12)
    cert = certify_strongly_normal(small)
    assert kernel_calls(lambda: certify_strongly_normal(small)) == (0, 28)
    assert kernel_calls(cert.verify) == (0, 0)
    assert kernel_calls(lambda: cert.spectral_operator(cert.eigenvalues)) == (0, 0)
    small = sample_certifiable_matrix(Random(4304), 31, 128, 4)
    assert kernel_calls(lambda: certify_strongly_normal(small)) == (0, 0)
    small = sample_certifiable_matrix(Random(4308), 31, 128, 8)
    assert kernel_calls(lambda: certify_strongly_normal(small))[1] == 28


def test_scalar_division():
    a = PadicMatrix([[5, 10], [25, 50]], 5, 8)
    q = a.divide_exact(PadicInt(5, 5, 8))
    assert q.prec == 7
    assert q.rows() == ((1, 2), (5, 10))
    with pytest.raises(DivisionByHigherValuation):
        PadicMatrix([[1, 0], [0, 1]], 5, 8).divide_exact(PadicInt(5, 5, 8))


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


def _inverse_input(rng, p, prec, n, shape):
    mod = p**prec
    if shape == "sampled":  # P L U: leading minors of either kind
        return sample_invertible_matrix(rng, p, prec, n).rows()
    if shape == "reversed":
        # unit upper triangular rows in reverse order: the leading k x k
        # minors vanish mod p for k <= n/2, the top block A among them
        return [
            [rng.randrange(mod) if j > i else int(i == j) for j in range(n)]
            for i in reversed(range(n))
        ]
    return [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]  # singular mod p at times


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([3, 5, 31]),
    prec=st.sampled_from([1, 2, 33, 128]),
    n=st.integers(1, 20),
    seed=st.integers(0, 2**32),
    shape=st.sampled_from(["sampled", "reversed", "random"]),
)
# blocks at even and odd n, one with a random reduction and one refused
@example(p=31, prec=128, n=16, seed=1, shape="reversed")
@example(p=31, prec=128, n=17, seed=2, shape="sampled")
@example(p=5, prec=128, n=13, seed=3, shape="reversed")
@example(p=3, prec=128, n=15, seed=2, shape="random")
@example(p=3, prec=128, n=15, seed=4, shape="random")
# blocks at the CLI's size (13,64,12) and down to n^2 bits(p^N) of 1,008
@example(p=13, prec=64, n=12, seed=6, shape="sampled")
@example(p=5, prec=32, n=12, seed=7, shape="reversed")
@example(p=31, prec=8, n=16, seed=8, shape="random")
@example(p=5, prec=8, n=8, seed=9, shape="sampled")
@example(p=3, prec=4, n=12, seed=10, shape="reversed")
# blocks at one digit too, from n = 8, and a singular one-digit grid refused
@example(p=31, prec=1, n=20, seed=5, shape="reversed")
@example(p=31, prec=1, n=8, seed=11, shape="sampled")
@example(p=31, prec=1, n=16, seed=12, shape="reversed")
@example(p=3, prec=1, n=12, seed=1, shape="random")
# the 1 x 1 and 2 x 2 leaves alone and a 3 = 1 + 2 split, rows reordered
# where the leading 1 x 1 minor vanishes mod p, at one digit and at 128
@example(p=5, prec=1, n=1, seed=13, shape="reversed")
@example(p=5, prec=1, n=2, seed=14, shape="reversed")
@example(p=5, prec=1, n=3, seed=15, shape="reversed")
@example(p=31, prec=128, n=1, seed=16, shape="reversed")
@example(p=31, prec=128, n=2, seed=17, shape="reversed")
@example(p=31, prec=128, n=3, seed=18, shape="reversed")
def test_inverse_is_two_sided(p, prec, n, seed, shape):
    # the inverse, Schur blocks down to 1 x 1 and 2 x 2 leaves on the rows
    # in the forward-elimination order, is an exact two-sided inverse, so
    # the one inverse mod p^N; a reduction with determinant 0 mod p (the
    # char poly's constant term) is refused
    rows = _inverse_input(Random(seed), p, prec, n, shape)
    m = PadicMatrix(rows, p, prec)
    if _char_poly(m.rows(), p)[0] == 0:
        with pytest.raises(DivisionByHigherValuation, match="^matrix is not invertible"):
            m.inverse()
        return
    inv = m.inverse()
    assert m @ inv == inv @ m == PadicMatrix.identity(n, p, prec)


@given(p=st.sampled_from([3, 5, 31, 65521]), prec=st.integers(1, 300), seed=st.integers(0, 2**32))
@example(p=31, prec=128, seed=0)
@example(p=3, prec=2, seed=1)
@example(p=65521, prec=2, seed=2)
@example(p=5, prec=10, seed=3)
@example(p=3, prec=1, seed=4)
def test_unit_inverse_matches_pow(p, prec, seed):
    # core.unit_inverse (the inverse's leaves, exact division,
    # PadicInt.inverse) by Newton's iteration gives pow's inverse at every
    # precision
    mod = p**prec
    u = Random(seed).randrange(mod // p) * p + 1 + seed % (p - 1)
    assert unit_inverse(u, p, mod) == pow(u, -1, mod)


def test_inverse_runs_the_product_kernel(monkeypatch):
    # at n = 16 the inverse is 42 products (6 at n = 16, 6 in each of its
    # two 8 x 8 blocks, 6 in each of their four 4 x 4 blocks) at every
    # precision, one digit too, and none at the 2 x 2 leaves; at n = 7,
    # 6 + 6 (n = 4) + 6 (n = 3) = 18.  Certification is the lift's start
    # inverse mod p, its 33 products and verify's one, whose rank check
    # mod p multiplies nothing
    log = []
    kernel = kernels.grid_matmul

    def counted(a, b, mod):
        log.append(len(a))
        return kernel(a, b, mod)

    monkeypatch.setattr(kernels, "grid_matmul", counted)

    def products(f):
        log.clear()
        f()
        return len(log)

    p, prec, n = 31, 128, 16
    s = sample_invertible_matrix(Random(4400), p, prec, n)
    assert products(s.inverse) == 42
    assert products(s.truncate_to(1).inverse) == 42
    assert products(sample_invertible_matrix(Random(4401), p, prec, 7).inverse) == 18
    a = sample_certifiable_matrix(Random(4402), p, prec, n)
    assert products(lambda: certify_strongly_normal(a)) == 42 + 33 + 1
    # a singular reduction is refused before any product runs
    rows = [list(r) for r in s.rows()]
    rows[-1] = [(x + y + p * 7) % p**prec for x, y in zip(rows[0], rows[1])]
    with pytest.raises(DivisionByHigherValuation, match="determinant non-unit"):
        products(PadicMatrix(rows, p, prec).inverse)
    assert log == []


def _sample_invertible_by_products(rng, p, prec, n):
    """sample_invertible_matrix as P @ L @ U, the same draws multiplied out."""
    mod = p**prec
    lower = [
        [1 if i == j else (rng.randrange(mod) if j < i else 0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [
            sample_unit(rng, p, prec).residue if i == j else (rng.randrange(mod) if j > i else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    return PadicMatrix(pm, p, prec) @ PadicMatrix(lower, p, prec) @ PadicMatrix(upper, p, prec)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,prec,n", [(5, 8, 3), (13, 64, 12), (31, 128, 16)])
def test_sampling_draws_match_their_products(seed, p, prec, n):
    # rows permuted and columns scaled give what P @ L @ U and S @ D @ S^-1
    # gave, draw for draw, so every seeded fixture keeps its matrix
    s = _sample_invertible_by_products(Random(seed), p, prec, n)
    assert sample_invertible_matrix(Random(seed), p, prec, n) == s
    rng = Random(seed)
    residues = rng.sample(range(p), n)
    d = PadicMatrix.diagonal([r + p * rng.randrange(p ** (prec - 1)) for r in residues], p, prec)
    s = _sample_invertible_by_products(rng, p, prec, n)
    assert sample_certifiable_matrix(Random(seed), p, prec, n) == s @ d @ s.inverse()


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
    with pytest.raises(ValueError):
        a.congruent(a, -1)


@pytest.mark.parametrize("p", PRIMES)
def test_residue_eigenvectors(p):
    # for a simple root r, A v = r v mod p with v's last nonzero entry 1
    # fixes v; a repeated root gives such a vector or ValueError, and a
    # non-root ValueError; on sampled and oracle char-poly matrices
    rng = Random(2100 + p)
    grids = []
    for n in range(1, p + 3):
        grids += _structured_grids(rng, p, n)
        grids += [_random_grid(rng, p, n, d) for d in (1.0, 0.5, 0.2)]
    for _ in range(10):
        n = rng.randrange(2, p + 1)
        grids.append(sample_certifiable_matrix(rng, p, 4, n).rows())
    for grid in grids:
        h, m = _hessenberg(grid, p)
        for r, mult in kernels.roots(kernels.char_poly(h, p), p):
            try:
                (v,) = kernels.eigenvectors(h, m, [r], p)
            except ValueError:
                assert mult > 1, grid
                continue
            assert next(x for x in reversed(v) if x) == 1, grid
            av = [sum(x * y for x, y in zip(row, v)) % p for row in grid]
            assert av == [r * x % p for x in v], grid
    with pytest.raises(ValueError):
        _eigenvectors([[1, 0], [0, 2]], 5, [3])
    with pytest.raises(ValueError):
        _eigenvectors([[0, 1], [2, 1]], 7, [3])


def _eigenvectors(grid, p, roots):
    return kernels.eigenvectors(*_hessenberg(grid, p), roots, p)


def test_residue_eigenvectors_reduced_hessenberg():
    # a zero on the Hessenberg subdiagonal cuts H into blocks: diag(1, 2, 3),
    # a block diagonal matrix and coupled blocks keep the vectors of the
    # per-root row reduction this solver replaced; a root of two blocks
    # (a two-dimensional kernel) is not simple and raises
    diag = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert _eigenvectors(diag, 5, [1, 2, 3]) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    block = [[0, 1, 0, 0], [2, 1, 0, 0], [0, 0, 3, 1], [0, 0, 0, 5]]
    roots = [r for r, _ in kernels.roots(_char_poly(block, 7), 7)]
    assert roots == [2, 3, 5, 6]
    assert _eigenvectors(block, 7, roots) == [
        [4, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 4, 1],
        [6, 1, 0, 0],
    ]
    # coupled blocks: the root 4 of the lower block needs the upper one too
    coupled = [[1, 2, 3], [0, 2, 1], [0, 0, 4]]
    assert _eigenvectors(coupled, 5, [1, 2, 4]) == [[1, 0, 0], [2, 1, 0], [3, 3, 1]]
    repeated = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    assert _eigenvectors(repeated, 5, [2]) == [[0, 0, 1]]
    with pytest.raises(ValueError):
        _eigenvectors(repeated, 5, [1])
    with pytest.raises(ValueError):
        _eigenvectors(repeated, 5, [3])


def test_scale_columns():
    a = PadicMatrix([[1, 2], [3, 4]], 5, 8)
    assert a.scale_columns([2, 0]) == a @ PadicMatrix.diagonal([2, 0], 5, 8)
    scaled = a.scale_columns([PadicInt(3, 5, 6), 1])
    assert scaled == PadicMatrix([[3, 2], [9, 4]], 5, 6)
    # a value tracked beyond the matrix is read as it is and cut to 8 digits
    assert a.scale_columns([PadicInt(5**9 + 3, 5, 10), 1]) == PadicMatrix([[3, 2], [9, 4]], 5, 8)
    with pytest.raises(DimensionMismatch):
        a.scale_columns([1])
    with pytest.raises(PrimeMismatch):
        a.scale_columns([PadicInt(3, 7, 8), 1])
    with pytest.raises(TypeError):
        a.scale_columns([3.0, 1])


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _wrapped(segment: str) -> bool:
    """Whether the parenthesis at the first character of ``segment`` closes
    at its last: a depth scan over its tokens, read inside brackets so that
    a line break in the segment ends no statement."""
    tokens = tokenize.generate_tokens(io.StringIO(f"[{segment}]").readline)
    ops = [t.string for t in tokens if t.type == tokenize.OP][1:-1]
    depths = list(accumulate((s in {"(", "[", "{"}) - (s in {")", "]", "}"}) for s in ops))
    return segment[:1] + segment[-1:] == "()" and 0 not in depths[:-1]


def _newer_syntax(source: str, tree) -> list[int]:
    """Lines of Python 3.11 syntax that ast.parse with feature_version
    (3, 10) still accepts: a starred element in a subscript not wrapped in
    parentheses (a[*b]; a[(*b,)] is 3.10 and parses the same, so the source
    decides), and a starred *args annotation (def f(*a: *T))."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            bare = not _wrapped(ast.get_source_segment(source, node.slice))
            if bare and any(isinstance(e, ast.Starred) for e in node.slice.elts):
                out.append(node.lineno)
        elif isinstance(node, ast.arguments) and node.vararg is not None:
            if isinstance(node.vararg.annotation, ast.Starred):
                out.append(node.vararg.lineno)
    return out


def _parse_310(path: Path):
    """The module at ``path``, parsed as Python 3.10; AssertionError on
    3.11 syntax that the parser's feature_version lets through."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path), feature_version=(3, 10))
    newer = _newer_syntax(source, tree)
    assert not newer, f"{path.name} uses syntax newer than 3.10 at lines {newer}"
    return tree


def _functions(tree):
    """(name, node) of each module-level function and each method, a
    method named Class.method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp, ast.Call)


def _kept_containers(tree) -> list:
    """(line, name) of each place a module can keep values beyond one call:
    a container or call assigned at module or class level (not __all__ or
    __slots__), a container as a default argument, or a function under
    lru_cache or cache."""
    out = []
    scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for node in (n for body in scopes for n in body):
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names = [getattr(t, "id", None) for t in targets]
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and isinstance(value, _CONTAINERS):
            out += [(node.lineno, name) for name in names if name not in ("__all__", "__slots__")]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            out += [(d.lineno, node.name) for d in defaults if isinstance(d, _CONTAINERS)]
            for d in node.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                if getattr(f, "id", getattr(f, "attr", None)) in ("lru_cache", "cache"):
                    out.append((node.lineno, node.name))
    return sorted(out)


def test_correctness_guards_raise():
    # correctness checks are exceptions, not asserts, so they survive python -O;
    # no module imports or reads another's private names, so each rule
    # (a truncation length, a working precision) has one owning module;
    # the precision rules of scalars and matrices live in core alone; no
    # module but kernels binds the kernels by name, so a counter set on
    # kernels.grid_matmul sees every product; grids of residues live in
    # kernels, linalg, the eigenbasis lift, the rank check and certify's
    # analysis mod p, so only linalg and spectral import kernels; every power series enters through
    # PowerPlan.powers, the one caller of _power_residues; the power plan
    # (PowerPlan and its rows, _binomial_row) is defined in functions
    # alone, which keeps no module-level cache but log_one_plus_p's, so a
    # plan lives exactly as long as its owner; every private function,
    # method or module constant is used somewhere; and every module, test,
    # demo and benchmark script parses as Python 3.10, the oldest supported
    # version, with the two 3.11 forms the parser's feature_version misses
    # found by _newer_syntax (syntax only: a newer stdlib API would pass)
    root = Path(padicspectral.__file__).resolve().parent
    modules = {path.stem for path in root.glob("*.py")}
    plan_names = {"PowerPlan", "_binomial_row"}
    plan_homes = set()
    precision_rules = {"truncate_to", "modulus"}
    kernel_names = {
        "grid_matmul", "grid_inverse", "row_order", "hessenberg", "char_poly", "roots", "eigenvectors"
    }
    helpers, used, kernel_importers, power_callers = {}, set(), set(), set()
    for path in sorted(root.glob("*.py")):
        tree = _parse_310(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and _is_private(node.name):
                helpers[node.name] = path.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    helpers[target.id] = path.name
        power_callers.update(
            (path.name, name)
            for name, node in _functions(tree)
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "_power_residues"
        )
        plan_homes.update(
            (path.name, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in plan_names
        )
        if path.name == "functions.py":
            caches = _kept_containers(tree)
            assert [name for _, name in caches] == ["log_one_plus_p"], caches
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name} uses assert at lines {asserts}"
        private = [
            (node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if _is_private(alias.name)
        ]
        assert not private, f"{path.name} imports private names {private}"
        reached = [
            (node.lineno, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ]
        assert not reached, f"{path.name} reads private names {reached}"
        bound = [
            (node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name in kernel_names
        ]
        assert not bound, f"{path.name} binds kernels by name {bound}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                if any(name.split(".")[-1] == "kernels" for name in names):
                    kernel_importers.add(path.name)
        if path.name != "core.py":
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name in precision_rules
            }
            assert not defined, f"{path.name} defines {sorted(defined)}, owned by core"
    stray = kernel_importers - {"linalg.py", "spectral.py"}
    assert not stray, f"{sorted(stray)} import kernels"
    assert power_callers == {("functions.py", "PowerPlan.powers")}, power_callers
    assert plan_homes == {("functions.py", name) for name in plan_names}, plan_homes
    orphans = sorted((f, n) for n, f in helpers.items() if n not in used)
    assert not orphans, f"private names defined and never used: {orphans}"
    top = Path(__file__).resolve().parent.parent
    for path in sorted(p for d in ("tests", "demos", "bench") for p in (top / d).rglob("*.py")):
        _parse_310(path)


def test_newer_syntax_is_found():
    # the 3.10 parser refuses a[*b] and def f(*a: *T) itself; a newer one
    # parses both, and the guard above finds them, also where the slice
    # starts and ends with a parenthesis that closes before its end, but
    # not a[(*b,)]
    source = (
        "x = a[*b]\ny = a[(*b,)]\ndef f(*a: *T): pass\n"
        "x = a[(x), *b, (y)]\nx = a[(x)(y), *b, (z)]\n"
    )
    if sys.version_info < (3, 11):
        with pytest.raises(SyntaxError):
            ast.parse(source)
        return
    assert _newer_syntax(source, ast.parse(source)) == [1, 3, 4, 5]


def _moved(x, t):
    """x + p^prec t, tracked to 8 more digits: a matrix (t a grid) or a scalar."""
    step = x.p**x.prec
    if isinstance(x, PadicInt):
        return PadicInt(x.residue + step * t, x.p, x.prec + 8)
    rows = [[a + step * b for a, b in zip(r, tr)] for r, tr in zip(x.rows(), t)]
    return PadicMatrix(rows, x.p, x.prec + 8)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from(PRIMES),
    seed=st.integers(0, 2**32),
    prec=st.integers(4, 40),
    data=st.data(),
)
def test_precision_lemma_linalg(p, seed, prec, data):
    # moving an input beyond its tracked digits moves no returned digit
    rng = Random(seed)
    n = rng.randrange(1, 5)
    cell = st.integers(0, p**8 - 1)
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    # the inputs carry different precisions, so each result takes the least
    a = sample_invertible_matrix(rng, p, prec, n)
    b = sample_invertible_matrix(rng, p, rng.randrange(1, prec + 1), n)
    vec = [sample_padic(rng, p, rng.randrange(1, prec + 1)) for _ in range(n)]
    w = rng.randrange(min(3, prec - 1) + 1)
    d = p**w * sample_unit(rng, p, rng.randrange(w + 1, prec + 1))
    c = a * p**w
    a2, b2, c2 = (_moved(m, data.draw(square)) for m in (a, b, c))
    d2 = _moved(d, data.draw(cell))
    vec2 = [_moved(x, data.draw(cell)) for x in vec]
    for got, moved in [
        (a @ b, a2 @ b2),
        (a.inverse(), a2.inverse()),
        (c.divide_exact(d), c2.divide_exact(d2)),
        (a.scale_columns(vec), a2.scale_columns(vec2)),
    ]:
        assert moved.congruent(got, got.prec)
    for got, moved in zip(a.matvec(vec), a2.matvec(vec2)):
        assert moved.congruent(got, got.prec)
