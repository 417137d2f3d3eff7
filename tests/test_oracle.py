"""The oracle must be trustworthy on its own terms before anything else is."""

from fractions import Fraction
from random import Random

import pytest

from padicspectral import PadicInt, SeriesBudget, principal_power
from oracle import (
    DenominatorNotInvertible,
    oracle_char_poly,
    oracle_power,
    oracle_series,
    reduce_fraction,
)


def test_oracle_power_examples():
    assert oracle_power(6, 2, 5, 4) == 36
    assert oracle_power(123456, 0, 5, 4) == 1
    with pytest.raises(ValueError):
        oracle_power(6, -1, 5, 4)
    with pytest.raises(ValueError):
        oracle_power(7, 2, 5, 4)  # not a principal unit


def test_oracle_power_cross_checks_series():
    b = SeriesBudget(32)
    lam = 5**3
    direct = oracle_power(6, lam, 5, 6)
    series = principal_power(PadicInt(5, 5, 32), PadicInt(lam, 5, 32), b)
    assert series.residue % 5**6 == direct


def test_reduce_fraction():
    assert reduce_fraction(Fraction(1, 2), 5, 2) == 13  # 2 * 13 = 26 = 1 mod 25
    with pytest.raises(DenominatorNotInvertible):
        reduce_fraction(Fraction(1, 5), 5, 4)


def test_oracle_series_log_exp():
    assert oracle_series("log", 1, 10, 5, 8) == 0
    log6 = oracle_series("log", 6, 60, 5, 10)
    back = oracle_series("exp", Fraction(log6), 60, 5, 8)
    assert back == 6
    # same partial sums accumulated in the reverse order agree exactly
    x = Fraction(5)
    fwd = sum(x**k / k * (-1) ** (k - 1) for k in range(1, 30))
    rev = sum(x**k / k * (-1) ** (k - 1) for k in reversed(range(1, 30)))
    assert fwd == rev


def test_oracle_series_mahler():
    # (1 + 5)^2 needs P_0 + 5 P_1(2) + 25 P_2(2) = 1 + 10 + 25
    assert oracle_series("mahler", 5, 3, 5, 8, exponent=2) == 36
    with pytest.raises(ValueError):
        oracle_series("mahler", 5, 3, 5, 8)
    with pytest.raises(ValueError):
        oracle_series("sin", 5, 3, 5, 8)


def test_oracle_series_detects_short_sums():
    # outside the convergence domain the denominator keeps a factor of p
    with pytest.raises(DenominatorNotInvertible):
        oracle_series("exp", 1, 12, 5, 8)


def test_oracle_char_poly_known():
    assert oracle_char_poly([[0, 1], [2, 1]]) == [-2, -1, 1]
    assert oracle_char_poly([[2, 0], [0, 3]]) == [6, -5, 1]
    assert oracle_char_poly([[7]]) == [-7, 1]


def test_oracle_char_poly_vs_production_route():
    from padicspectral import kernels

    rng = Random(31)
    for p in (3, 5, 7):
        for n in (2, 3, 4, 5):
            grid = [[rng.randrange(-50, 50) for _ in range(n)] for _ in range(n)]
            ref = oracle_char_poly(grid)
            h, _ = kernels.hessenberg([[x % p for x in row] for row in grid], p)
            assert kernels.char_poly(h, p) == tuple(c % p for c in ref)
