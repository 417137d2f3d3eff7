"""Independent ground truth for differential tests.

Everything here recomputes results by a route the library never takes:
exact binomial sums over Z and exact rational partial sums, each reduced
mod p^N in one final step, and characteristic polynomials by cofactor
expansion over Z[x]; a certificate A S = S D is checked by one product
over Z and a rank by elimination mod p, and a group value U = (1+z)^A on
A's eigenbasis by the same check with pow over Z on each eigenvalue.  No
code is shared with the series or linear
algebra modules, and nothing is imported from the package; that
independence is the point.  Nothing here tracks precision or aims to be
fast.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb

__all__ = [
    "DenominatorNotInvertible",
    "oracle_power",
    "oracle_series",
    "oracle_char_poly",
    "oracle_certificate_holds",
    "oracle_group_value_holds",
    "oracle_stone_holds",
    "reduce_fraction",
]


class DenominatorNotInvertible(ArithmeticError):
    """A rational partial sum kept a factor of p in its denominator."""


def oracle_power(base: int, exp: int, p: int, prec: int) -> int:
    """base^exp mod p^prec for base = 1 + z, v(z) >= 1: the exact sum of
    comb(exp, k) z^k over Z, cut where k v(z) >= prec, reduced once."""
    z = base - 1
    if exp < 0 or z % p:
        raise ValueError(f"need exp >= 0 and base = 1 mod {p}, got {base}^{exp}")
    v = next(k for k in count(1) if z % p ** (k + 1)) if z else prec
    last = min(exp, (prec - 1) // v)
    return sum(comb(exp, k) * z**k for k in range(last + 1)) % p**prec


def reduce_fraction(q: Fraction, p: int, prec: int) -> int:
    """Image of a p-integral rational in Z/p^prec."""
    if q.denominator % p == 0:
        raise DenominatorNotInvertible(
            f"denominator {q.denominator} is divisible by {p}; "
            "the partial sum kept too few terms"
        )
    mod = p**prec
    return q.numerator * pow(q.denominator, -1, mod) % mod


def _binomial(lam, n: int) -> Fraction:
    acc = Fraction(1)
    for i in range(n):
        acc *= Fraction(lam) - i
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return acc / fact


def oracle_series(kind: str, arg, terms: int, p: int, prec: int, exponent=None) -> int:
    """Exact rational partial sum of a named series, reduced mod p^prec.

    kind "log":    sum_{k=1}^{terms} (-1)^(k-1) (arg - 1)^k / k  (arg = u)
    kind "exp":    sum_{k=0}^{terms} arg^k / k!
    kind "mahler": sum_{n=0}^{terms-1} arg^n P_n(exponent)        (arg = z)

    The whole sum is accumulated as one Fraction and reduced once at the
    end; a denominator still divisible by p signals too few terms.
    """
    if kind == "log":
        x = Fraction(arg) - 1
        total = Fraction(0)
        power = Fraction(1)
        for k in range(1, terms + 1):
            power *= x
            total += power / k if k % 2 == 1 else -power / k
        return reduce_fraction(total, p, prec)
    if kind == "exp":
        x = Fraction(arg)
        total = Fraction(1)
        power = Fraction(1)
        fact = 1
        for k in range(1, terms + 1):
            power *= x
            fact *= k
            total += power / fact
        return reduce_fraction(total, p, prec)
    if kind == "mahler":
        if exponent is None:
            raise ValueError("mahler series needs the exponent argument")
        z = Fraction(arg)
        total = Fraction(0)
        for n in range(terms):
            total += z**n * _binomial(exponent, n)
        return reduce_fraction(total, p, prec)
    raise ValueError(f"unknown series kind {kind!r}")


def _poly_add(a: list, b: list) -> list:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_det(m: list) -> list:
    if len(m) == 1:
        return m[0][0]
    acc = [0]
    for j, cell in enumerate(m[0]):
        if not any(cell):
            continue  # a zero entry contributes no cofactor term
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = _poly_mul(cell, _poly_det(minor))
        if j % 2 == 1:
            term = [-c for c in term]
        acc = _poly_add(acc, term)
    return acc


def oracle_char_poly(rows) -> list[int]:
    """det(xI - A) for an integer matrix, by Laplace expansion over Z[x].

    Ascending coefficients.  Exponential in n (less on sparse matrices,
    whose zero entries are skipped); strictly for checking the production
    route, Hessenberg reduction over F_p, on small matrices.
    """
    n = len(rows)
    m = [
        [[-rows[i][j], 1] if i == j else [-rows[i][j]] for j in range(n)]
        for i in range(n)
    ]
    det = _poly_det(m)
    return _poly_add(det, [0] * (n + 1))[: n + 1]


def oracle_certificate_holds(a, s, eigenvalues, p: int, prec: int) -> bool:
    """True iff A S = S D mod p^prec, D = diag(eigenvalues), one per column
    of S, and S has rank n mod p: integer grids, a product over Z and
    Gaussian elimination over F_p, row by row."""
    n, mod = len(a), p**prec
    if len(eigenvalues) != n:
        return False
    for i in range(n):
        for j in range(n):
            lhs = sum(a[i][k] * s[k][j] for k in range(n))
            if (lhs - s[i][j] * eigenvalues[j]) % mod:
                return False
    rows = [[x % p for x in row] for row in s]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(n):
            if i != rank and rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank == n


def _per_column(values, n: int) -> list:
    """A lone eigenvalue owns every column of S; else one per column."""
    return list(values) * (n // len(values))


def oracle_group_value_holds(u, mu, s, lams, z: int, p: int, prec: int) -> bool:
    """True iff U = (1+z)^A mod p^prec for A S = S diag(lams): each mu_i is
    pow(1 + z, lam_i, p^prec) over Z, lam_i a residue >= 0, and U S =
    S diag(mu) with S of rank n mod p.  There is one lam per column of S
    or a lone one for all of them, and one mu per lam."""
    mod = p**prec
    if len(mu) != len(lams) or any((m - pow(1 + z, lam, mod)) % mod for m, lam in zip(mu, lams)):
        return False
    return oracle_certificate_holds(u, s, _per_column(mu, len(u)), p, prec)


def oracle_stone_holds(a, s, lams, u1p, p: int, prec: int) -> bool:
    """True iff a recovered generator is certified, A S = S diag(lams), and
    generates the given U(1+p): U(1+p) S = S diag(pow(1 + p, lam_i)), all
    mod p^prec."""
    mu = [pow(1 + p, lam, p**prec) for lam in lams]
    certified = oracle_certificate_holds(a, s, _per_column(lams, len(a)), p, prec)
    return certified and oracle_group_value_holds(u1p, mu, s, lams, p, p, prec)
