"""Matrices over Z_p with the sup operator norm.

The operator norm of a matrix acting on (Z_p)^n with the max norm is
max |a_ij|, so norms are just entry valuations.  This module supplies
the ring operations and the inverse.  The reduction mod p is
``truncate_to(1)``: F_p is Z_p at one digit.  Analysis over F_p (the
Hessenberg form, char poly, roots and eigenvectors) runs on plain grids
of residues in the kernels module.

Products and inverses run on the residues, through the kernels module:
``kernels.grid_matmul`` and ``kernels.grid_inverse``, by that one binding.
"""

from __future__ import annotations

from math import gcd
from operator import add, sub

from . import kernels
from .core import (
    MAX_DIM,
    PadicInt,
    PadicValue,
    Valuation,
    as_padic,
    check_int,
    from_decimal,
    is_int,
    to_decimal,
    validate_prec,
)
from .errors import (
    DimensionMismatch,
    PrecisionExceeded,
    PrimeMismatch,
)

__all__ = ["PadicMatrix", "vector_norm"]


def _as_residue(x, p: int, mod: int, prec: int = 0) -> int:
    """x, an int (by :func:`is_int`) or a PadicInt, as a residue mod
    ``mod``, a power of p; anything else x must pass :func:`as_padic`, as
    a PadicInt over p that tracks at least ``prec`` digits."""
    if is_int(x):
        return x % mod
    if as_padic(x, p, prec).prec < prec:
        raise PrecisionExceeded(f"entry {x!r} tracks fewer than {prec} digits")
    return x.residue % mod


def _matrix(grid, p: int, prec: int) -> "PadicMatrix":
    """The PadicMatrix of a square grid already reduced mod p^prec, p and prec
    already checked: PadicMatrix's own results, built with no per-entry call."""
    m = object.__new__(PadicMatrix)
    m._set(p=p, prec=prec, n=len(grid), _e=tuple(map(tuple, grid)))
    return m


class PadicMatrix(PadicValue):
    """An n x n matrix of p-adic integers sharing one prime and precision.

    Entries are stored as canonical integer residues, read by ``rows()``.
    Binary operations require equal primes and dimensions and combine
    precision by minimum, matching the scalar rules.
    """

    __slots__ = ("n", "_e")

    def __init__(self, rows, p: int, prec: int):
        p, prec = self._check_precision(p, prec)
        mod = p**prec
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must be at least 1 x 1")
        if n > MAX_DIM:
            raise DimensionMismatch(f"dimension {n} exceeds cap {MAX_DIM}")
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        grid = tuple(tuple(_as_residue(x, p, mod, prec) for x in row) for row in rows)
        self._set(p=p, prec=prec, n=n, _e=grid)

    def _at(self, prec: int) -> "PadicMatrix":
        p, prec = self._check_precision(self.p, prec)
        mod = p**prec
        return _matrix([[x % mod for x in row] for row in self._e], p, prec)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int, p: int, prec: int) -> "PadicMatrix":
        return cls.diagonal([1] * n, p, prec)

    @classmethod
    def diagonal(cls, diag, p: int, prec: int) -> "PadicMatrix":
        n = len(diag)
        return cls(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
            p,
            prec,
        )

    # -- queries -------------------------------------------------------

    def rows(self):
        return self._e

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def op_norm(self) -> Valuation:
        """Sup norm as a valuation: min entry valuation (at_least for 0),
        which is the valuation of the gcd of the entries."""
        return Valuation.of_residue(gcd(*(x for row in self._e for x in row)), self.p, self.prec)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "PadicMatrix") -> int:
        if self.p != other.p:
            raise PrimeMismatch(f"p={self.p} vs p={other.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        return min(self.prec, other.prec)

    def _entrywise(self, op, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        mod = self.p**prec
        grid = [[op(x, y) % mod for x, y in zip(r1, r2)] for r1, r2 in zip(self._e, other._e)]
        return _matrix(grid, self.p, prec)

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self._entrywise(sub, other)

    def __neg__(self) -> "PadicMatrix":
        mod = self.modulus
        return _matrix([[-a % mod for a in row] for row in self._e], self.p, self.prec)

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        return _matrix(kernels.grid_matmul(self._e, other._e, self.p**prec), self.p, prec)

    def __mul__(self, scalar) -> "PadicMatrix":
        if not isinstance(scalar, (int, PadicInt)):
            return NotImplemented
        return self.scale_columns([scalar] * self.n)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PadicMatrix":
        k = check_int(k, 0, "exponent")
        acc = self if k else PadicMatrix.identity(self.n, self.p, self.prec)
        for bit in bin(k)[3:]:  # the bits after the top one, high to low
            acc = acc @ acc
            if bit == "1":
                acc = acc @ self
        return acc

    def _vector(self, vec) -> tuple[list[int], int]:
        """Residues of n scalars (PadicInt or int) and their joint precision
        with this matrix, not reduced: a PadicInt over p gives its residue
        and precision in one step, anything else goes through _as_residue."""
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.n}")
        p, prec, xs = self.p, self.prec, []
        for x in vec:
            if isinstance(x, PadicInt) and x.p == p:
                xs.append(x.residue)
                prec = min(prec, x.prec)
            else:
                xs.append(_as_residue(x, p, self.modulus))
        return xs, prec

    def scale_columns(self, values) -> "PadicMatrix":
        """A diag(values): column j multiplied by values[j] (PadicInt or int).

        The result carries the minimum precision of A and the values.
        """
        xs, prec = self._vector(values)
        mod = self.p**prec
        grid = [[(a * x) % mod for a, x in zip(row, xs)] for row in self._e]
        return _matrix(grid, self.p, prec)

    def matvec(self, vec) -> list[PadicInt]:
        xs, prec = self._vector(vec)
        mod = self.p**prec
        return [
            PadicInt(sum(a * x for a, x in zip(row, xs)) % mod, self.p, prec)
            for row in self._e
        ]

    def divide_exact(self, d) -> "PadicMatrix":
        """Entrywise exact division by a scalar (PadicInt or int); as for
        PadicInt.divide_exact, a divisor of valuation w costs w digits."""
        n = self.n
        flat, prec = self._divide_residues([x for row in self._e for x in row], d)
        return _matrix([flat[i : i + n] for i in range(0, n * n, n)], self.p, prec)

    def inverse(self) -> "PadicMatrix":
        """The inverse, which exists iff the reduction mod p is invertible:
        :func:`kernels.grid_inverse`, which orders the rows mod p, then runs
        Schur blocks down to 1 x 1 and 2 x 2 leaves."""
        return _matrix(kernels.grid_inverse(self._e, self.p, self.modulus), self.p, self.prec)

    # -- comparisons and io ------------------------------------------------

    def congruent(self, other: "PadicMatrix", digits: int) -> bool:
        mod = self._congruence_modulus(self._check(other), digits)
        return all(
            (a - b) % mod == 0
            for r1, r2 in zip(self._e, other._e)
            for a, b in zip(r1, r2)
        )

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "prec": self.prec,
            "n": self.n,
            "entries": [list(map(to_decimal, row)) for row in self._e],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PadicMatrix":
        rows, p, prec, n = cls._read(d, "entries", "p", "prec", "n")
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ValueError("entries must be a list of rows, each a list")
        entries = [list(map(from_decimal, row)) for row in rows]
        m = cls(entries, from_decimal(p), validate_prec(prec))
        if m.n != from_decimal(n):
            raise DimensionMismatch("declared n does not match entries")
        return m

    def __repr__(self):
        rows = ", ".join(f"[{', '.join(map(to_decimal, r))}]" for r in self._e)
        return f"PadicMatrix([{rows}], p={self.p}, prec={self.prec})"


def vector_norm(vec) -> Valuation:
    """Max-norm valuation of a vector of PadicInt: min entry valuation."""
    vals = [x.valuation() for x in vec]
    return min(vals)
