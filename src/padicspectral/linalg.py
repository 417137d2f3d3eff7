"""Matrices over Z_p with the sup operator norm.

The operator norm of a matrix acting on (Z_p)^n with the max norm is
max |a_ij|, so norms are just entry valuations.  This module supplies
the ring operations, reduction to the residue field F_p, exact
characteristic polynomials, residue eigenanalysis (eigenvalues by
direct root scan, eigenvectors by elimination over F_p), and Hensel
lifting of simple residue roots to N digits.

Characteristic polynomials are computed over the plain integers by
Faddeev-LeVerrier (all of whose divisions are exact in Z) on the
canonical entry lifts, then reduced to the needed modulus, so the
coefficients cost no precision at all.
"""

from __future__ import annotations

import os

from .core import PadicInt, Valuation, validate_prime
from .errors import (
    DimensionMismatch,
    DivisionByHigherValuation,
    NotASimpleRoot,
    PrecisionExceeded,
    PrimeMismatch,
)

__all__ = [
    "PadicMatrix",
    "ResidueMatrix",
    "CharPoly",
    "hensel_lift_root",
    "is_nondegenerate",
    "vector_norm",
]


def _max_dim() -> int:
    return int(os.environ.get("PADIC_MAX_DIM", "64"))


def _as_residue(x, p: int, mod: int) -> int:
    """x as a residue mod ``mod``, a power of p."""
    if isinstance(x, PadicInt):
        if x.p != p:
            raise PrimeMismatch(f"entry prime {x.p} != matrix prime {p}")
        return x.residue % mod
    return int(x) % mod


class PadicMatrix:
    """An n x n matrix of p-adic integers sharing one prime and precision.

    Entries are stored as canonical integer residues; ``entry(i, j)``
    wraps one as a :class:`PadicInt`.  Binary operations require equal
    primes and dimensions and combine precision by minimum, matching the
    scalar rules.
    """

    __slots__ = ("p", "prec", "n", "_e")

    def __init__(self, rows, p: int, prec: int):
        p = validate_prime(p)
        prec = int(prec)
        if prec < 1:
            raise ValueError("precision must be >= 1")
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must be at least 1 x 1")
        if n > _max_dim():
            raise DimensionMismatch(f"dimension {n} exceeds cap {_max_dim()}")
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        mod = p**prec
        grid = tuple(tuple(_as_residue(x, p, mod) for x in row) for row in rows)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_e", grid)

    def __setattr__(self, name, value):
        raise AttributeError("PadicMatrix is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int, p: int, prec: int) -> "PadicMatrix":
        return cls(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], p, prec
        )

    @classmethod
    def zeros(cls, n: int, p: int, prec: int) -> "PadicMatrix":
        return cls([[0] * n for _ in range(n)], p, prec)

    @classmethod
    def diagonal(cls, diag, p: int, prec: int) -> "PadicMatrix":
        n = len(diag)
        return cls(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
            p,
            prec,
        )

    # -- queries -------------------------------------------------------

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def entry(self, i: int, j: int) -> PadicInt:
        return PadicInt(self._e[i][j], self.p, self.prec)

    def rows(self):
        return self._e

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def op_norm(self) -> Valuation:
        """Sup norm as a valuation: min entry valuation (at_least for 0)."""
        best = None
        for row in self._e:
            for x in row:
                if x == 0:
                    continue
                v, r = 0, x
                while r % self.p == 0:
                    r //= self.p
                    v += 1
                if best is None or v < best:
                    best = v
                if best == 0:
                    return Valuation.exact(0)
        if best is None:
            return Valuation.at_least(self.prec)
        return Valuation.exact(best)

    def reduction(self) -> "ResidueMatrix":
        return ResidueMatrix(
            [[x % self.p for x in row] for row in self._e], self.p
        )

    # -- precision -----------------------------------------------------

    def truncate_to(self, prec: int) -> "PadicMatrix":
        if prec > self.prec:
            raise PrecisionExceeded("cannot truncate upward")
        if prec == self.prec:
            return self
        return PadicMatrix(self._e, self.p, prec)

    def lift_to(self, prec: int) -> "PadicMatrix":
        """Canonical zero-digit lift, as for scalars."""
        if prec < self.prec:
            raise ValueError("lift_to cannot lower precision")
        if prec == self.prec:
            return self
        return PadicMatrix(self._e, self.p, prec)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "PadicMatrix") -> int:
        if self.p != other.p:
            raise PrimeMismatch(f"p={self.p} vs p={other.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        return min(self.prec, other.prec)

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        return PadicMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._e, other._e)
            ],
            self.p,
            prec,
        )

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        return PadicMatrix(
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._e, other._e)
            ],
            self.p,
            prec,
        )

    def __neg__(self) -> "PadicMatrix":
        return PadicMatrix(
            [[-a for a in row] for row in self._e], self.p, self.prec
        )

    def __matmul__(self, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        mod = self.p**prec
        n = self.n
        cols = list(zip(*other._e))
        grid = [
            [sum(a * b for a, b in zip(row, col)) % mod for col in cols]
            for row in self._e
        ]
        return PadicMatrix(grid, self.p, prec)

    def __mul__(self, scalar) -> "PadicMatrix":
        if isinstance(scalar, PadicInt):
            if scalar.p != self.p:
                raise PrimeMismatch(f"p={self.p} vs p={scalar.p}")
            prec = min(self.prec, scalar.prec)
            s = scalar.residue
        elif isinstance(scalar, int):
            prec, s = self.prec, scalar
        else:
            return NotImplemented
        mod = self.p**prec
        return PadicMatrix(
            [[(s * a) % mod for a in row] for row in self._e], self.p, prec
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PadicMatrix":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer exponents")
        acc = PadicMatrix.identity(self.n, self.p, self.prec)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def _vector(self, vec) -> tuple[list[int], int]:
        """Residues of n scalars (PadicInt or int) and their joint precision
        with this matrix."""
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.n}")
        xs = [_as_residue(x, self.p, self.modulus) for x in vec]
        precs = [x.prec for x in vec if isinstance(x, PadicInt)]
        return xs, min([self.prec] + precs)

    def scale_columns(self, values) -> "PadicMatrix":
        """A diag(values): column j multiplied by values[j] (PadicInt or int).

        The result carries the minimum precision of A and the values.
        """
        xs, prec = self._vector(values)
        mod = self.p**prec
        return PadicMatrix(
            [[(a * x) % mod for a, x in zip(row, xs)] for row in self._e],
            self.p,
            prec,
        )

    def matvec(self, vec) -> list[PadicInt]:
        xs, prec = self._vector(vec)
        mod = self.p**prec
        return [
            PadicInt(sum(a * x for a, x in zip(row, xs)) % mod, self.p, prec)
            for row in self._e
        ]

    def divide_exact_scalar(self, d) -> "PadicMatrix":
        """Entrywise exact division by a scalar, tracking the lost digits."""
        if isinstance(d, int):
            d = PadicInt(d, self.p, self.prec)
        return PadicMatrix(
            [
                [self.entry(i, j).divide_exact(d) for j in range(self.n)]
                for i in range(self.n)
            ],
            self.p,
            min(self.prec, d.prec) - d.valuation().value,
        )

    def inverse(self) -> "PadicMatrix":
        """Gauss-Jordan inverse; exists iff the reduction is invertible."""
        n, mod, p = self.n, self.modulus, self.p
        a = [list(row) for row in self._e]
        b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next(
                (r for r in range(col, n) if a[r][col] % p != 0), None
            )
            if piv is None:
                raise DivisionByHigherValuation(
                    "matrix is not invertible over Z_p (determinant non-unit)"
                )
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            inv = pow(a[col][col], -1, mod)
            a[col] = [(x * inv) % mod for x in a[col]]
            b[col] = [(x * inv) % mod for x in b[col]]
            for r in range(n):
                if r == col or a[r][col] == 0:
                    continue
                f = a[r][col]
                a[r] = [(x - f * y) % mod for x, y in zip(a[r], a[col])]
                b[r] = [(x - f * y) % mod for x, y in zip(b[r], b[col])]
        return PadicMatrix(b, p, self.prec)

    # -- characteristic polynomial ---------------------------------------

    def char_poly(self) -> "CharPoly":
        """Monic characteristic polynomial with coefficients mod p^prec."""
        coeffs = _char_poly_int(self._e)
        return CharPoly(coeffs, self.p, self.prec)

    # -- comparisons and io ------------------------------------------------

    def congruent(self, other: "PadicMatrix", digits: int) -> bool:
        prec = self._check(other)
        if digits > prec:
            raise PrecisionExceeded(
                f"congruence at {digits} digits exceeds tracked precision {prec}"
            )
        mod = self.p**digits
        return all(
            (a - b) % mod == 0
            for r1, r2 in zip(self._e, other._e)
            for a, b in zip(r1, r2)
        )

    def __eq__(self, other):
        if not isinstance(other, PadicMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.p, self.prec, self._e))

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "prec": self.prec,
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self._e],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PadicMatrix":
        entries = [[int(x) for x in row] for row in d["entries"]]
        m = cls(entries, int(d["p"]), int(d["prec"]))
        if m.n != int(d["n"]):
            raise DimensionMismatch("declared n does not match entries")
        return m

    def __repr__(self):
        return (
            f"PadicMatrix({[list(r) for r in self._e]}, "
            f"p={self.p}, prec={self.prec})"
        )


class ResidueMatrix:
    """The reduction mod p: an n x n matrix over the residue field F_p."""

    __slots__ = ("p", "n", "_e")

    def __init__(self, rows, p: int):
        p = validate_prime(p)
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "_e", tuple(tuple(int(x) % p for x in r) for r in rows)
        )

    def __setattr__(self, name, value):
        raise AttributeError("ResidueMatrix is immutable")

    def rows(self):
        return self._e

    def is_scalar(self) -> bool:
        """True iff this equals nu * I for some nu in F_p (nu = 0 included)."""
        nu = self._e[0][0]
        return all(
            self._e[i][j] == (nu if i == j else 0)
            for i in range(self.n)
            for j in range(self.n)
        )

    def char_poly(self) -> "CharPoly":
        return CharPoly(_char_poly_int(self._e), self.p, 1)

    def eigenvalues(self) -> list[tuple[int, int]]:
        """Residue eigenvalues as (root, multiplicity), scanning all of F_p.

        Roots missing from F_p show up as a total multiplicity below n.
        """
        return self.char_poly().roots_with_multiplicity()

    def eigenvector(self, r: int) -> list[int]:
        """A nonzero v over F_p with A v = r v, by row reduction of A - r I.

        v is 1 at the first free column of the echelon form and 0 at the
        others; for a simple eigenvalue the kernel is a line, so this
        fixes v.  Raises ValueError if r is not an eigenvalue.
        """
        p, n = self.p, self.n
        m = [
            [(x - r) % p if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(self._e)
        ]
        pivots = []  # pivot column of each echelon row, in row order
        for col in range(n):
            k = len(pivots)
            piv = next((i for i in range(k, n) if m[i][col]), None)
            if piv is None:
                continue
            m[k], m[piv] = m[piv], m[k]
            inv = pow(m[k][col], -1, p)
            m[k] = [(x * inv) % p for x in m[k]]
            for i in range(k + 1, n):
                f = m[i][col]
                if f:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
            pivots.append(col)
        free = next((c for c in range(n) if c not in pivots), None)
        if free is None:
            raise ValueError(f"{r} is not an eigenvalue mod {p}")
        v = [0] * n
        v[free] = 1
        for k in reversed(range(len(pivots))):
            col = pivots[k]
            v[col] = -sum(m[k][j] * v[j] for j in range(col + 1, n)) % p
        return v

    def __eq__(self, other):
        if not isinstance(other, ResidueMatrix):
            return NotImplemented
        return self.p == other.p and self._e == other._e

    def __hash__(self):
        return hash((self.p, self._e))

    def __repr__(self):
        return f"ResidueMatrix({[list(r) for r in self._e]}, p={self.p})"


def is_nondegenerate(ahat: ResidueMatrix) -> bool:
    """False iff the reduction is a scalar multiple of the identity."""
    return not ahat.is_scalar()


def _char_poly_int(grid) -> list[int]:
    """Exact integer char poly coefficients, ascending, via Faddeev-LeVerrier.

    For an integer matrix every division by k in the recurrence is exact
    in Z, which is checked rather than assumed.
    """
    n = len(grid)
    a = [list(r) for r in grid]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]  # M_0 = 0
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c_prev = coeffs[n - k + 1]
        for i in range(n):
            am[i][i] += c_prev
        m = am
        t = sum(
            sum(a[i][t_] * m[t_][i] for t_ in range(n)) for i in range(n)
        )
        q, r = divmod(-t, k)
        if r != 0:
            raise ArithmeticError("Faddeev-LeVerrier division must be exact over Z")
        coeffs[n - k] = q
    return coeffs


class CharPoly:
    """A monic polynomial with coefficients mod p^prec (prec 1 = over F_p)."""

    __slots__ = ("p", "prec", "coeffs")

    def __init__(self, coeffs, p: int, prec: int):
        p = validate_prime(p)
        mod = p**prec
        cs = tuple(int(c) % mod for c in coeffs)
        if not cs or cs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", int(prec))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CharPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def reduce_mod_p(self) -> "CharPoly":
        return CharPoly(self.coeffs, self.p, 1)

    def evaluate(self, x: int, digits: int | None = None) -> int:
        """Horner evaluation mod p^digits (digits defaults to prec)."""
        d = self.prec if digits is None else digits
        if d > self.prec:
            raise PrecisionExceeded("polynomial does not carry that many digits")
        mod = self.p**d
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % mod
        return acc

    def derivative_at(self, x: int, digits: int | None = None) -> int:
        d = self.prec if digits is None else digits
        mod = self.p**d
        acc = 0
        for k in range(self.degree, 0, -1):
            acc = (acc * x + k * self.coeffs[k]) % mod
        return acc

    def roots_with_multiplicity(self) -> list[tuple[int, int]]:
        """All roots in F_p with multiplicities (prec-1 view), by scan."""
        f1 = self.reduce_mod_p()
        out = []
        for r in range(self.p):
            mult = 0
            cs = list(f1.coeffs)
            while len(cs) > 1 and _eval_mod(cs, r, self.p) == 0:
                cs = _synth_div(cs, r, self.p)
                mult += 1
            if mult:
                out.append((r, mult))
        return out

    def __eq__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        return (
            self.p == other.p
            and self.prec == other.prec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.coeffs))

    def __repr__(self):
        return f"CharPoly({list(self.coeffs)}, p={self.p}, prec={self.prec})"


def _eval_mod(coeffs, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _synth_div(coeffs, r: int, mod: int) -> list[int]:
    """Exact quotient of a polynomial by (x - r) mod a prime modulus."""
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for k in range(len(coeffs) - 1, 0, -1):
        carry = (coeffs[k] + carry * r) % mod
        out[k - 1] = carry
    return out


def hensel_lift_root(f: CharPoly, r0: int, prec: int | None = None) -> PadicInt:
    """Newton-lift a simple residue root of f to prec digits.

    Requires f(r0) = 0 mod p and f'(r0) a unit mod p; each step doubles
    the number of correct digits, so the loop runs O(log prec) times.
    """
    p = f.p
    target = f.prec if prec is None else int(prec)
    if target > f.prec:
        raise PrecisionExceeded(
            f"polynomial carries {f.prec} digits, cannot lift to {target}"
        )
    r0 = r0 % p
    if f.evaluate(r0, 1) != 0:
        raise ValueError(f"{r0} is not a root of f mod {p}")
    if f.derivative_at(r0, 1) == 0:
        raise NotASimpleRoot(
            f"f'({r0}) = 0 mod {p}: repeated residue root cannot be Newton-lifted"
        )
    r, e = r0, 1
    while e < target:
        e = min(2 * e, target)
        mod = p**e
        fr = f.evaluate(r, e)
        dfr = f.derivative_at(r, e)
        r = (r - fr * pow(dfr, -1, mod)) % mod
    out = PadicInt(r, p, target)
    if f.evaluate(out.residue, target) != 0:
        raise ArithmeticError(f"Newton lift of {r0} is not a root mod {p}^{target}")
    return out


def vector_norm(vec) -> Valuation:
    """Max-norm valuation of a vector of PadicInt: min entry valuation."""
    vals = [x.valuation() for x in vec]
    return min(vals)
