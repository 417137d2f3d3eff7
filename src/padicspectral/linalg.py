"""Matrices over Z_p with the sup operator norm.

The operator norm of a matrix acting on (Z_p)^n with the max norm is
max |a_ij|, so norms are just entry valuations.  This module supplies
the ring operations, the inverse, and reduction to the residue field
F_p: the precision-1 PadicMatrix, where residue eigenanalysis runs.  One
Hessenberg reduction mod p gives the char poly and every eigenvector, by
back-substitution; eigenvalues come from a root scan of F_p.  Nothing
here lifts a root p-adically; the spectral module lifts the residue
eigenbasis by Newton's method.
"""

from __future__ import annotations

from math import gcd
from operator import add, mul, sub

from .core import MAX_DIM, PadicInt, PadicValue, Valuation, validate_prec
from .errors import DimensionMismatch, DivisionByHigherValuation, PrimeMismatch

__all__ = ["PadicMatrix", "ResidueMatrix", "vector_norm"]


def _as_residue(x, p: int, mod: int) -> int:
    """x as a residue mod ``mod``, a power of p."""
    if isinstance(x, PadicInt):
        if x.p != p:
            raise PrimeMismatch(f"entry prime {x.p} != matrix prime {p}")
        return x.residue % mod
    return int(x) % mod


class PadicMatrix(PadicValue):
    """An n x n matrix of p-adic integers sharing one prime and precision.

    Entries are stored as canonical integer residues; ``entry(i, j)``
    wraps one as a :class:`PadicInt`.  Binary operations require equal
    primes and dimensions and combine precision by minimum, matching the
    scalar rules.
    """

    __slots__ = ("n", "_e")

    def __init__(self, rows, p: int, prec: int):
        mod = self._set_precision(p, prec)
        p = self.p
        rows = [list(r) for r in rows]
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must be at least 1 x 1")
        if n > MAX_DIM:
            raise DimensionMismatch(f"dimension {n} exceeds cap {MAX_DIM}")
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("matrix must be square")
        grid = tuple(tuple(_as_residue(x, p, mod) for x in row) for row in rows)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_e", grid)

    def _at(self, prec: int) -> "PadicMatrix":
        return PadicMatrix(self._e, self.p, prec)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n: int, p: int, prec: int) -> "PadicMatrix":
        return cls.diagonal([1] * n, p, prec)

    @classmethod
    def zeros(cls, n: int, p: int, prec: int) -> "PadicMatrix":
        return cls.diagonal([0] * n, p, prec)

    @classmethod
    def diagonal(cls, diag, p: int, prec: int) -> "PadicMatrix":
        n = len(diag)
        return cls(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
            p,
            prec,
        )

    # -- queries -------------------------------------------------------

    def entry(self, i: int, j: int) -> PadicInt:
        return PadicInt(self._e[i][j], self.p, self.prec)

    def rows(self):
        return self._e

    def is_zero(self) -> bool:
        return all(x == 0 for row in self._e for x in row)

    def op_norm(self) -> Valuation:
        """Sup norm as a valuation: min entry valuation (at_least for 0),
        which is the valuation of the gcd of the entries."""
        gcd_entries = gcd(*(x for row in self._e for x in row))
        return Valuation.of_residue(gcd_entries, self.p, self.prec)

    def reduction(self) -> "ResidueMatrix":
        return ResidueMatrix(self._e, self.p)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "PadicMatrix") -> int:
        if self.p != other.p:
            raise PrimeMismatch(f"p={self.p} vs p={other.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        return min(self.prec, other.prec)

    def _entrywise(self, op, other: "PadicMatrix") -> "PadicMatrix":
        prec = self._check(other)
        return PadicMatrix(
            [list(map(op, r1, r2)) for r1, r2 in zip(self._e, other._e)], self.p, prec
        )

    def __add__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "PadicMatrix") -> "PadicMatrix":
        return self._entrywise(sub, other)

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

    def divide_exact(self, d) -> "PadicMatrix":
        """Entrywise exact division by a scalar (PadicInt or int); as for
        PadicInt.divide_exact, a divisor of valuation w costs w digits."""
        n = self.n
        flat, prec = self._divide_residues([x for row in self._e for x in row], d)
        return PadicMatrix([flat[i : i + n] for i in range(0, n * n, n)], self.p, prec)

    def inverse(self) -> "PadicMatrix":
        """Gauss-Jordan inverse; exists iff the reduction is invertible."""
        n = self.n
        rows = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(self._e)]
        reduced, pivots = _gauss_jordan(rows, self.p, self.modulus)
        if pivots != list(range(n)):
            raise DivisionByHigherValuation(
                "matrix is not invertible over Z_p (determinant non-unit)"
            )
        return PadicMatrix([row[n:] for row in reduced], self.p, self.prec)

    # -- comparisons and io ------------------------------------------------

    def congruent(self, other: "PadicMatrix", digits: int) -> bool:
        mod = self._congruence_modulus(self._check(other), digits)
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
        m = cls(entries, int(d["p"]), validate_prec(d["prec"]))
        if m.n != int(d["n"]):
            raise DimensionMismatch("declared n does not match entries")
        return m

    def __repr__(self):
        return (
            f"PadicMatrix({[list(r) for r in self._e]}, "
            f"p={self.p}, prec={self.prec})"
        )


class ResidueMatrix(PadicMatrix):
    """The reduction mod p over F_p = Z_p / pZ_p: a precision-1 PadicMatrix
    with residue eigenanalysis; its arithmetic returns PadicMatrix objects."""

    __slots__ = ("_hess",)

    def __init__(self, rows, p: int):
        super().__init__(rows, p, 1)
        object.__setattr__(self, "_hess", _hessenberg(self._e, self.p))

    def is_scalar(self) -> bool:
        """True iff this equals nu * I for some nu in F_p (nu = 0 included)."""
        return self == self._e[0][0] * PadicMatrix.identity(self.n, self.p, 1)

    def char_poly(self) -> tuple[int, ...]:
        """det(xI - A) over F_p: ascending coefficients in [0, p).

        det(xI - H) of the Hessenberg form H is expanded along its last
        column: with P_0 = 1,

            P_{m+1} = (x - h_mm) P_m
                      - sum_{i=1..m} h_{m-i,m} h_{m,m-1} ... h_{m-i+1,m-i} P_{m-i}

        (H. Cohen, *A Course in Computational Algebraic Number Theory*,
        Alg. 2.2.9).  O(n^3) operations on integers below p.
        """
        p, n = self.p, self.n
        h, _ = self._hess
        polys = [[1]]
        for m in range(n):
            nxt = [0] + polys[m]
            for k, c in enumerate(polys[m]):
                nxt[k] -= h[m][m] * c
            t = 1
            for i in range(1, m + 1):
                t = t * h[m - i + 1][m - i] % p
                if not t:
                    break  # every later term carries this zero subdiagonal entry
                f = t * h[m - i][m]
                for k, c in enumerate(polys[m - i]):
                    nxt[k] -= f * c
            polys.append([c % p for c in nxt])
        return tuple(polys[n])

    def eigenvalues(self) -> list[tuple[int, int]]:
        """Residue eigenvalues as (root, multiplicity), scanning all of F_p.

        Roots missing from F_p show up as a total multiplicity below n.
        """
        p, out = self.p, []
        f = list(self.char_poly())
        for r in range(p):
            mult = 0
            while len(f) > 1:
                quotient, remainder = _synth_div(f, r, p)
                if remainder:
                    break
                f = quotient
                mult += 1
            if mult:
                out.append((r, mult))
        return out

    def eigenvector(self, r: int) -> list[int]:
        """A nonzero v over F_p with A v = r v, by row reduction of A - r I.

        v is 1 at the first free column of the reduced echelon form and 0
        at the others; for a simple eigenvalue the kernel is a line, so
        this fixes v.  Raises ValueError if r is not an eigenvalue.
        """
        p, n = self.p, self.n
        shifted = self - r * PadicMatrix.identity(n, p, 1)
        reduced, pivots = _gauss_jordan(shifted.rows(), p, p)
        free = next((c for c in range(n) if c not in pivots), None)
        if free is None:
            raise ValueError(f"{r} is not an eigenvalue mod {p}")
        v = [0] * n
        v[free] = 1
        for row, col in zip(reduced, pivots):
            v[col] = -row[free] % p
        return v

    def eigenvectors(self, roots) -> list[list[int]]:
        """[eigenvector(r) for r in roots], from the Hessenberg form H = M^-1 A M.

        Zeros on H's subdiagonal cut it into unreduced diagonal blocks,
        where (H - rI) w = 0 fixes w up to one entry per block (see
        _fill_block).  For r a root of exactly one block, w is that
        block's kernel vector, zero below it, and each block above takes
        the last entry that clears its first row: O(n^2) per root.  M w,
        scaled to 1 at its last nonzero entry, is eigenvector(r), whose
        free column is that entry.  A root of several blocks (a kernel of
        dimension above 1) or of none goes to eigenvector.
        """
        p, n = self.p, self.n
        h, m = self._hess
        starts = [i for i in range(n) if i == 0 or not h[i][i - 1]]
        blocks = list(zip(starts, starts[1:] + [n]))[::-1]  # bottom first
        out = []
        for r in roots:
            # each block alone, last entry 1: its residual is the slope in t
            slopes = {b: _fill_block(h, r, p, *b, [0] * n, 1) for b in blocks}
            owners = [b for b in blocks if not slopes[b]]
            if len(owners) != 1:
                out.append(self.eigenvector(r))
                continue
            w = [0] * n
            _fill_block(h, r, p, *owners[0], w, 1)
            for s, e in blocks:
                if e <= owners[0][0]:
                    r0 = _fill_block(h, r, p, s, e, w, 0)
                    _fill_block(h, r, p, s, e, w, -r0 * pow(slopes[s, e], -1, p))
            v = [sum(map(mul, row, w)) % p for row in m]
            inv = pow(next(x for x in reversed(v) if x), -1, p)
            out.append([x * inv % p for x in v])
        return out


def _fill_block(h, r: int, p: int, s: int, e: int, w: list, t: int) -> int:
    """Set w_{e-1} = t, then w_{e-2}, ..., w_s so that rows e-1, ..., s+1 of
    (H - rI) w = 0 hold, for H unreduced on the block [s, e) and w already
    set after it.  Returns row s of (H - rI) w mod p, affine in t."""
    w[e - 1] = t % p
    for i in range(e - 1, s, -1):
        acc = sum(map(mul, h[i][i:], w[i:])) - r * w[i]
        w[i - 1] = -acc * pow(h[i][i - 1], -1, p) % p
    return (sum(map(mul, h[s][s:], w[s:])) - r * w[s]) % p


def _gauss_jordan(rows, p: int, mod: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row echelon form of ``rows`` over Z/mod, mod a power of
    p, with unit pivots, and the pivot column of each of its leading rows."""
    a = [[x % mod for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0])):
        k = len(pivots)
        piv = next((i for i in range(k, len(a)) if a[i][col] % p), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        inv = pow(a[k][col], -1, mod)
        a[k] = [x * inv % mod for x in a[k]]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != k:
                a[i] = [(x - f * y) % mod for x, y in zip(row, a[k])]
        pivots.append(col)
    return a, pivots


def _hessenberg(rows, p: int):
    """(H, M), H = M^-1 A M upper Hessenberg over F_p: each row operation
    on H is undone on its columns, as on M = I."""
    n = len(rows)
    h = [list(row) for row in rows]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue  # column k - 1 is already zero below the subdiagonal
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h + m:
                row[k], row[piv] = row[piv], row[k]
        inv = pow(h[k][k - 1], -1, p)
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv % p
            if u:
                h[i] = [(x - u * y) % p for x, y in zip(h[i], h[k])]
                for row in h + m:
                    row[k] = (row[k] + u * row[i]) % p
    return h, m


def _synth_div(coeffs, r: int, mod: int) -> tuple[list[int], int]:
    """Divide a polynomial (ascending coefficients) by x - r mod a prime
    modulus: the quotient and the remainder, which is the value at r."""
    horner = []
    carry = 0
    for c in reversed(coeffs):
        carry = (c + carry * r) % mod
        horner.append(carry)
    return horner[-2::-1], horner[-1]


def vector_norm(vec) -> Valuation:
    """Max-norm valuation of a vector of PadicInt: min entry valuation."""
    vals = [x.valuation() for x in vec]
    return min(vals)
