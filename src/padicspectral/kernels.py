"""Algorithms on plain grids of integers: the product and the inverse
mod p^N, and linear algebra over F_p.

In the package, ``PadicMatrix`` (linalg) and spectral's certify, lift
and rank check call these on canonical residues, each as
``kernels.<name>``, so a counter sees every call; demos and tests reach
them the same way.  The product and the inverse pick their algorithm
from the operands alone, and every choice computes the same integers,
so no result depends on it.
The product picks one of three algorithms: Winograd's inner product when
every entry is long, rows packed into one big integer when the entries
are short and n is not small, and one sum of products per entry
otherwise.  The inverse is one algorithm: forward elimination mod p
orders the rows or refuses a singular M, then Schur blocks, whose n^3
work is products, halve it down to 1 x 1 and 2 x 2 leaves.
Over F_p, a matrix certifies when its reduction has n distinct
eigenvalues (Kochubei's normal operators): one :func:`hessenberg` form
gives :func:`char_poly` and :func:`eigenvectors`, and :func:`roots`
scans F_p for the char poly's roots.
This module stands apart from linalg because importing the package
compiles every module, and the largest one sets the import's peak
memory.  Compile peaks under tracemalloc (CPython 3.11): core 1015 KiB,
the largest, this module 963 KiB, linalg 653 KiB; linalg read 1145 KiB
while it held the F_p algebra.
"""

from __future__ import annotations

from operator import add, mul

from .core import unit_inverse
from .errors import DivisionByHigherValuation


# A product of n >= _MIN_N rows leaves the plain kernel: for Winograd's
# inner product when every entry of both factors is long, for packed rows
# when the two factors' entries are short together (CPython 3.11 big
# integers, entries of 3-17 bits: packed over plain time 0.83-1.06 at
# n = 8, 0.71-0.91 at n = 10, 0.60-0.82 at n = 12).  The inverse has no
# threshold: below n = 8 its leaves took 0.58-0.80 of Gauss-Jordan's time
# at 64-4096 digits, 0.99-1.04 at one digit and 1.21 at (31,2,6).
_MIN_N = 8
_LONG_BITS = 400


def grid_matmul(a, b, mod: int) -> list[list[int]]:
    """The product of an n x k and a k x m grid of integers, reduced mod
    ``mod``: the one matrix-product kernel, behind ``@``, the eigenbasis
    lift and the inverse's blocks.

    It picks one of three algorithms from the operands alone.  From n = 8
    rows, Winograd's inner product runs when the smallest entry of each
    factor has 400 bits or more, and packed rows when no entry is negative
    and the largest entries of the two factors have 400 bits or fewer
    together; one sum of products per entry runs otherwise.  All
    three compute the same integers, so the result does not depend on the
    choice.  Winograd adds entries of one factor to the other's before it
    multiplies, so it halves the products only where both are long: a
    short or zero entry (a half-digit correction in the lift, a diagonal
    factor) rules it out.  Packing pays where the plain kernel's cost is
    the interpreter's, not the integers': the lift's early steps.
    """
    if len(a) >= _MIN_N:
        low_a, low_b = min(map(min, a)), min(map(min, b))
        if min(low_a.bit_length(), low_b.bit_length()) >= _LONG_BITS:
            return _winograd(a, b, mod)
        if min(low_a, low_b) >= 0:
            bits_a, bits_b = (max(map(max, x)).bit_length() for x in (a, b))
            if bits_a + bits_b <= _LONG_BITS:
                return _packed(a, b, mod, bits_a, bits_b)
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) % mod for col in cols] for row in a]


def _packed(a, b, mod: int, bits_a: int, bits_b: int) -> list[list[int]]:
    """Packed rows (Kronecker substitution; D. Harvey, *Faster polynomial
    multiplication via multipoint Kronecker substitution*, J. Symbolic
    Comput. 44, 2009) for factors with entries 0 <= a < 2^bits_a and
    0 <= b < 2^bits_b.

    Row k of B becomes the integer sum_j b_kj 2^(w j), with slots of w >=
    bits_a + bits_b + bits(K) bits rounded up to whole bytes, K the inner
    dimension, so that sum_k a_ik (row k) = sum_j c_ij 2^(w j): each c_ij <
    K 2^(bits_a + bits_b) <= 2^w fills its own slot and carries into no
    other, an identity of integers.  One big-integer sum of K products
    gives a row of C.  The factor with the longer entries is the one
    packed: when it is A, its columns are, which gives C column by column.
    """
    width = (bits_a + bits_b + len(b).bit_length() + 7) // 8
    short, long = (zip(*b), [*zip(*a)]) if bits_a > bits_b else (a, b)
    slots = [slice(i, i + width) for i in range(0, width * len(long[0]), width)]
    rows = [
        int.from_bytes(b"".join([x.to_bytes(width, "little") for x in r]), "little")
        for r in long
    ]
    out = []
    for r in short:
        c = sum(map(mul, r, rows)).to_bytes(width * len(slots), "little")
        out.append([int.from_bytes(c[slot], "little") % mod for slot in slots])
    return [list(col) for col in zip(*out)] if bits_a > bits_b else out


def _winograd(a, b, mod: int) -> list[list[int]]:
    """Winograd's inner product (S. Winograd, *A new algorithm for inner
    product*, IEEE Trans. Comput. C-17, 1968): with m the even part of the
    inner dimension n,

        sum_k x_k y_k = sum_{k < m/2} (x_2k + y_2k+1) (x_2k+1 + y_2k)
                        - sum x_2k x_2k+1 - sum y_2k y_2k+1
                        (+ x_(n-1) y_(n-1) for odd n),

    an identity of integers whose row and column terms are shared by the
    n entries of a row or column: n^3 / 2 products and O(n^2) more.
    """
    odd = len(b) % 2
    m = len(b) - odd
    cols = [
        (c[1:m:2], c[0:m:2], sum(map(mul, c[0:m:2], c[1:m:2])), c[-1] * odd)
        for c in zip(*b)
    ]
    out = []
    for row in a:
        r_even, r_odd = row[0:m:2], row[1:m:2]
        x, last = sum(map(mul, r_even, r_odd)), row[-1]
        out.append(
            [
                (sum(map(mul, map(add, r_even, c_odd), map(add, r_odd, c_even))) - x - y + last * z)
                % mod
                for c_odd, c_even, y, z in cols
            ]
        )
    return out


def grid_inverse(m, p: int, mod: int) -> list[list[int]]:
    """M^-1 mod ``mod`` = p^N for a square grid M; DivisionByHigherValuation
    when M mod p is singular.

    One algorithm at every n and N: :func:`row_order` fixes a row order P,
    so the leading principal minors of P M are units (P M = L U with unit
    pivots), :func:`_block_inverse` inverts P M by Schur blocks down to
    1 x 1 and 2 x 2 leaves, with no pivoting, and
    M^-1 = (P M)^-1 P puts the columns back.
    """
    order = row_order(m, p)
    grid = _block_inverse([m[i] for i in order], p, mod)
    cols = sorted(range(len(m)), key=order.__getitem__)
    return [[row[k] for k in cols] for row in grid]


def row_order(m, p: int) -> list[int]:
    """The pivot rows of forward elimination on M mod p, in turn, so P M has
    unit leading principal minors: M's rank check and the inverse's row
    order, and the one place a singular reduction is refused."""
    a = [[x % p for x in r] for r in m]
    order = list(range(len(a)))
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            raise DivisionByHigherValuation(
                "matrix is not invertible over Z_p (determinant non-unit)"
            )
        a[col], a[piv] = a[piv], a[col]
        order[col], order[piv] = order[piv], order[col]
        inv = pow(a[col][col], -1, p)
        for row in a[col + 1 :]:
            f = row[col] * inv % p
            if f:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], a[col][col:])]
    return order


def _block_inverse(m, p: int, mod: int) -> list[list[int]]:
    """M^-1 mod ``mod`` for a grid M with unit leading principal minors, by
    Schur blocks at every n >= 3 and N.

    With M = [[A, B], [C, D]], A of k = n // 2 rows, X = A^-1 B,
    Y = C A^-1 and the Schur complement S = D - C X,

        M^-1 = [[A^-1 + X S^-1 Y, -X S^-1], [-S^-1 Y, S^-1]],

    six half-size products and the inverses of A and S, found the same
    way.  The leading minors of A are M's, and the j-th of S is the
    (k + j)-th of M over det A, so all are units and nothing pivots.  The
    leaves are [[m]]^-1 = [[1 / m]] and [[a, b], [c, d]]^-1 =
    [[d, -b], [-c, a]] / (a d - b c), whose divisor is a leading minor of
    the leaf, so a unit, inverted by :func:`core.unit_inverse`.
    """
    n = len(m)
    if n == 1:
        return [[unit_inverse(m[0][0], p, mod)]]
    if n == 2:
        (a, b), (c, d) = m
        u = unit_inverse((a * d - b * c) % mod, p, mod)
        return [[d * u % mod, -b * u % mod], [-c * u % mod, a * u % mod]]
    k = n // 2
    c = [r[:k] for r in m[k:]]
    a_inv = _block_inverse([r[:k] for r in m[:k]], p, mod)
    x = grid_matmul(a_inv, [r[k:] for r in m[:k]], mod)
    y = grid_matmul(c, a_inv, mod)
    cx = zip(m[k:], grid_matmul(c, x, mod))
    s_inv = _block_inverse([[(d - e) % mod for d, e in zip(r[k:], q)] for r, q in cx], p, mod)
    sy = grid_matmul(s_inv, y, mod)
    top = zip(a_inv, grid_matmul(x, sy, mod), grid_matmul(x, s_inv, mod))
    out = [[(u + v) % mod for u, v in zip(r, q)] + [-w % mod for w in t] for r, q, t in top]
    return out + [[-w % mod for w in r] + q for r, q in zip(sy, s_inv)]


def hessenberg(rows, p: int):
    """(H, M), H = M^-1 A M upper Hessenberg over F_p, as tuples of rows,
    for a grid A of residues mod p: each row operation on H is undone on
    its columns, as on M = I."""
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
    return tuple(map(tuple, h)), tuple(map(tuple, m))


def char_poly(h, p: int) -> tuple[int, ...]:
    """det(xI - A) over F_p from A's Hessenberg form H: ascending
    coefficients in [0, p).

    det(xI - H) is expanded along its last column: with P_0 = 1,

        P_{m+1} = (x - h_mm) P_m
                  - sum_{i=1..m} h_{m-i,m} h_{m,m-1} ... h_{m-i+1,m-i} P_{m-i}

    (H. Cohen, *A Course in Computational Algebraic Number Theory*,
    Alg. 2.2.9).  O(n^3) operations on integers below p.
    """
    polys = [[1]]
    for m in range(len(h)):
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
    return tuple(polys[-1])


def roots(f, p: int) -> list[tuple[int, int]]:
    """The roots in F_p of a polynomial over F_p (ascending coefficients),
    as (root, multiplicity), by a scan of F_p: Horner's rule at r gives the
    value, the remainder by x - r, and the quotient, and r is divided out
    while the value is 0.  A total multiplicity below the degree means
    roots outside F_p."""
    f, out = list(f), []
    for r in range(p):
        mult = 0
        while len(f) > 1:
            horner, carry = [], 0
            for c in reversed(f):
                carry = (c + carry * r) % p
                horner.append(carry)
            if horner[-1]:
                break
            f = horner[-2::-1]
            mult += 1
        if mult:
            out.append((r, mult))
    return out


def eigenvectors(h, m, roots, p: int) -> list[list[int]]:
    """For each simple root r, the v over F_p with A v = r v whose last
    nonzero entry is 1, from A's Hessenberg form H = M^-1 A M.

    H - rI is made upper triangular by eliminating each row against the
    row above it only: H has one subdiagonal, so only row j + 1 can give
    column j a pivot, and rows j and j + 1 swap when row j has none
    there but row j + 1 does.  Inside an unreduced diagonal block of H
    each column but the last takes its pivot from the block's nonzero
    subdiagonal; the last has none exactly when r is a root of the
    block's char poly.  A simple root is a root of one block alone, so
    it leaves one column j without a pivot: w_j = 1, w is 0 after j and
    back-substitution fills it above j.  The kernel is a line, so M w
    scaled to 1 at its last nonzero entry is v.  O(n^2) per root.
    Raises ValueError unless exactly one pivot is zero: r is not a
    root, or a root of several blocks.
    """
    n, out = len(h), []
    for r in roots:
        t = [list(row) for row in h]
        for j in range(n):
            t[j][j] = (t[j][j] - r) % p
        for j in range(n - 1):
            a, b = t[j][j], t[j + 1][j]
            if b and not a:
                t[j], t[j + 1] = t[j + 1], t[j]
            elif b:
                f = b * pow(a, -1, p)
                pairs = zip(t[j + 1][j:], t[j][j:])
                t[j + 1][j:] = [(x - f * y) % p for x, y in pairs]
        free = [j for j in range(n) if not t[j][j]]
        if len(free) != 1:
            raise ValueError(f"{r} is not a simple eigenvalue mod {p}")
        w = [0] * n
        w[free[0]] = 1
        for i in reversed(range(free[0])):
            acc = sum(map(mul, t[i][i + 1 :], w[i + 1 :]))
            w[i] = -acc * pow(t[i][i], -1, p) % p
        v = [sum(map(mul, row, w)) % p for row in m]
        inv = pow(next(x for x in reversed(v) if x), -1, p)
        out.append([x * inv % p for x in v])
    return out
