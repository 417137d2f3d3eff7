"""Algorithms on plain grids of integers mod p^N: the product kernel and
the inverse.

``PadicMatrix`` (linalg) and spectral's lift and rank check, the only
importers, call these on canonical residues, each as ``kernels.grid_matmul``,
``kernels.grid_inverse`` or ``kernels.row_order``, so a counter sees every call.
Each picks its algorithm from the operands alone, and every choice
computes the same integers, so no result depends on it.
The product picks one of three algorithms: Winograd's inner product when
every entry is long, rows packed into one big integer when the entries
are short and n is not small, and one sum of products per entry
otherwise.  The inverse is one pivoting Gauss-Jordan pass, or, from n = 8
and two digits on, Schur blocks whose n^3 work is products, on the rows in
the order forward elimination mod p gives.  These live apart from linalg
because importing the package compiles every module, and its peak memory
is set by the largest one.
"""

from __future__ import annotations

from operator import add, mul

from .core import unit_inverse
from .errors import DivisionByHigherValuation


# Winograd's inner product pays once n >= 8 and every entry of both
# factors has at least 400 bits; packing rows pays once n >= 12 and the
# entries of the two factors have at most 400 bits together (measured on
# CPython 3.11 big integers); Schur blocks run once n >= 8 and N >= 2.
_WINOGRAD_MIN_N = 8
_WINOGRAD_MIN_BITS = 400
_PACKED_MIN_N = 12
_PACKED_MAX_BITS = 400
_BLOCK_MIN_N = 8


def grid_matmul(a, b, mod: int) -> list[list[int]]:
    """The product of an n x k and a k x m grid of integers, reduced mod
    ``mod``: the one matrix-product kernel, behind ``@``, the eigenbasis
    lift and the inverse's blocks.

    It picks one of three algorithms from the operands alone.  Winograd's
    inner product runs when n >= 8 and the smallest entry of each factor
    has 400 bits or more; packed rows run when n >= 12, no entry is
    negative and the largest entries of the two factors have 400 bits or
    fewer together; one sum of products per entry runs otherwise.  All
    three compute the same integers, so the result does not depend on the
    choice.  Winograd adds entries of one factor to the other's before it
    multiplies, so it halves the products only where both are long: a
    short or zero entry (a half-digit correction in the lift, a diagonal
    factor) rules it out.  Packing pays where the plain kernel's cost is
    the interpreter's, not the integers': the lift's early steps.
    """
    n = len(a)
    if n >= _WINOGRAD_MIN_N:
        low_a, low_b = min(map(min, a)), min(map(min, b))
        if min(low_a.bit_length(), low_b.bit_length()) >= _WINOGRAD_MIN_BITS:
            return _winograd(a, b, mod)
        if n >= _PACKED_MIN_N and min(low_a, low_b) >= 0:
            bits_a, bits_b = (max(map(max, x)).bit_length() for x in (a, b))
            if bits_a + bits_b <= _PACKED_MAX_BITS:
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

    Where Schur blocks do not run (``_blocks_pay``), at N = 1 among others,
    Gauss-Jordan with pivoting inverts M in one pass.  Elsewhere forward
    elimination mod p first fixes a row order P, the pivot rows in turn, so
    the leading principal minors of P M are units (P M = L U with unit
    pivots); the blocks invert P M with no pivoting, and M^-1 = (P M)^-1 P
    puts the columns back.
    """
    if not _blocks_pay(len(m), p, mod):
        return _gauss_jordan(m, p, mod)
    order = row_order(m, p)
    grid = _block_inverse([m[i] for i in order], p, mod)
    cols = sorted(range(len(m)), key=order.__getitem__)
    return [[row[k] for k in cols] for row in grid]


def _pivot(a, col: int, p: int) -> int:
    """The first row from ``col`` down whose entry in column col is a unit,
    in a grid eliminated below the diagonal up to col; when none is, M mod
    p is singular, and the one refusal of the inverse is raised."""
    piv = next((i for i in range(col, len(a)) if a[i][col] % p), None)
    if piv is None:
        raise DivisionByHigherValuation(
            "matrix is not invertible over Z_p (determinant non-unit)"
        )
    return piv


def row_order(m, p: int) -> list[int]:
    """The pivot rows of forward elimination on M mod p, in turn, so P M has
    unit leading principal minors: M's rank check, refusing as the inverse does."""
    a = [[x % p for x in r] for r in m]
    order = list(range(len(a)))
    for col in range(len(a)):
        piv = _pivot(a, col, p)
        a[col], a[piv] = a[piv], a[col]
        order[col], order[piv] = order[piv], order[col]
        inv = pow(a[col][col], -1, p)
        for row in a[col + 1 :]:
            f = row[col] * inv % p
            if f:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], a[col][col:])]
    return order


def _gauss_jordan(rows, p: int, mod: int) -> list[list[int]]:
    """M^-1 mod ``mod`` by Gauss-Jordan on [M | I], each pivot taken by
    :func:`_pivot`; the columns before it are 0 in its row, so each step
    starts at its column.  For M with unit leading principal minors, as at
    the leaves of the blocks, each pivot is the next diagonal entry."""
    n = len(rows)
    a = [[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(rows)]
    for col in range(n):
        k = _pivot(a, col, p)
        a[col], a[k] = a[k], a[col]
        inv = unit_inverse(a[col][col], p, mod)
        piv = a[col][col:] = [x * inv % mod for x in a[col][col:]]
        for i, row in enumerate(a):
            f = row[col]
            if f and i != col:
                row[col:] = [(x - f * y) % mod for x, y in zip(row[col:], piv)]
    return [row[n:] for row in a]


def _blocks_pay(n: int, p: int, mod: int) -> bool:
    """Whether Schur blocks run on an n x n grid mod p^N: n >= 8 and N >= 2.
    They beat Gauss-Jordan from (13,64,12) up, and lose at most 0.1 ms below
    n^2 bits(p^N) of about 10,000, which no workload inverts at n >= 8."""
    return mod > p and n >= _BLOCK_MIN_N


def _block_inverse(m, p: int, mod: int) -> list[list[int]]:
    """M^-1 mod ``mod`` for a grid M with unit leading principal minors.

    With M = [[A, B], [C, D]], X = A^-1 B, Y = C A^-1 and the Schur
    complement S = D - C X,

        M^-1 = [[A^-1 + X S^-1 Y, -X S^-1], [-S^-1 Y, S^-1]],

    six half-size products and the inverses of A and S, found the same
    way.  The leading minors of A are M's, and the j-th of S is the
    (k + j)-th of M over det A, so all are units and nothing pivots.
    """
    n = len(m)
    if not _blocks_pay(n, p, mod):
        return _gauss_jordan(m, p, mod)
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
