"""Special functions on Z_p and the series engine, with tracked precision.

Everything here is driven by a :class:`SeriesBudget`, whose ``target``
digits must come out right.  Every truncation rule of the package lives
here, one home per series: _log_terms for the logarithm, which both
log_series (on a PadicInt with operator.mul or a PadicMatrix with
operator.matmul) and plog, the one scalar log, follow; binomials for the
Mahler series, on either type as well; and _power_residues for the power
series, entered only through PowerPlan.powers, which principal_power (so
pexp) and the groups call.  Each series bounds the division loss it is
about to incur, so the target digits are a guarantee, not a hope, and no
caller adds digits of its own except for the one that the division by
log(1+p) costs.

Provided functions: binomial (Mahler) coefficients P_n(x), principal-unit
powers (1+z)^lam by exponent splitting (lam = a + p^k b: one short
pow or a table of small powers for a, and (1+t)^b = sum_j C(b, j) t^j,
t = (1+z)^(p^k) - 1, for b, about W / k terms at W digits), the p-adic
logarithm by p-power argument reduction (about sqrt(W log2 p) series
terms at W working digits, k from the same cost model as the powers),
the exponential as (1+p)^(x / log(1+p)) on the same power route, and
the coordinate zeta(s) = log s / log(1+p) that writes any principal
unit of Q_p as (1+p)^zeta.

The binomial rows C(b, j) depend on the exponents alone, so a
:class:`PowerPlan` builds them once, with one exact division per entry,
and each of its powers(z) is a few shared products and one dot product
per exponent, with no division.  A one-parameter group keeps the plan of
its eigenvalues; nothing here is cached at module level but log(1+p).
"""

from __future__ import annotations

from functools import lru_cache
from math import log2, sqrt
from operator import mul

from .core import (
    MAX_WORKING_PREC,
    Frozen,
    PadicInt,
    Valuation,
    as_padic,
    check_int,
    validate_prec,
    validate_prime,
)
from .errors import (
    InsufficientPrecision,
    NotPrincipal,
    OutOfConvergenceDomain,
    PrimeMismatch,
)

__all__ = [
    "SeriesBudget",
    "is_principal_unit",
    "mahler_coeff",
    "principal_power",
    "PowerPlan",
    "plog",
    "pexp",
    "zeta_of",
    "truncation_length",
    "digit_truncation_error",
]

def _vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula (n minus digit sum, over p - 1)."""
    s, m = 0, n
    while m:
        s += m % p
        m //= p
    return (n - s) // (p - 1)


def _ceil_log(p: int, n: int) -> int:
    """Smallest e >= 0 with p^e >= n."""
    e, q = 0, 1
    while q < n:
        q *= p
        e += 1
    return e


def _log_terms(p: int, v: int, working: int) -> tuple[int, int]:
    """The log's truncation rule: (K, w0) for log(1 + x), v(x) = v >= 1,
    to ``working`` digits.  K is the last k with k v - floor(log_p k) <
    working (at least 1; the bound is nondecreasing), so every dropped
    term x^k / k vanishes mod p^working, and the terms run at w0 =
    working + ceil_log_p(K+1) digits, so each division by k stays exact
    to working digits."""
    if v < 1:
        raise OutOfConvergenceDomain("log series needs valuation >= 1")
    terms = 1
    while (terms + 1) * v - _ceil_log(p, terms + 2) + 1 < working:
        terms += 1
    w0 = working + _ceil_log(p, terms + 1)
    if w0 > MAX_WORKING_PREC:
        raise InsufficientPrecision(f"log series needs {w0} working digits")
    return terms, w0


def log_series(x, v: int, working: int, product):
    """log(1 + x) = sum (-1)^(k-1) x^k / k to exactly ``working`` digits.

    x is a PadicInt or PadicMatrix of valuation (sup norm) v >= 1, lifted
    by zero digits, and ``product`` its ring product.  The terms and their
    digits come from :func:`_log_terms`.  The scalar logarithm runs the
    same rule on plain residues (:func:`plog`); this one is its
    reference and the operator log of :func:`generator_log_series`.
    """
    terms, w0 = _log_terms(x.p, v, working)
    x_w = x.at_prec(w0)
    acc = xpow = x_w
    for k in range(2, terms + 1):
        xpow = product(xpow, x_w)
        term = xpow.divide_exact(k)
        acc = acc + term if k % 2 == 1 else acc - term
    return acc.truncate_to(working)


def binomials(x, digits: int, terms: int, product):
    """Yield P_0(x), ..., P_terms(x), P_n(x) = x (x-1) ... (x-n+1) / n!.

    x is a PadicInt or PadicMatrix, lifted by zero digits, and ``product``
    its ring product.  P_n = P_{n-1} (x - n + 1) / n runs at digits +
    v_p(terms!) digits, so each division is exact and P_n keeps >= digits.
    """
    w0 = digits + _vp_factorial(terms, x.p)
    if w0 > MAX_WORKING_PREC:
        raise InsufficientPrecision(f"P_{terms} needs {w0} working digits")
    x_w = x.at_prec(w0)
    acc = unit = x_w**0
    yield acc
    for n in range(1, terms + 1):
        acc = product(acc, x_w - (n - 1) * unit).divide_exact(n)
        yield acc


class SeriesBudget(Frozen):
    """Precision contract for all truncated series: ``target`` digits of
    guaranteed correctness in results."""

    __slots__ = ("target",)

    # read only by bench/workloads.py, whose tolerances subtract it
    guard = 0

    def __init__(self, target: int):
        self._set(target=check_int(target, 1, "target precision"))

    def __repr__(self):
        return f"SeriesBudget(target={self.target!r})"

    # called only by bench/workloads.py; the budget does not depend on p
    @classmethod
    def auto(cls, target: int, p: int) -> "SeriesBudget":
        validate_prime(p)
        return cls(target)

    def to_dict(self) -> dict:
        return {"target": self.target}

    @classmethod
    def from_dict(cls, d: dict) -> "SeriesBudget":
        # a "guard" key, written by older versions, is ignored
        return cls(validate_prec(*cls._read(d, "target")))


def is_principal_unit(x: PadicInt) -> bool:
    """True iff x = 1 + z with |z| < 1, i.e. x is congruent to 1 mod p."""
    return x.reduce_mod_p() == 1


def require_principal(x: PadicInt, what: str) -> None:
    """The one refusal of a non-principal unit, ``what`` naming it."""
    if not is_principal_unit(x):
        raise NotPrincipal(f"{what} must be congruent to 1 mod p, got {x!r}")


def truncation_length(v_z: int, budget: SeriesBudget) -> int:
    """Smallest M with M * v_z >= target.

    Dropped Mahler terms z^n P_n(lam) for n > M then all have valuation
    above target, since |P_n(lam)| <= 1 on Z_p.
    """
    check_int(v_z, 1, "argument valuation")
    return -(-budget.target // v_z)


def mahler_coeff(n: int, lam: PadicInt) -> PadicInt:
    """Binomial polynomial P_n(lam) = lam (lam-1) ... (lam-n+1) / n!.

    Integral despite the division: the last value of :func:`binomials`.
    P_n is p^floor(log_p n)-Lipschitz on Z_p, so only lam.prec -
    floor(log_p n) digits are determined by lam's tracked digits; the
    result carries exactly that precision and InsufficientPrecision is
    raised when no digit is left.
    """
    if check_int(n, 0, "n") == 0:
        return PadicInt.one(lam.p, lam.prec)
    out_prec = lam.prec - (_ceil_log(lam.p, n + 1) - 1)
    if out_prec < 1:
        raise InsufficientPrecision(f"{lam.prec} digits fix no digit of P_{n}")
    *_, p_n = binomials(lam, lam.prec, n, mul)
    # cumulative loss is exactly v_p(n!), landing back on lam.prec
    return p_n.truncate_to(out_prec)


def principal_power(z: PadicInt, lam, budget: SeriesBudget) -> PadicInt:
    """(1 + z)^lam for |z| < 1 and lam in Z_p (a PadicInt or an int >= 0):
    the one power of a :class:`PowerPlan` of lam built for this call."""
    return PowerPlan(z.p, [lam], budget).powers(z)[0]


class PowerPlan:
    """The powers (1+z)^e of fixed exponents at a fixed target T over p, for
    any z: built once, the exponents checked and held as PadicInts over p
    (an int e >= 0 as PadicInt(e, p, T)), the split point k and, for
    each exponent e cut mod p^(T-1) and split as a + p^k b, the k base-p
    digits of a and the binomial row of b (:func:`_binomial_row`).

    k comes from (p, T, n) alone, at v(z) = 1, so one plan serves every z:
    a larger v(z) reads a shorter prefix of each row.  A one-parameter
    group builds one on its first evaluation and keeps it; it is no cache
    of results, since every call still forms its own powers of z.
    """

    __slots__ = ("p", "target", "exponents", "k", "table", "parts")

    def __init__(self, p: int, lams, budget: SeriesBudget):
        target = budget.target
        self.p, self.target, self.exponents = p, target, []
        for lam in lams:
            lam = lam if isinstance(lam, PadicInt) else check_int(lam, 0, "exponent")
            self.exponents.append(as_padic(lam, p, target))
        self.k = k = _split_point(p, target, len(self.exponents), 1)
        self.table = _a_part(p, len(self.exponents))[1]
        # the rows' steps, shared by all rows: J = ceil(T / s), s = 1 + k,
        # A_0 = T + v_p((J-1)!) and A_j = A_(j-1) - s - v_p(j)
        terms, ps = -(-target // (1 + k)), p ** (1 + k)
        mod, out, steps = p ** (target + _vp_factorial(terms - 1, p)), p**target, []
        for j in range(1, terms):
            divisor, out = _index_divisor(j, p, mod), out // ps
            steps.append((divisor, out))
            mod //= ps * divisor[1]
        self.parts = []  # (a, digits of a, row of b)
        for e in self.exponents:
            b, a = divmod(e.residue % p ** (target - 1), p**k)
            digits = [a // p**i % p for i in range(k)]
            self.parts.append((a, digits, _binomial_row(b, p, steps[:b])))

    def powers(self, z: PadicInt) -> list[PadicInt]:
        """(1 + z)^e for each exponent e, z over p with |z| < 1.

        Each result is pow(1 + z, e, p^N) on the canonical residues, N =
        min(T, prec z, prec e + v(z)), and is exact
        at N digits: for odd p, (1+z)^(p^k) = 1 mod p^(k + v(z)), so the
        result depends only on e mod p^(N - v(z)), which e's tracked digits
        fix, and moving z by p^(prec z) t moves it by p^(prec z) at most.
        The result is a principal unit with valuation(result - 1) >=
        valuation(z).  The residues come from :func:`_power_residues`, which
        computes the same residues as those pows with far fewer products.
        """
        if z.p != self.p:
            raise PrimeMismatch(f"p={z.p} vs p={self.p}")
        if z.is_unit():
            raise NotPrincipal("argument must have valuation >= 1 (got a unit)")
        v, cap = z.valuation().value, min(self.target, z.prec)
        precisions = [min(cap, e.prec + v) for e in self.exponents]
        residues = _power_residues(z.residue, self, precisions)
        return [PadicInt(r, self.p, d) for r, d in zip(residues, precisions)]


def _binomial_row(b: int, p: int, steps) -> list[int]:
    """C(b, j) mod out_j for j <= len(steps), (divisor_j, out_j) = steps[j-1]:
    with out_j = p^(T - j s), every digit that the term C(b, j) t^j keeps
    mod p^T when v(t) >= s.

    By C(b, j) = C(b, j-1) (b-j+1) / j, step j run mod p^A_(j-1), A_j =
    T - j s + v_p((J-1)! / j!) for rows of J entries at most, and divided
    by j through :func:`_divide_index` with divisor_j =
    :func:`_index_divisor` (j, p, p^A_(j-1)): the division costs v_p(j)
    digits and leaves A_j + s, more than step j + 1 and entry j need.  One
    product and one exact division per entry, on numbers that shrink
    along the row, and no big binomial.
    """
    c, row = 1, [1]
    for j, (divisor, out) in enumerate(steps, 1):
        b %= divisor[0]  # b mod p^A_(j-1): only those digits reach c
        c = _divide_index(c * (b - j + 1) % divisor[0], divisor)
        row.append(c % out)
    return row


def _a_part(p: int, n: int) -> tuple[float, bool]:
    """Products per digit k of the split for t = (1+z)^(p^k) - 1 and n powers
    (1+z)^a, a < p^k, and whether a table gives the fewest: pows take (1 +
    1.5 n) k log2 p; a table of (1+z)^(d p^i), i < k, 0 < d < p, k (p - 1)
    and one per digit of each a, each weighing 1.25 products inside pow.
    Per call with a plan on CPython 3.11, the table won up to p = 19 at
    128 digits and 4 exponents and up to p = 67 at 16 (p = 131 went to
    pows), and it took 57% of the pows' time at (67, 256, 64)."""
    table = 1.25 * (p - 1 + n)
    pows = (1 + 1.5 * n) * log2(p)
    return min(table, pows), table < pows


def _split_point(p: int, digits: int, n: int, v: int) -> int:
    """The k of the split lam = a + p^k b for n exponents, v = v(z).

    Counted in products of numbers of ``digits`` digits, the powers
    (1+z)^a with a < p^k and t = (1+z)^(p^k) - 1 cost c k together, c
    from :func:`_a_part` (by pows or by a table, whichever is cheaper),
    while the series in t takes digits / (v + k) products for the powers
    of t, and each exponent's dot product with its row half a product per
    term (no reduction, and row entries that shrink along the row).  c k
    + (1 + n/2) digits / (v + k) is least at v + k = sqrt((1 + n/2)
    digits / c); a PowerPlan takes v = 1.  Per call with a plan on
    CPython 3.11, against every k within 3 of this one, it was the
    fastest or within 3% of the fastest at (p, digits, n) = (3, 128, 4),
    (5, 128, 4), (7, 128, 4), (11, 128, 4), (5, 32, 3), (13, 64, 12),
    (31, 128, 4), (31, 128, 16), (67, 256, 64) and (5, 4096, 1); at
    (65521, 1024, 16), where a dot product term weighs less than half a
    reduced product, k = 1 took 11% less.  The logarithm is the case n =
    0: it forms t by one pow and sums one series.
    """
    return max(0, round(sqrt((1 + n / 2) * digits / _a_part(p, n)[0])) - v)


def _power_residues(z: int, plan: PowerPlan, precisions) -> list[int]:
    """pow(1 + z, e, p^d) for each exponent e of ``plan`` and its d in
    ``precisions``, every d at most the plan's target T: z = 0 mod p.

    1 + z has order dividing p^(T-1) mod p^T for odd p, so the plan cuts e
    mod p^(T-1) and splits it as a + p^k b with a < p^k.  With t =
    (1+z)^(p^k) - 1, of valuation v + k >= 1 + k for v = v(z), (1+z)^e =
    (1+z)^a (1+t)^b = (1+z)^a sum_j C(b, j) t^j, an identity of integers.
    The terms j >= J = ceil(m / (v + k)) vanish mod p^m, m the largest d
    (all but j = 0 once v >= m), and so do those with j > b, and C(b, j)
    t^j mod p^T needs C(b, j) only mod p^(T - j (1+k)), all that the
    plan's row keeps.  So each exponent
    takes one dot product of its row with the J powers of t mod p^m, shared
    by all exponents, and no division runs per call.  (1+z)^a is one pow,
    or, where :func:`_a_part` finds it cheaper, one product per nonzero
    digit of a from a table shared by all exponents, which gives t too (E.
    Brickell et al., *Fast exponentiation with precomputation*, EUROCRYPT
    '92).
    """
    if not precisions:
        return []
    p, m = plan.p, max(precisions)
    mod_m = p**m
    v, k = Valuation.of_residue(z, p, m).value, plan.k
    table, base = [], 1 + z  # table[i][d] = (1+z)^(d p^i), for this call only
    for _ in range(k if plan.table else 0):
        table.append([1, base])
        for _ in range(p - 1):
            table[-1].append(table[-1][-1] * base % mod_m)
        base = table[-1].pop()  # (1+z)^(p^(i+1)), the next row's base
    t = (base if table else pow(base, p**k, mod_m)) - 1
    tpow = [1]
    for _ in range(-(-m // (v + k)) - 1):
        tpow.append(tpow[-1] * t % mod_m)
    out = []
    for d, (a, digits, row) in zip(precisions, plan.parts):
        mod = p**d
        acc = sum(map(mul, row, tpow)) % mod
        if not table:
            acc = pow(1 + z, a, mod) * acc % mod
        for powers, digit in zip(table, digits):
            if digit:
                acc = acc * powers[digit] % mod
        out.append(acc)
    return out


def _index_divisor(j: int, p: int, mod: int) -> tuple[int, int, int, int]:
    """What :func:`_divide_index` needs to divide a term known mod ``mod``
    (a power of p) by j = p^v u, p not dividing u: (mod, p^v, u, mod^-1 mod
    u), computed once where many terms share j and mod."""
    pv = 1
    while j % p == 0:
        j, pv = j // p, pv * p
    return mod, pv, j, pow(mod, -1, j)


def _divide_index(c: int, divisor) -> int:
    """A series term c, known mod ``mod``, divided by j, ``divisor`` being
    :func:`_index_divisor`'s (mod, p^v, u, mod^-1 mod u) for j: p^v divides
    c exactly, and u divides c after adding the multiple of mod that makes
    c divisible by u.  The quotient is known mod mod / p^v and is not
    reduced."""
    mod, pv, u, inv = divisor
    c //= pv
    return (c - c % u * inv % u * mod) // u


def plog(u: PadicInt, budget: SeriesBudget) -> PadicInt:
    """p-adic logarithm of a principal unit.

    log is an isometry from 1 + pZ_p onto pZ_p for odd p, so no input
    digits are lost: the result is good to min(target, prec(u)) digits
    and has valuation >= 1 (exactly 1 at u = 1 + p).

    With W = target, argument reduction: t = u^(p^k) - 1 mod p^(W+k), of
    valuation v(u - 1) + k for odd p, gives log u = log(1+t) / p^k.  The
    series on t runs to W + k digits by the rule of :func:`_log_terms` and
    the exact division by p^k returns to W.  Since log is an isometry on
    pZ_p, cutting t mod p^(W+k) moves log(1+t) by p^(W+k) at most.  k
    comes from the cost model of :func:`_split_point` with no exponents.
    Everything runs on plain residues, each term t^j / j divided by
    :func:`_divide_index`, so the result is the true log u mod p^W.
    """
    require_principal(u, "plog argument")
    p, working = u.p, budget.target
    k = _split_point(p, working, 0, Valuation.of_residue(u.residue - 1, p, working).value)
    w = working + k
    t = pow(u.residue, p**k, p**w) - 1
    terms, w0 = _log_terms(p, Valuation.of_residue(t, p, w).value, w)
    mod = p**w0
    acc = term_num = t
    for j in range(2, terms + 1):
        term_num = term_num * t % mod
        term = _divide_index(term_num, _index_divisor(j, p, mod))
        acc = acc + term if j % 2 else acc - term
    return PadicInt(acc % p**w // p**k, p, min(working, u.prec))


@lru_cache(maxsize=256)
def log_one_plus_p(p: int, working: int) -> PadicInt:
    """log(1+p) to ``working`` digits.

    The series depends only on p and the working precision, and zeta_of,
    pexp and the operator log divide by it, zeta_of once per eigenvalue,
    so it is computed once per pair.
    """
    return plog(PadicInt(1 + p, p, working), SeriesBudget(working))


def pexp(x: PadicInt, budget: SeriesBudget) -> PadicInt:
    """p-adic exponential, convergent on pZ_p for odd p.

    Inverse isometry of plog; the result is a principal unit good to
    min(target, prec(x)) digits.  Computed as (1+p)^(x / log(1+p)) with
    log(1+p) at W = target + 1 digits.  The division by log(1+p), of
    valuation exactly 1, leaves the exponent good to m - 1 digits with
    m = min(prec x, W), and an exponent error of p^(m-1) moves the power
    by p^m at most.  The extra digit keeps log(1+p) nonzero at target 1.
    """
    p = x.p
    out_prec = min(budget.target, x.prec)
    if x.is_zero():
        return PadicInt.one(p, out_prec)
    if x.valuation().value < 1:
        raise OutOfConvergenceDomain("pexp needs valuation >= 1")
    exponent = x.divide_exact(log_one_plus_p(p, budget.target + 1))
    return principal_power(PadicInt(p, p, out_prec), exponent, budget)


def zeta_of(s: PadicInt, budget: SeriesBudget) -> PadicInt:
    """The coordinate zeta with s = (1+p)^zeta, for s a principal unit.

    zeta = log s / log(1+p) lies in Z_p because |log s| <= 1/p while
    |log(1+p)| = 1/p exactly.  The division by log(1+p) costs exactly
    one digit, so the result carries min(target, prec(s) - 1) digits, and
    InsufficientPrecision is raised for a one-digit s.
    """
    require_principal(s, "zeta_of argument")
    if s.prec < 2:
        raise InsufficientPrecision(f"s = {s} has one digit, and zeta(s) costs one")
    wide = budget.target + 1
    return plog(s, SeriesBudget(wide)).divide_exact(log_one_plus_p(s.p, wide))


def digit_truncation_error(n: int, p: int) -> int:
    """Proven valuation bound for the digit-truncated power.

    If zeta is cut after its p^n digit, the scalar approximant
    a_n(lam) = (1+p)^((zeta_0 + zeta_1 p + ... + zeta_n p^n) lam)
    satisfies |a_n(lam) - (1+p)^(zeta lam)| <= p^(-n-1) sup_{k>=1}
    p^(-k + (k-1)/(p-1)) uniformly in lam.  The sup is attained at
    k = 1 (the exponent is strictly decreasing in k), giving p^(-n-2);
    returned as the exact valuation bound n + 2.
    """
    check_int(n, 0, "n")
    validate_prime(p)
    return n + 2
