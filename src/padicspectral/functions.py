"""Scalar special functions on Z_p with rigorously tracked precision.

Everything here is driven by a :class:`SeriesBudget`: ``target`` digits
must come out right, ``guard`` extra digits absorb the valuation lost to
divisions.  Each truncated series additionally extends its working
precision by the exact cumulative division loss it is about to incur
(v_p of the relevant factorials), so the budgeted digits are a
guarantee, not a hope.

Provided functions: binomial (Mahler) coefficients P_n(x), principal-unit
powers (1+z)^lam by one modular pow, the p-adic logarithm by p-power
argument reduction (about sqrt(W) series terms at W working digits),
the exponential as (1+p)^(x / log(1+p)), and the coordinate
zeta(s) = log s / log(1+p) that writes any principal unit of Q_p as
(1+p)^zeta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .core import PadicInt, validate_prime
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
    "plog",
    "pexp",
    "zeta_of",
    "truncation_length",
    "digit_truncation_error",
]

# Hard ceiling on internal working digits; hitting it means the request
# itself is unreasonable at desk scale.
MAX_WORKING_PREC = 4096


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


@dataclass(frozen=True)
class SeriesBudget:
    """Precision contract for all truncated series.

    target: digits of guaranteed correctness in results.
    guard:  extra working digits; must dominate the division losses of
            the longest series run under this budget.
    """

    target: int
    guard: int

    def __post_init__(self):
        if self.target < 1:
            raise ValueError("target precision must be >= 1")
        if self.guard < 0:
            raise ValueError("guard must be >= 0")

    @property
    def working(self) -> int:
        return self.target + self.guard

    @classmethod
    def auto(cls, target: int, p: int) -> "SeriesBudget":
        """Guard sized from the worst-case truncation length.

        The longest series under this budget has K_max = target + guard
        terms (argument valuation 1), so guard = ceil(log_p K_max) + 2
        closes over itself; the fixpoint is reached in a couple of steps.
        """
        p = validate_prime(p)
        guard = 2
        while True:
            k_max = target + guard
            nxt = _ceil_log(p, k_max) + 2
            if nxt == guard:
                return cls(target, guard)
            guard = nxt

    def to_dict(self) -> dict:
        return {"target": self.target, "guard": self.guard}

    @classmethod
    def from_dict(cls, d: dict) -> "SeriesBudget":
        return cls(int(d["target"]), int(d["guard"]))


def is_principal_unit(x: PadicInt) -> bool:
    """True iff x = 1 + z with |z| < 1, i.e. x is congruent to 1 mod p."""
    return x.reduce_mod_p() == 1


def _require_principal(x: PadicInt, what: str) -> None:
    if not is_principal_unit(x):
        raise NotPrincipal(f"{what} must be congruent to 1 mod p, got {x!r}")


def truncation_length(v_z: int, budget: SeriesBudget) -> int:
    """Smallest M with M * v_z >= target + guard.

    Dropped Mahler terms z^n P_n(lam) for n > M then all have valuation
    at least target + guard, since |P_n(lam)| <= 1 on Z_p.
    """
    if v_z < 1:
        raise ValueError("truncation_length needs argument valuation >= 1")
    return -(-budget.working // v_z)


def mahler_coeff(n: int, lam: PadicInt) -> PadicInt:
    """Binomial polynomial P_n(lam) = lam (lam-1) ... (lam-n+1) / n!.

    Integral despite the division: computed by the recurrence
    P_n = P_{n-1} (lam - n + 1) / n at precision extended by v_p(n!),
    so each division by n is exact.  P_n is p^floor(log_p n)-Lipschitz
    on Z_p, so only lam.prec - floor(log_p n) digits are determined by
    lam's tracked digits; the result carries exactly that precision and
    InsufficientPrecision is raised when no digit is left.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return PadicInt.one(lam.p, lam.prec)
    out_prec = lam.prec - (_ceil_log(lam.p, n + 1) - 1)
    if out_prec < 1:
        raise InsufficientPrecision(f"{lam.prec} digits fix no digit of P_{n}")
    w0 = lam.prec + _vp_factorial(n, lam.p)
    if w0 > MAX_WORKING_PREC:
        raise InsufficientPrecision(
            f"P_{n} at {lam.prec} digits needs {w0} working digits"
        )
    lam_w = lam.lift_to(w0)
    acc = PadicInt.one(lam.p, w0)
    for k in range(1, n + 1):
        acc = (acc * (lam_w - (k - 1))).divide_exact(PadicInt(k, lam.p, acc.prec))
    # cumulative loss is exactly v_p(n!), landing back on lam.prec
    return acc.truncate_to(out_prec)


def principal_power(z: PadicInt, lam, budget: SeriesBudget) -> PadicInt:
    """(1 + z)^lam for |z| < 1 and lam in Z_p (a PadicInt or an int >= 0).

    pow(1 + z, lam, p^N) on the canonical residues, N = min(target,
    prec z, prec lam) (no prec lam for an int), is exact at N digits:
    for odd p, (1+z)^(p^k) = 1 mod p^(k + v(z)), so the result depends
    only on lam mod p^(N - v(z)), which lam's tracked digits fix, and
    moving z by p^(prec z) t moves it by p^(prec z) at most.  The result
    is a principal unit with valuation(result - 1) >= valuation(z).
    """
    if isinstance(lam, int):
        if lam < 0:
            raise ValueError("integer exponents must be >= 0")
        exponent, out_prec = lam, min(budget.target, z.prec)
    else:
        if lam.p != z.p:
            raise PrimeMismatch(f"p={z.p} vs p={lam.p}")
        exponent, out_prec = lam.residue, min(budget.target, z.prec, lam.prec)
    if z.is_unit():
        raise NotPrincipal("argument must have valuation >= 1 (got a unit)")
    return PadicInt(pow(1 + z.residue, exponent, z.p**out_prec), z.p, out_prec)


def _plog_terms(x: PadicInt, budget: SeriesBudget) -> PadicInt:
    """log(1 + x) good to W = budget.working digits, for v(x) >= 1.

    Argument reduction: with t = (1+x)^(p^k) - 1 mod p^(W+k), which has
    v(t) = v(x) + k for odd p, log(1+x) = log(1+t) / p^k.  The series on
    t runs to W + k digits and the exact division by p^k returns to W.
    Since log is an isometry on pZ_p, cutting t mod p^(W+k) moves
    log(1+t) by p^(W+k) at most.  k = isqrt(W) cuts the series from
    about W terms to about sqrt(W).
    """
    p = x.p
    k = isqrt(budget.working)
    w = budget.working + k
    t = pow(1 + x.residue, p**k, p**w) - 1
    return _plog_series(PadicInt(t, p, w), w).divide_exact(PadicInt(p**k, p, w))


def _plog_series(x: PadicInt, working: int) -> PadicInt:
    """log(1 + x) = sum (-1)^(k-1) x^k / k to ``working`` digits, untruncated."""
    p = x.p
    v = x.valuation().value
    # first K where every later term valuation k*v - v_p(k) clears the
    # budget; k*v - floor(log_p k) is nondecreasing for v >= 1
    trunc = 1
    while trunc * v - _ceil_log(p, trunc + 1) + 1 < working:
        trunc += 1
    w0 = working + _ceil_log(p, trunc + 1)
    if w0 > MAX_WORKING_PREC:
        raise InsufficientPrecision(f"log series needs {w0} working digits")
    x_w = PadicInt(x.residue, p, w0)
    acc = PadicInt.zero(p, w0)
    xpow = PadicInt.one(p, w0)
    for j in range(1, trunc + 1):
        xpow = xpow * x_w
        term = xpow.divide_exact(PadicInt(j, p, xpow.prec))
        acc = acc + term if j % 2 == 1 else acc - term
    return acc


@lru_cache(maxsize=256)
def _log_one_plus_p(p: int, working: int) -> PadicInt:
    """log(1+p) by _plog_terms under a budget of ``working`` digits.

    The series depends only on p and the working precision, and zeta_of
    divides by it once per eigenvalue, so it is computed once per pair.
    """
    return _plog_terms(PadicInt(p, p, working), SeriesBudget(working, 0))


def plog(u: PadicInt, budget: SeriesBudget) -> PadicInt:
    """p-adic logarithm of a principal unit.

    log is an isometry from 1 + pZ_p onto pZ_p for odd p, so no input
    digits are lost: the result is good to min(target, prec(u)) digits
    and has valuation >= 1 (exactly 1 at u = 1 + p).
    """
    _require_principal(u, "plog argument")
    x = u - 1
    out_prec = min(budget.target, u.prec)
    if x.is_zero():
        return PadicInt.zero(u.p, out_prec)
    return _plog_terms(x, budget).truncate_to(out_prec)


def pexp(x: PadicInt, budget: SeriesBudget) -> PadicInt:
    """p-adic exponential, convergent on pZ_p for odd p.

    Inverse isometry of plog; the result is a principal unit good to
    min(target, prec(x)) digits.  Computed as (1+p)^(x / log(1+p)) with
    log(1+p) at W = budget.working digits.  The division by log(1+p), of
    valuation exactly 1, leaves the exponent good to m - 1 digits with
    m = min(prec x, W), and an exponent error of p^(m-1) moves the power
    by p^m at most.
    """
    p = x.p
    out_prec = min(budget.target, x.prec)
    if x.is_zero():
        return PadicInt.one(p, out_prec)
    if x.valuation().value < 1:
        raise OutOfConvergenceDomain("pexp needs valuation >= 1")
    exponent = x.divide_exact(_log_one_plus_p(p, budget.working))
    return PadicInt(pow(1 + p, exponent.residue, p**out_prec), p, out_prec)


def zeta_of(s: PadicInt, budget: SeriesBudget) -> PadicInt:
    """The coordinate zeta with s = (1+p)^zeta, for s a principal unit.

    zeta = log s / log(1+p) lies in Z_p because |log s| <= 1/p while
    |log(1+p)| = 1/p exactly.  The division by log(1+p) costs exactly
    one digit, so the result carries min(target, prec(s) - 1) digits.
    """
    _require_principal(s, "zeta_of argument")
    p = s.p
    if (s - 1).is_zero():
        return PadicInt.zero(p, min(budget.target, max(s.prec - 1, 1)))
    wide = SeriesBudget(budget.target + 2, budget.guard)
    num = _plog_terms(s - 1, wide)
    den = _log_one_plus_p(p, wide.working)
    zeta = num.divide_exact(den)
    out_prec = min(budget.target, max(s.prec - 1, 1), zeta.prec)
    return zeta.truncate_to(out_prec)


def digit_truncation_error(n: int, p: int) -> int:
    """Proven valuation bound for the digit-truncated power.

    If zeta is cut after its p^n digit, the scalar approximant
    a_n(lam) = (1+p)^((zeta_0 + zeta_1 p + ... + zeta_n p^n) lam)
    satisfies |a_n(lam) - (1+p)^(zeta lam)| <= p^(-n-1) sup_{k>=1}
    p^(-k + (k-1)/(p-1)) uniformly in lam.  The sup is attained at
    k = 1 (the exponent is strictly decreasing in k), giving p^(-n-2);
    returned as the exact valuation bound n + 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    validate_prime(p)
    return n + 2
