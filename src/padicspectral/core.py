"""Fixed-precision arithmetic in the ring Z_p of p-adic integers.

An element is stored as a single canonical residue in ``[0, p^N)``
together with the prime ``p`` and the number ``N`` of tracked base-p
digits.  All operations are exact integer arithmetic mod p^N; nothing
here ever touches a float.  Binary operations require equal primes and
return results at the minimum of the two operand precisions; exact
division records its precision loss explicitly instead of hiding it.

The prime 2 is rejected everywhere: the group-theoretic results this
package implements need p odd (exp must converge on pZ_p).
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from math import isqrt
from operator import add, attrgetter, mul, sub

from .errors import (
    DivisionByHigherValuation,
    InsufficientPrecision,
    PrecisionExceeded,
    PrimeMismatch,
)

__all__ = ["Valuation", "PadicInt"]

# Desk-scale bounds on input; the residue eigenvalue scan walks all of F_p.
MAX_PRIME = 2**16
MAX_DIM = 64
MAX_PREC = 4096
# The series' cap on working digits, above MAX_PREC by what a series run
# at MAX_PREC adds: v_p(M!) < M/2 for M <= MAX_PREC binomial terms, and
# under sqrt(W) plus a few for the log's argument reduction.
MAX_WORKING_PREC = 2 * MAX_PREC
# Decimals are read and written in chunks of _DIGITS digits, below the
# interpreter's int/str limit (4300 digits by default), up to a length of
# MAX_DECIMAL_DIGITS, which covers every value below MAX_PRIME^MAX_PREC.
_DIGITS = 4000
_CHUNK = 10**_DIGITS
MAX_DECIMAL_DIGITS = len(str(MAX_PRIME)) * MAX_PREC


@lru_cache(maxsize=None, typed=True)
def validate_prime(p: int) -> int:
    """Check that ``p`` is an odd prime >= 3 and return it.

    Raises ValueError for p < 2, composites (by trial division, fast
    enough below MAX_PRIME), p >= MAX_PRIME and p = 2 (excluded globally:
    the one-parameter-group results require p odd), and TypeError for
    anything but an int (by :func:`check_int`).  Every value constructor
    calls this, so valid primes are cached, keyed by value and type, so
    that 5.0 never finds the entry of 5.
    """
    if check_int(p, 2, "p") == 2:
        raise ValueError("p = 2 is not supported (odd primes only)")
    if p >= MAX_PRIME:
        raise ValueError(f"p = {p} is beyond the supported bound {MAX_PRIME}")
    if p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        raise ValueError(f"{p} is not an odd prime")
    return p


def validate_prec(prec) -> int:
    """A precision read from input, by :func:`from_decimal`, at most MAX_PREC."""
    prec = from_decimal(prec)
    if prec > MAX_PREC:
        raise ValueError(f"precision {prec} is beyond the bound {MAX_PREC}")
    return prec


def to_decimal(n: int) -> str:
    """str(n), written in chunks of 4000 digits once |n| >= 10^4000."""
    if n < _CHUNK:
        return str(n) if n > -_CHUNK else "-" + to_decimal(-n)
    high, low = divmod(n, _CHUNK)
    return to_decimal(high) + str(low).zfill(_DIGITS)


def from_decimal(s) -> int:
    """An int (by :func:`is_int`) as it is, or the value of a decimal string:
    an optional sign, then ASCII digits, at most MAX_DECIMAL_DIGITS of them,
    read in chunks of 4000 digits.  Anything else raises ValueError."""
    if is_int(s):
        return s
    if not isinstance(s, str):
        raise ValueError(f"a {type(s).__name__} is not a decimal integer")
    digits = s[1:] if s[:1] in ("+", "-") else s
    if len(digits) > MAX_DECIMAL_DIGITS or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{s[:40]!r}: not a sign and at most {MAX_DECIMAL_DIGITS} digits")
    first = len(digits) % _DIGITS or _DIGITS
    n = int(digits[:first])
    for i in range(first, len(digits), _DIGITS):
        n = n * _CHUNK + int(digits[i : i + _DIGITS])
    return -n if s[0] == "-" else n


class Frozen:
    """An immutable value: ``_set`` stores its fields once, in one call,
    and assignment afterwards raises AttributeError.  ``==`` and ``hash``
    compare ``_fields``: the values of the names in ``__slots__`` along
    the MRO, a tuple, or the bare value for a single name.  A slot named
    ``_memo`` is no field: it holds what the value derives from its
    fields on first use, which ``_set`` may store later."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = [n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ())]
        names = [n for n in slots if n != "_memo"]
        cls._fields = property(attrgetter(*names))

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _read(cls, d, *names) -> list:
        """The values of ``names`` in ``d``, a JSON object read by ``from_dict``,
        or a ValueError naming this type and every field d lacks (or no object)."""
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object")
        missing = [k for k in names if k not in d]
        if missing:
            raise ValueError(f"{cls.__name__} is missing field(s) {missing}")
        return [d[k] for k in names]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)


@total_ordering
class Valuation(Frozen):
    """A p-adic valuation: an exact value v >= 0 or "at least N".

    ``Valuation.at_least(N)`` is the valuation of a residue that is zero
    at precision N: all that is known is v >= N.  The absolute value
    |x| = p^(-v) is represented by this object (together with p), never
    as a float.  Ordering compares the known lower bound, with the
    open-ended form sorting above an exact value of the same size.
    """

    __slots__ = ("value", "open_ended")  # open_ended: only "v >= value" is known

    def __init__(self, value: int, open_ended: bool = False):
        self._set(value=check_int(value, 0, "valuation"), open_ended=open_ended)

    def __lt__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return self._fields < other._fields

    @classmethod
    def exact(cls, v: int) -> "Valuation":
        return cls(v)

    @classmethod
    def at_least(cls, n: int) -> "Valuation":
        return cls(n, True)

    @property
    def is_finite(self) -> bool:
        return not self.open_ended

    def __add__(self, other: "Valuation") -> "Valuation":
        if not isinstance(other, Valuation):
            return NotImplemented
        return Valuation(self.value + other.value, self.open_ended or other.open_ended)

    @classmethod
    def of_residue(cls, r: int, p: int, prec: int) -> "Valuation":
        """Valuation of a residue r in [0, p^prec): exact, or at_least(prec) for 0."""
        if r == 0:
            return cls.at_least(prec)
        v = 0
        while r % p == 0:
            r //= p
            v += 1
        return cls.exact(v)

    def __repr__(self):
        return f"v>={self.value}" if self.open_ended else f"v={self.value}"


class PadicValue(Frozen):
    """Residues mod p^prec over one odd prime: what PadicInt and
    PadicMatrix share, and the one home of their precision rules.

    A subclass checks p and prec by :meth:`_check_precision` first in
    ``__init__``, then sets them and its residues in one ``_set``, and
    defines ``_at(prec)``: itself at ``prec`` digits, its residues reduced
    or lifted by zero digits.
    """

    __slots__ = ("p", "prec")

    @staticmethod
    def _check_precision(p: int, prec: int) -> tuple[int, int]:
        """Validate p and prec and return them."""
        return validate_prime(p), check_int(prec, 1, "precision")

    @property
    def modulus(self) -> int:
        return self.p**self.prec

    def truncate_to(self, prec: int):
        """Drop digits down to ``prec`` (must be >= 1)."""
        if prec > self.prec:
            raise PrecisionExceeded(
                f"cannot truncate to {prec} digits, only {self.prec} tracked"
            )
        return self.at_prec(prec)

    def at_prec(self, prec: int):
        """This value at exactly ``prec`` digits: the truncation, or the lift by
        zero digits; the new digits are a choice, so a lift is *some* preimage."""
        return self if prec == self.prec else self._at(prec)

    def _congruence_modulus(self, prec: int, digits: int) -> int:
        """p^digits, for a congruence between operands tracked to ``prec``.

        ``digits`` may not exceed ``prec``: asking about digits nobody
        tracked is an error, not a guess.
        """
        if check_int(digits, 0, "digits") > prec:
            raise PrecisionExceeded(
                f"congruence at {digits} digits exceeds tracked precision {prec}"
            )
        return self.p**digits

    def _divide_residues(self, residues, d) -> tuple[list[int], int]:
        """Residues at this precision divided exactly by the scalar d
        (PadicInt or int): the quotients and their precision N - v(d),
        N = min(self.prec, d.prec)."""
        p = self.p
        d = as_padic(d, p, self.prec)
        w_val = d.valuation()
        if not w_val.is_finite:
            raise DivisionByHigherValuation("divisor is zero at its precision")
        w = w_val.value
        pw = p**w
        quotients = []
        for r in residues:
            q, rest = divmod(r, pw)
            if rest:
                raise DivisionByHigherValuation(
                    f"divisor valuation {w} exceeds dividend valuation "
                    f"{Valuation.of_residue(r, p, self.prec).value}"
                )
            quotients.append(q)
        prec = min(self.prec, d.prec) - w
        if prec < 1:
            raise InsufficientPrecision(
                f"division by valuation {w} leaves no digits at precision "
                f"{min(self.prec, d.prec)}"
            )
        mod = p**prec
        inv = unit_inverse(d.residue // pw, p, mod)
        return [q * inv % mod for q in quotients], prec


def is_int(x) -> bool:
    """The integer rule of every scalar, matrix entry, prime, precision,
    count and exponent: an int, not a bool, so that True is never read as 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_int(k, least: int, what: str) -> int:
    """k, an int by :func:`is_int` (else TypeError) and at least ``least``
    (else ValueError)."""
    if not is_int(k):
        raise TypeError(f"{what} {k!r} is not an int")
    if k < least:
        raise ValueError(f"{what} must be >= {least}")
    return k


def unit_inverse(u: int, p: int, mod: int) -> int:
    """u^-1 mod ``mod`` = p^N for a unit u, by Newton's iteration
    x <- x (2 - u x) from u^-1 mod p: each step doubles the digits that
    are right.  It inverts exact divisors and the matrix inverse's 1 x 1
    and 2 x 2 leaves.  At 128 digits of 31 it takes 12 us where
    pow(u, -1, mod) takes 75; at N = 1 it is that one pow."""
    x, q = pow(u, -1, p), p
    while q < mod:
        q = min(q * q, mod)
        x = x * (2 - u * x) % q
    return x


def as_padic(x, p: int, prec: int) -> "PadicInt":
    """The scalar coercion rule: a PadicInt over p as it is, an int (by
    :func:`is_int`) as PadicInt(x, p, prec); a PadicInt over another prime
    raises PrimeMismatch, and anything else TypeError."""
    if isinstance(x, PadicInt):
        if x.p != p:
            raise PrimeMismatch(f"p={p} vs p={x.p}")
        return x
    if is_int(x):
        return PadicInt(x, p, prec)
    raise TypeError(f"{x!r} is not an int or a PadicInt")


def _ring_op(op):
    """PadicInt's binary operation ``op`` on residues: the other operand
    coerced by :func:`as_padic`, the precision the minimum of the two; an
    operand it refuses is left to the other type (NotImplemented)."""

    def method(self, other):
        try:
            other = as_padic(other, self.p, self.prec)
        except TypeError:
            return NotImplemented
        prec = min(self.prec, other.prec)
        return PadicInt(op(self.residue, other.residue), self.p, prec)

    return method


class PadicInt(PadicValue):
    """An element of Z_p known modulo p^N.

    ``PadicInt(n, p, prec)`` reduces any signed integer ``n`` to its
    canonical residue in ``[0, p^prec)``; any other ``n``, a bool or a
    string included, raises TypeError.  Instances are immutable;
    arithmetic returns new objects.  ``==`` and ``hash`` are Frozen's
    (same prime, same precision, same residue), so no int equals a
    PadicInt; use :meth:`congruent` for equality at a chosen number of
    digits, against an int too.
    """

    __slots__ = ("residue",)

    def __init__(self, n: int, p: int, prec: int):
        if not is_int(n):
            raise TypeError(f"{n!r} is not an int")
        p, prec = self._check_precision(p, prec)
        self._set(p=p, prec=prec, residue=n % p**prec)

    def _at(self, prec: int) -> "PadicInt":
        return PadicInt(self.residue, self.p, prec)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, p: int, prec: int) -> "PadicInt":
        return cls(0, p, prec)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicInt":
        return cls(1, p, prec)

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        """True when the residue vanishes, i.e. valuation is at least N."""
        return self.residue == 0

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def valuation(self) -> Valuation:
        """Largest v < prec with p^v dividing the residue, else at_least(prec)."""
        return Valuation.of_residue(self.residue, self.p, self.prec)

    def reduce_mod_p(self) -> int:
        """Image in the residue field F_p."""
        return self.residue % self.p

    def digits(self) -> tuple[int, ...]:
        """The prec tracked base-p digits, least significant first."""
        out = []
        r = self.residue
        for _ in range(self.prec):
            r, d = divmod(r, self.p)
            out.append(d)
        return tuple(out)

    # -- ring operations ---------------------------------------------

    __add__ = __radd__ = _ring_op(add)
    __sub__ = _ring_op(sub)
    __rsub__ = _ring_op(lambda a, b: b - a)
    __mul__ = __rmul__ = _ring_op(mul)

    def __neg__(self):
        return PadicInt(-self.residue, self.p, self.prec)

    def __pow__(self, k: int):
        k = check_int(k, 0, "exponent")
        return PadicInt(pow(self.residue, k, self.modulus), self.p, self.prec)

    def divide_exact(self, other) -> "PadicInt":
        """Exact division in Z_p with explicit precision loss.

        With w = valuation(divisor), the quotient is correct mod
        p^(N - w) where N = min of the operand precisions; the result
        carries precision N - w so the loss is never silent.
        """
        (q,), prec = self._divide_residues((self.residue,), other)
        return PadicInt(q, self.p, prec)

    def inverse(self) -> "PadicInt":
        """Multiplicative inverse; requires a unit."""
        if not self.is_unit():
            raise DivisionByHigherValuation("only units are invertible in Z_p")
        return PadicInt(unit_inverse(self.residue, self.p, self.modulus), self.p, self.prec)

    # -- comparisons ---------------------------------------------------

    def congruent(self, other, digits: int) -> bool:
        """True iff self - other vanishes mod p^digits, for digits at most
        both operands' precision."""
        other = as_padic(other, self.p, self.prec)
        mod = self._congruence_modulus(min(self.prec, other.prec), digits)
        return (self.residue - other.residue) % mod == 0

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON form: prime and precision always travel with the value."""
        return {"p": self.p, "prec": self.prec, "val": to_decimal(self.residue)}

    @classmethod
    def from_dict(cls, d: dict) -> "PadicInt":
        val, p, prec = cls._read(d, "val", "p", "prec")
        return cls(from_decimal(val), from_decimal(p), validate_prec(prec))

    def __repr__(self):
        return f"PadicInt({to_decimal(self.residue)}, p={self.p}, prec={self.prec})"

    def __str__(self):
        return f"{to_decimal(self.residue)} + O({self.p}^{self.prec})"
