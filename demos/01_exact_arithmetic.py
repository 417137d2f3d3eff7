"""A tour of exact arithmetic in Z_p.

Every value is a residue mod p^N together with its prime and precision;
there are no floats anywhere.  This script walks through construction,
valuations, the ultrametric inequality, and how division makes its
precision loss visible instead of hiding it.

Run:  python3 demos/01_exact_arithmetic.py
"""

from padicspectral import PadicInt, Valuation
from padicspectral.core import validate_prime
from padicspectral.errors import DivisionByHigherValuation

p = validate_prime(5)
N = 8

print("=== construction and canonical residues ===")
x = PadicInt(36, p, N)
y = PadicInt(-1, p, N)
print(f"36 in Z_5 at 8 digits:   {x}")
print(f"-1 in Z_5 at 8 digits:   {y}   (complement representation)")
print(f"base-5 digits of 36:     {x.digits()}")

print()
print("=== valuation: how divisible by p a value is ===")
for n in (6, 50, 250, 0):
    v = PadicInt(n, p, N).valuation()
    print(f"v_5({n:>3}) = {v}   (|{n}|_5 = 5^{-v.value})" if v.is_finite
          else f"v_5({n:>3}) = {v}   (zero at this precision)")

print()
print("=== the ultrametric: |a+b| <= max(|a|, |b|) ===")
a, b = PadicInt(25, p, N), PadicInt(75, p, N)
print(f"v(a) = {a.valuation()}, v(b) = {b.valuation()}, "
      f"v(a+b) = {(a + b).valuation()}  (sum can only get MORE divisible)")
c = PadicInt(10, p, N)
print(f"v(25) = {a.valuation()}, v(10) = {c.valuation()}, "
      f"v(25+10) = {(a + c).valuation()}  (different valuations: min wins exactly)")

print()
print("=== division tracks its precision cost ===")
num, den = PadicInt(50, p, N), PadicInt(10, p, N)
q = num.divide_exact(den)
print(f"50 / 10 = {q}")
print(f"dividing by valuation-1 scalar cost one digit: prec {num.prec} -> {q.prec}")

unit_q = PadicInt(36, p, N).divide_exact(PadicInt(6, p, N))
print(f"36 / 6  = {unit_q}   (unit divisor: no loss, prec stays {unit_q.prec})")

try:
    PadicInt(1, p, N).divide_exact(PadicInt(5, p, N))
except DivisionByHigherValuation as e:
    print(f"1 / 5 refused: {e}  (1/5 is not a p-adic integer)")

print()
print("=== equality is a precision-aware statement ===")
s, t = PadicInt(36, p, N), PadicInt(36 + 5**4, p, N)
print(f"{s.residue} vs {t.residue}: equal mod 5^4? {s.congruent(t, 4)};"
      f" equal mod 5^5? {s.congruent(t, 5)}")

print()
print("=== precision propagates by minimum through arithmetic ===")
wide, narrow = PadicInt(7, p, 12), PadicInt(3, p, 4)
print(f"prec {wide.prec} * prec {narrow.prec} -> prec {(wide * narrow).prec}")
