"""Scalar special functions: Mahler powers, p-adic log/exp, and zeta.

The star is (1+z)^lam for |z| < 1 and lam any p-adic integer, defined by
the Mahler series sum_n z^n P_n(lam) with P_n the binomial polynomials
and computed exactly as one modular pow of lam's residue: for odd p,
(1+z)^(p^k) = 1 mod p^(k + v(z)), so the tracked digits of lam fix it.
The p-adic logarithm and exponential are mutually inverse isometries
between the principal units 1 + pZ_p and the disk pZ_p, which is what
makes the coordinate zeta(s) = log s / log(1+p) work: every principal
unit of Q_p is uniquely (1+p)^zeta.

Run:  python3 demos/02_special_functions.py
"""

from padicspectral import (
    PadicInt,
    SeriesBudget,
    mahler_coeff,
    pexp,
    plog,
    principal_power,
    truncation_length,
    zeta_of,
)

p = 5
budget = SeriesBudget(32)
print(f"budget: {budget.target} target digits")
print(f"series with a valuation-1 argument are cut after "
      f"{truncation_length(1, budget)} terms")

print()
print("=== binomial (Mahler) coefficients P_n(lam) = C(lam, n) ===")
lam = PadicInt(7, p, 32)
for n in range(5):
    print(f"P_{n}(7) = {mahler_coeff(n, lam).residue}")
print("(P_3(7) = 7*6*5/3! = 35: integral despite the division)")

print()
print("=== principal powers by modular pow ===")
z = PadicInt(5, p, 32)
two = principal_power(z, PadicInt(2, p, 32), budget)
print(f"(1+5)^2 by pow: {two.residue % 5**6} (mod 5^6), exactly 36")

# the exponent can be a full 32-digit p-adic integer
big_lam = PadicInt(123456789 * 5**20 + 98765, p, 32)
u = principal_power(z, big_lam, budget)
print(f"6^lam for a 32-digit lam: ...{u.residue % 5**8} (mod 5^8), "
      f"still a principal unit: {u.reduce_mod_p() == 1}")

print()
print("=== log and exp are inverse isometries ===")
s = PadicInt(1 + 5 * 1234567, p, 32)
ls = plog(s, budget)
print(f"v(log s) = {ls.valuation()} (logs of principal units live in pZ_p)")
back = pexp(ls, budget)
print(f"exp(log s) == s at all 32 digits: {back.congruent(s, 32)}")
print(f"v(log(1+p)) = {plog(PadicInt(6, p, 32), budget).valuation()} "
      "(exactly 1: the yardstick for zeta)")

print()
print("=== every principal unit is (1+p)^zeta ===")
for k in (1, 2, 7):
    s = PadicInt(6**k, p, 32)
    print(f"zeta(6^{k}) = {zeta_of(s, budget).residue}")

s = PadicInt(1 + 5 * 424242, p, 32)
zeta = zeta_of(s, budget)
reconstructed = principal_power(PadicInt(5, p, 32), zeta, budget)
print(f"zeta of a random unit has {zeta.prec} digits "
      "(the division by log(1+p) costs exactly one)")
print(f"(1+p)^zeta reproduces s: "
      f"{reconstructed.congruent(s, reconstructed.prec)}")
