"""Recovering the generator from one group value: U(1+p) determines A.

Given only the matrix U(1+p), the generator comes back as
A = log(I + V)/log(1+p) on the certificate of V = U(1+p) - I.  The same
A falls out of the operator log series, computed with no shared code.
Two more consequences are on display: U(s) is the limit of integer
powers of U(1+p) driven by the base-p digits of zeta(s), with a proven
error bound, and the group can be re-parametrized additively as
W(z) = e^(pzA).

Run:  python3 demos/05_generator_recovery.py
"""

from random import Random

from padicspectral import (
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    SeriesBudget,
    certify_strongly_normal,
    digit_truncation_error,
    generator_log_series,
    stone_recover,
)
from padicspectral.sampling import sample_principal_unit

p, N = 5, 32
budget = SeriesBudget(N)
rng = Random(77)

A = PadicMatrix([[0, 1], [2, 1]], p, N)
group = OneParamGroup(certify_strongly_normal(A), budget)
u1p = group.evaluate(1 + p).matrix
print("known only to the recoverer: U(6) =",
      [[x % 5**6 for x in row] for row in u1p.rows()], "(mod 5^6)")

print()
print("=== recovery through the spectrum of V = U(1+p) - I ===")
recovered = stone_recover(u1p, budget)
tol = budget.target - 1
print(f"recovered generator == A mod p^{tol}:",
      recovered.generator.congruent(A, tol))
print(f"(carries {recovered.generator.prec} digits: one paid to the "
      "division by log(1+p))")

print()
print("=== cross-check: the operator log series, no shared code ===")
via_series = generator_log_series(u1p, budget)
d = min(tol, via_series.prec, recovered.generator.prec)
print(f"series route == spectral route mod p^{d}:",
      via_series.congruent(recovered.generator, d))

print()
print("=== the recovered group reproduces the original everywhere ===")
for _ in range(3):
    s = sample_principal_unit(rng, p, N)
    lhs = recovered.evaluate(s).matrix
    rhs = group.evaluate(s).matrix
    print("U_rec(s) == U(s) mod p^{}: {}".format(
        min(tol, lhs.prec), lhs.congruent(rhs, min(tol, lhs.prec))))

print()
print("=== digit-by-digit convergence of integer powers ===")
s = sample_principal_unit(rng, p, N)
reference = group.evaluate(s).matrix
print("cutting zeta(s) after its p^n digit; proven error bound is n+2 digits:")
print(f"{'n':>3} {'observed':>9} {'bound':>6}")
ns = range(0, 13, 2)
for n, approx in zip(ns, group.digit_limit_approxes(s, ns)):
    err = (approx - reference).op_norm()
    print(f"{n:>3} {err.value:>9} {digit_truncation_error(n, p):>6}")

print()
print("=== the additive picture W(z) = e^(pzA) ===")
z1 = PadicInt(3, p, N)
z2 = PadicInt(11, p, N)
w1, w2 = group.additive_evaluate(z1), group.additive_evaluate(z2)
w12 = group.additive_evaluate(z1 + z2)
tol2 = budget.target
print("W(3+11) == W(3) W(11) mod p^{}: {}".format(
    tol2, w12.matrix.congruent(w1.matrix @ w2.matrix, tol2)))
print("W(0) = I exactly:",
      group.additive_evaluate(0).matrix
      == PadicMatrix.identity(2, p, group.additive_evaluate(0).matrix.prec))
