"""One-parameter groups of unitary operators U(s) = s^A.

A unitary operator here is I + V with |V| < 1, held as its own
certificate U S = S diag(mu); the principal units s act through the
functional calculus, eigenvalue by eigenvalue.  The group law holds on the nose, the map s -> U(s) is
1-Lipschitz, and the spectral route agrees with summing the operator
Mahler series directly.

Run:  python3 demos/04_unitary_groups.py
"""

from random import Random

from padicspectral import (
    OneParamGroup,
    PadicMatrix,
    SeriesBudget,
    certify_strongly_normal,
    make_unitary,
)
from padicspectral.sampling import sample_principal_unit

p, N = 5, 32
budget = SeriesBudget(N)
rng = Random(2024)

print("=== wrapping I + V as a unitary operator ===")
V = PadicMatrix([[0, 5], [10, 5]], p, N)   # = 5 * [[0,1],[2,1]], norm 1/5
u_op = make_unitary(V)
spectrum = sorted(x.residue % 5**4 for x in u_op.eigenvalues)
print(f"|V| = 5^-{V.op_norm().value}, sigma(I+V) mod 5^4 = {spectrum}")
print("(the principal units 1 + 5*2 = 11 and 1 - 5 = -4)")

print()
print("=== a group from a certified generator ===")
A = PadicMatrix([[0, 1], [2, 1]], p, N)
group = OneParamGroup(certify_strongly_normal(A), budget)
print("generator A =", [list(r) for r in A.rows()])

u6 = group.evaluate(6)
print("U(6) mod 5^4:", [[x % 5**4 for x in row] for row in u6.matrix.rows()])
print("U(1) = I exactly:",
      group.evaluate(1).matrix == PadicMatrix.identity(2, p, N))
print("sigma(U(6)) mod 5^4:",
      sorted(x.residue % 5**4 for x in u6.eigenvalues),
      "= {6^2, 6^-1} for the eigenvalues 2 and -1")

print()
print("=== the group law U(s1 s2) = U(s1) U(s2) ===")
for _ in range(3):
    s1 = sample_principal_unit(rng, p, N)
    s2 = sample_principal_unit(rng, p, N)
    chk = group.verify_group_law(s1, s2)
    print(f"random pair: pass={chk.ok}, agreement digits={chk.observed.value} "
          f"(required {chk.required})")

print()
print("=== continuity: |U(s1) - U(s2)| <= |s1 - s2| ===")
chk = group.lipschitz_check(6, 31)
print(f"s1=6, s2=31 (|s1-s2| = 5^-2): difference valuation {chk.observed.value}"
      f" >= {chk.required}: {chk.ok}")
for _ in range(3):
    s1 = sample_principal_unit(rng, p, N)
    s2 = sample_principal_unit(rng, p, N)
    chk = group.lipschitz_check(s1, s2)
    print(f"random pair: v(U(s1)-U(s2)) = {chk.observed.value} "
          f">= v(s1-s2) = {chk.required}: {chk.ok}")

print()
print("=== two independent evaluation routes must agree ===")
s = sample_principal_unit(rng, p, N)
via_spectrum = group.evaluate(s).matrix
via_series = group.evaluate_mahler(s)
tol = budget.target
print(f"spectral calculus vs operator Mahler series, mod p^{tol}:",
      via_spectrum.congruent(via_series, tol))

print()
print("=== unitarity is preserved: |U(s) - I| = |s - 1| < 1 ===")
for _ in range(3):
    s = sample_principal_unit(rng, p, N)
    u = group.evaluate(s).matrix
    print(f"v(s-1) = {(s-1).valuation().value}, "
          f"v(U(s)-I) = {(u - PadicMatrix.identity(2, p, u.prec)).op_norm().value}")
