"""Spectral certificates over Z_p: eigenvalues, idempotents, calculus.

A matrix whose reduction mod p has n distinct eigenvalues in F_p splits
exactly: the residue eigenvectors Newton-lift to an eigenbasis A S = S D,
and the idempotents E_i = S e_i e_i^T S^-1 give an orthogonal partition
of the identity.  All identities below are exact congruences mod p^32,
not approximations.

Run:  python3 demos/03_spectral_certificates.py
"""

from padicspectral import PadicInt, PadicMatrix, certify_strongly_normal, kernels
from padicspectral.errors import (
    DegenerateReduction,
    RepeatedResidueEigenvalue,
    ResidueEigenvalueDeficit,
)

p, N = 5, 32
A = PadicMatrix([[0, 1], [2, 1]], p, N)
print("A =", [list(r) for r in A.rows()], f"over Z_{p} at {N} digits")
H, _ = kernels.hessenberg(A.truncate_to(1).rows(), p)
print("residue char poly:", list(kernels.char_poly(H, p)),
      "(x^2 - x - 2, ascending)")

cert = certify_strongly_normal(A)
signed = [e.residue if e.residue < 5**16 else e.residue - 5**N
          for e in cert.eigenvalues]
print("lifted eigenvalues:", signed, "(2 and -1, exact integers here)")

print()
print("=== the idempotent algebra, all exact mod p^32 ===")
E = cert.projectors
ident = PadicMatrix.identity(2, p, N)
print("E_i^2 = E_i:      ", all((e @ e).congruent(e, N) for e in E))
print("E_0 E_1 = 0:      ", (E[0] @ E[1]).is_zero())
print("sum E_i = I:      ", (E[0] + E[1]).congruent(ident, N))
recon = cert.functional_calculus(lambda lam: lam)
print("sum lam_i E_i = A:", recon.congruent(A, N))
print("|E_i| = 1:        ", [str(e.op_norm()) for e in E])

print()
print("=== the projection-valued measure on spectral subsets ===")
print("E({})      =", "zero" if cert.spectral_measure([]).is_zero() else "?!")
print("E({0,1})   = I:", cert.spectral_measure([0, 1]).congruent(ident, N))
print("additive:  E({0}) + E({1}) == E({0,1}):",
      (cert.spectral_measure([0]) + cert.spectral_measure([1])).congruent(
          cert.spectral_measure([0, 1]), N))

print()
print("=== functional calculus phi(A) = sum phi(lam_i) E_i ===")
squared = cert.functional_calculus(lambda lam: lam * lam)
print("phi(lam)=lam^2 gives A@A:", squared.congruent(A @ A, N))
shifted = cert.functional_calculus(lambda lam: lam + 3)
print("phi(lam)=lam+3 gives A+3I:", shifted.congruent(A + 3 * ident, N))

print()
print("=== the orthogonality identity |f| = sup_i |E_i f| ===")
f = [PadicInt(7, p, N), PadicInt(125, p, N)]
print("random vector passes:", cert.verify_orthogonality(f))

print()
print("=== inputs outside the certified class are refused, not fudged ===")
for rows, label in [
    ([[1, 0], [0, 1]], "identity (scalar reduction)"),
    ([[0, -1], [1, -1]], "companion of x^2+x+1 (irreducible mod 5)"),
    ([[0, 1], [1, 1]], "companion of x^2-x-1 (double residue root 3)"),
]:
    try:
        certify_strongly_normal(PadicMatrix(rows, p, N))
    except (DegenerateReduction, ResidueEigenvalueDeficit,
            RepeatedResidueEigenvalue) as e:
        print(f"{label}: {type(e).__name__}")
