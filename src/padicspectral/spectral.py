"""Spectral certificates: eigenvalues, eigenbasis, functional calculus.

A matrix A over Z_p whose reduction mod p has n distinct eigenvalues in
F_p diagonalizes over Z_p: A S = S D with D = diag(lambda_i) and S
invertible.  The certificate stores A, S and the eigenvalues; S^-1 is
S's own inverse, found where a result reads it.  S comes from eigenvectors
of the reduction over F_p (``kernels.eigenvectors``), lifted by Newton's method, which doubles the
correct digits per step and costs no precision (X. Caruso, *Computations
with p-adic numbers*, arXiv:1701.06794; see :func:`_lift_eigenbasis`).

The spectral idempotents are E_i = S e_i e_i^T S^-1, built on demand.
They back the projection-valued measure E(S) = sum_{i in S} E_i and the
functional calculus phi(A) = S diag(phi(lambda_i)) S^-1, with
|phi(A)| <= max |phi(lambda_i)|.

Reductions that are scalar (for n >= 2), fail to split over F_p, or
have repeated residue eigenvalues are refused with a specific exception:
the repeated case would need an invariant-subspace lifting scheme that
this package deliberately does not guess at.
"""

from __future__ import annotations

from . import kernels
from .core import Frozen, PadicInt, as_padic, check_int, require_type, to_decimal
from .errors import (
    CertificationFailed,
    DegenerateReduction,
    DimensionMismatch,
    DivisionByHigherValuation,
    PrimeMismatch,
    RepeatedResidueEigenvalue,
    ResidueEigenvalueDeficit,
)
from .linalg import PadicMatrix, vector_norm

__all__ = ["StrongNormalCertificate", "certify_strongly_normal"]

_FIELDS = ("matrix", "eigenvalues", "basis")


class StrongNormalCertificate(Frozen):
    """A verified eigenbasis A S = S D, so that A = sum lambda_i E_i.

    ``basis`` is S, and ``basis_inverse`` is S^-1, S's own inverse, found
    on first read and kept in the ``_memo`` slot.  Eigenvalue i owns column
    i of S, or a lone eigenvalue owns every column (A = lambda I, E = I:
    the trivial certificate of the zero matrix); so there are 1 or n
    eigenvalues, and D repeats each over the columns it owns.  The
    certificate precision is the minimum precision over the matrix, S and
    the eigenvalues, and A S = S D holds as an exact congruence at that
    precision (see :meth:`verify`), checked where a certificate is made or
    read, not where :meth:`reuse_basis` derives one.
    """

    __slots__ = (*_FIELDS, "_memo")  # _memo: S^-1

    def __init__(self, matrix: PadicMatrix, eigenvalues, basis: PadicMatrix):
        eigenvalues = tuple(eigenvalues)
        kinds = [PadicMatrix, PadicMatrix] + [PadicInt] * len(eigenvalues)
        if not all(map(isinstance, (matrix, basis, *eigenvalues), kinds)):
            raise TypeError("certificate takes PadicMatrix A and S and PadicInt eigenvalues")
        if not eigenvalues:
            raise ValueError("certificate needs at least one spectral point")
        if len(eigenvalues) not in (1, matrix.n):
            raise DimensionMismatch(f"{len(eigenvalues)} eigenvalues in dimension {matrix.n}")
        if basis.n != matrix.n:
            raise DimensionMismatch(f"basis columns do not match the dimension {matrix.n}")
        if any(x.p != matrix.p for x in (basis, *eigenvalues)):
            raise PrimeMismatch("certificate data must share the matrix prime")
        self._set(matrix=matrix, eigenvalues=eigenvalues, basis=basis, _memo=None)

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def precision(self) -> int:
        """The least precision of A, S and the eigenvalues; S^-1 has S's."""
        return min([self.matrix.prec, self.basis.prec] + [e.prec for e in self.eigenvalues])

    @property
    def basis_inverse(self) -> PadicMatrix:
        """S^-1, inverted from S on first read and kept: S's one inversion.
        DivisionByHigherValuation for S singular mod p, which verify refuses."""
        if self._memo is None:
            self._set(_memo=self.basis.inverse())
        return self._memo

    @property
    def projectors(self) -> tuple[PadicMatrix, ...]:
        """The idempotents E_i = S_i (S^-1)_i, one per eigenvalue."""
        k = len(self.eigenvalues)
        return tuple(
            self.spectral_operator([int(i == j) for j in range(k)]) for i in range(k)
        )

    def reuse_basis(self, matrix: PadicMatrix, eigenvalues) -> "StrongNormalCertificate":
        """A certificate for another matrix diagonal in the same basis, which
        takes this one's S^-1 along if it was read, and never inverts S.

        Not verified again: it holds when ``matrix`` S = S D by construction
        and its precision is at most this certificate's.
        """
        cert = StrongNormalCertificate(matrix, eigenvalues, self.basis)
        cert._set(_memo=self._memo)
        return cert

    def verify(self) -> None:
        """Re-check the certificate; raise CertificationFailed.

        One product checks A S = S D as an exact congruence at certificate
        precision d, and forward elimination mod p that S mod p has full rank.
        Over Z/p^d, S is invertible exactly when S mod p is, and then its
        inverse S^-1 is unique, with S S^-1 = S^-1 S = I; so A = S D S^-1
        exactly.  With P_i the diagonal 0/1 matrix selecting the columns of
        eigenvalue i, E_i = S P_i S^-1, and so:

        - E_i E_j = S P_i (S^-1 S) P_j S^-1 = S P_i P_j S^-1, which is
          E_i for i = j and 0 otherwise;
        - sum E_i = S S^-1 = I;
        - sum lambda_i E_i = S D S^-1 = A S S^-1 = A;
        - |E_i| = 1: S is invertible mod p, so E_i mod p has rank >= 1 over
          F_p, the columns eigenvalue i owns, and some entry is a unit.
        """
        s = self.basis
        diag = s.scale_columns(self._per_column(self.eigenvalues))
        if not (self.matrix @ s).congruent(diag, self.precision):
            raise CertificationFailed(
                "A S != S D: the basis columns are not eigenvectors for the "
                "stored eigenvalues"
            )
        try:
            kernels.row_order(s.rows(), self.p)
        except DivisionByHigherValuation as e:
            raise CertificationFailed("S mod p is singular: its columns are no basis") from e

    # -- spectral operations ------------------------------------------

    def _per_column(self, values) -> list:
        """One value per eigenvalue, over the columns it owns: value i on
        column i, or a lone value on all n."""
        return list(values) * (self.n // len(values))

    def spectral_operator(self, values) -> PadicMatrix:
        """S diag(values) S^-1, for one value (PadicInt or int) per eigenvalue:
        the operator with the certified eigenbasis and spectrum ``values``, at
        the least precision of S and the values."""
        values = list(values)
        if len(values) != len(self.eigenvalues):
            raise DimensionMismatch(
                f"{len(values)} values for {len(self.eigenvalues)} eigenvalues"
            )
        return self.basis.scale_columns(self._per_column(values)) @ self.basis_inverse

    def spectral_measure(self, subset) -> PadicMatrix:
        """E(S) = sum_{i in S} E_i for a subset S of spectral indices.

        Subsets of a finite spectrum are exactly its open-closed sets, so
        this is the full projection-valued measure: E({}) = 0, E(all) = I,
        and E is additive on disjoint subsets.
        """
        idx = {check_int(i, float("-inf"), "spectral index") for i in subset}
        if idx and (min(idx) < 0 or max(idx) >= len(self.eigenvalues)):
            raise IndexError(f"spectral index out of range: {sorted(idx)}")
        mask = [int(i in idx) for i in range(len(self.eigenvalues))]
        return self.spectral_operator(mask).truncate_to(self.precision)

    def functional_calculus(self, phi) -> PadicMatrix:
        """phi(A) = S diag(phi(lambda_i)) S^-1 for any map on the spectrum.

        ``phi`` may return PadicInt or int.  The norm bound
        |phi(A)| <= max_i |phi(lambda_i)| holds by construction.
        """
        values = [as_padic(phi(lam), self.p, lam.prec) for lam in self.eigenvalues]
        return self.spectral_operator(values)

    def verify_orthogonality(self, vec) -> bool:
        """Check |f| = sup_i |E_i f| for one vector f.

        Singletons suffice: the sup over arbitrary subsets is attained on
        a singleton in the ultrametric.  E_i f = S P_i (S^-1 f).
        """
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.n}")
        vec = [as_padic(x, self.p, self.basis.prec) for x in vec]
        lhs = vector_norm(vec)
        coords = self.basis_inverse.matvec(vec)
        owner = self._per_column(range(len(self.eigenvalues)))
        rhs = min(
            vector_norm(
                self.basis.matvec(
                    [c if o == i else 0 for c, o in zip(coords, owner)]
                )
            )
            for i in range(len(self.eigenvalues))
        )
        return lhs == rhs

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_dict(),
            "eigenvalues": [e.to_dict() for e in self.eigenvalues],
            "basis": self.basis.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StrongNormalCertificate":
        """Read a certificate and verify it.  A corrupted one is a ValueError,
        or a PrimeMismatch or DimensionMismatch where its parts disagree.

        Every part is cut to the certificate precision, the only digits
        :meth:`verify` checks, so no unverified digit reaches a result.
        S^-1 is S's own inverse, and which columns an eigenvalue owns
        follows from the eigenvalue count: an older file's ``basis_inverse``
        and ``multiplicities`` are ignored, so neither reaches a result.
        """
        matrix, eigenvalues, basis = cls._read(d, *_FIELDS)
        if not isinstance(eigenvalues, list):
            raise ValueError("eigenvalues must be a list")
        matrix, basis = map(PadicMatrix.from_dict, (matrix, basis))
        eigenvalues = [PadicInt.from_dict(e) for e in eigenvalues]
        prec = min(x.prec for x in (matrix, basis, *eigenvalues))
        cert = cls(
            matrix.truncate_to(prec),
            [e.truncate_to(prec) for e in eigenvalues],
            basis.truncate_to(prec),
        )
        try:
            cert.verify()
        except CertificationFailed as e:
            raise ValueError(f"certificate does not verify: {e}") from e
        return cert

    def __repr__(self):
        ev = ", ".join(to_decimal(e.residue) for e in self.eigenvalues)
        return (
            f"StrongNormalCertificate(n={self.n}, p={self.p}, "
            f"prec={self.precision}, eigenvalues=[{ev}])"
        )


def _lift_eigenbasis(a: PadicMatrix, s, residues):
    """Newton-lift the residue eigenbasis of A to A's precision.

    Start from the grid S, ``s``, whose columns are eigenvectors of the
    reduction mod p for the ``residues``, with
    T = S^-1 mod p and d the residue eigenvalues, so A S = S D mod p^h
    for h = 1.  A step works mod p^e, e = min(2h, N), k = e - h <= h.
    R = A S - S D vanishes mod p^h, so R' = R / p^h and C' = T R' need T
    only mod p^k.  With G_ij = 1 / (d_j - d_i), a unit as the residues are
    distinct: d_i += p^h C'_ii, X'_ij = C'_ij G_ij, X'_ii = 0 and
    S += p^h S X' cancel the first-order terms of A S - S D.  The new S
    is the old one mod p^h, so Y' = (I - S T) / p^h is exact and
    T += p^h T Y' inverts S mod p^e.  Only A S and S T multiply e-digit
    entries.  G is inverted once mod p; G <- G (2 - (d_j - d_i) G) mod p^e
    keeps it exact, as d moves by multiples of p^h.  The last step runs
    only A S, T R' and S X': nothing reads G or T after it, and the final
    S is inverted only where a result reads S^-1.  A division with a remainder
    raises CertificationFailed.  Works on grids of residues; returns
    (S, eigenvalues) at A's precision.
    """
    p, target = a.p, a.prec
    t = kernels.grid_inverse(s, p, p)
    d = list(residues)
    g = [[pow(dj - di, -1, p) if dj != di else 0 for dj in d] for di in d]
    h = 1
    while h < target:
        e = min(2 * h, target)
        ph, mod, modk = p**h, p**e, p ** (e - h)
        # S and T have h digits: a cut to k = e - h digits changes them only if k < h
        sk, tk = (s, t) if e == 2 * h else (_cut(s, modk), _cut(t, modk))
        a_s = kernels.grid_matmul(_cut(a.rows(), mod), s, mod)
        r = [[(x - y * dj) % mod for x, y, dj in zip(u, v, d)] for u, v in zip(a_s, s)]
        c = kernels.grid_matmul(tk, _divide_residual(r, ph), modk)
        x = [[cij * gij % modk for cij, gij in zip(ci, gi)] for ci, gi in zip(c, g)]
        d = [(di + ph * c[i][i]) % mod for i, di in enumerate(d)]
        s = _add_shifted(s, kernels.grid_matmul(sk, x, modk), ph)
        if e < target:
            g = [
                [gij * (2 - (dj - di) * gij) % mod for dj, gij in zip(d, gi)]
                for di, gi in zip(d, g)
            ]
            st = kernels.grid_matmul(s, t, mod)
            y = [[((i == j) - v) % mod for j, v in enumerate(row)] for i, row in enumerate(st)]
            t = _add_shifted(t, kernels.grid_matmul(tk, _divide_residual(y, ph), modk), ph)
        h = e
    return PadicMatrix(s, p, target), [PadicInt(di, p, target) for di in d]


def _divide_residual(grid, ph: int) -> list[list[int]]:
    """A residual reduced mod p^e that vanishes mod ph = p^h, divided by ph.

    Its entries are >= 0, and so are their remainders mod ph: all of them
    are 0 exactly when the entries sum to ph times the quotients' sum.
    """
    q = [[x // ph for x in row] for row in grid]
    if sum(map(sum, grid)) != ph * sum(map(sum, q)):
        raise CertificationFailed("a Newton residual is not divisible by p^h")
    return q


def _cut(grid, mod: int) -> list[list[int]]:
    return [[x % mod for x in row] for row in grid]


def _add_shifted(a, b, ph: int) -> list[list[int]]:
    """a + ph b entrywise: the correction b, found mod p^k, moved up h digits."""
    return [[u + ph * v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def certify_strongly_normal(a: PadicMatrix) -> StrongNormalCertificate:
    """Certify a matrix whose reduction has n distinct residue eigenvalues.

    Refuses scalar reductions for n >= 2 (DegenerateReduction; a 1 x 1
    reduction is always scalar, and its one eigenvalue is distinct),
    characteristic polynomials that do not split over F_p
    (ResidueEigenvalueDeficit), and repeated residue eigenvalues
    (RepeatedResidueEigenvalue).  The eigenvalues come out sorted by
    residue.  The certificate is verified before it is returned.  The
    reduction is ``truncate_to(1)``, and its one Hessenberg form gives both
    the char poly and the residue eigenvectors.  Anything but a PadicMatrix
    raises TypeError.
    """
    require_type(a, PadicMatrix, "certify_strongly_normal")
    p, rows = a.p, a.truncate_to(1).rows()
    c = rows[0][0]
    scalar = all(x == (c if i == j else 0) for i, r in enumerate(rows) for j, x in enumerate(r))
    if a.n >= 2 and scalar:
        raise DegenerateReduction(
            "reduction mod p is a scalar matrix; the distinct-eigenvalue "
            "criterion cannot apply"
        )
    h, m = kernels.hessenberg(rows, p)
    residue_roots = kernels.roots(kernels.char_poly(h, p), p)
    total = sum(mult for _, mult in residue_roots)
    if total < a.n:
        raise ResidueEigenvalueDeficit(
            f"residue characteristic polynomial has only {total} roots in "
            f"F_{p} counted with multiplicity, needs {a.n}"
        )
    repeated = [r for r, mult in residue_roots if mult > 1]
    if repeated:
        raise RepeatedResidueEigenvalue(
            f"residue eigenvalues {repeated} are repeated; lifting an "
            "invariant subspace is unsupported"
        )
    residues = sorted(r for r, _ in residue_roots)
    start = list(zip(*kernels.eigenvectors(h, m, residues, p)))
    basis, eigenvalues = _lift_eigenbasis(a, start, residues)
    cert = StrongNormalCertificate(a, eigenvalues, basis)
    cert.verify()
    return cert

