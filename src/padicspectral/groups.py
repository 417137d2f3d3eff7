"""One-parameter unitary groups over the principal units of Q_p.

A unitary operator is U = I + V with |V| < 1 and V spectrally
certified.  A certified generator A with spectrum in Z_p and |A| <= 1
produces the group

    U(s) = (1+z)^A = S diag((1+z)^(lambda_i)) S^-1,   s = 1 + z,

which satisfies U(s1 s2) = U(s1) U(s2) and the Lipschitz bound
|U(s1) - U(s2)| <= |s1 - s2|.  The converse direction recovers the
generator from the single value U(1+p):

    A = log(I + V) / log(1+p),   V = U(1+p) - I,

implemented on V's certificate as S diag(zeta(1+lambda_i)) S^-1 with
zeta(s) = log s / log(1+p), which provably loses exactly one digit to
the final division, and with the operator log series kept as an
independent cross-check path.  The two operator series, Mahler and log,
are the engine functions of the functions module run with matmul; this
module sums them but fixes no truncation itself, and adds to the target
only the one digit that the division by log(1+p) costs.  The group checks
are PadicMatrix's own @, - and op_norm: no grid of residues is formed here.

Certification of V with |V| < 1: V's reduction is the zero matrix, so
the distinct-residue criterion cannot apply directly.  V is factored as
p^w V' with w the minimal entry valuation; V' has a unit entry, is
certified the usual way, and the eigenvalues are scaled back while the
eigenbasis S is shared.  V = 0 gets the trivial certificate: one
eigenvalue 0, owning every column of S = I, and projector I.  Anything
else is refused.
"""

from __future__ import annotations

from operator import matmul

from .core import Frozen, PadicInt, Valuation, as_padic, check_int, to_decimal
from .errors import (
    CertificationFailed,
    InsufficientPrecision,
    NormTooLarge,
    NotPrincipalSpectrum,
    Refusal,
)
from .functions import (
    PowerPlan,
    SeriesBudget,
    binomials,
    log_one_plus_p,
    log_series,
    pexp,
    require_principal,
    truncation_length,
    zeta_of,
)
from .linalg import PadicMatrix
from .spectral import StrongNormalCertificate, certify_strongly_normal

__all__ = [
    "UnitaryOperator",
    "OneParamGroup",
    "GroupCheck",
    "make_unitary",
    "stone_recover",
    "generator_log_series",
    "additive_reparam",
]


class UnitaryOperator(Frozen):
    """U = I + V together with the spectral certificate of V.

    V is ``cert.matrix``.  The spectrum of U is the pushforward of V's
    under phi(x) = 1 + x and consists of principal units.
    """

    __slots__ = ("matrix", "cert")

    def __init__(self, matrix: PadicMatrix, cert: StrongNormalCertificate):
        if not (isinstance(matrix, PadicMatrix) and isinstance(cert, StrongNormalCertificate)):
            raise TypeError("UnitaryOperator takes a PadicMatrix and a StrongNormalCertificate")
        self._set(matrix=matrix, cert=cert)

    def unit_spectrum(self) -> list[PadicInt]:
        """sigma(U) = {1 + lambda : lambda in sigma(V)}."""
        return [lam + 1 for lam in self.cert.eigenvalues]

    def __repr__(self):
        spectrum = ", ".join(to_decimal(u.residue) for u in self.unit_spectrum())
        return (
            f"UnitaryOperator(n={self.matrix.n}, p={self.matrix.p}, "
            f"spectrum=[{spectrum}])"
        )


def _small_norm(v: PadicMatrix, err) -> int:
    """The one |V| < 1 rule: w = v(V) >= 1 (prec V for V = 0), or ``err``
    naming the first unit entry of V."""
    w = v.op_norm().value
    if w < 1:
        rows = enumerate(v.rows())
        unit = next((i, j) for i, r in rows for j, x in enumerate(r) if x % v.p)
        raise err(f"|V| = 1: entry {unit} is a unit")
    return w


def _small_norm_certificate(v: PadicMatrix, err) -> StrongNormalCertificate:
    """Certify a matrix with |V| < 1 through the p^w V' factorization."""
    if v.is_zero():
        ident = PadicMatrix.identity(v.n, v.p, v.prec)
        return StrongNormalCertificate(v, [PadicInt.zero(v.p, v.prec)], ident)
    w = _small_norm(v, err)
    pw = v.p**w
    v1 = v.divide_exact(pw)
    try:
        cert1 = certify_strongly_normal(v1)
    except Refusal as e:
        raise CertificationFailed(
            f"scaled part V/p^{w} is not certifiable: {e}"
        ) from e
    # V = p^w V' holds exactly at prec V - w, so V S = p^w S D' = S D there;
    # an eigenvalue lam' of V' known to m digits fixes p^w lam' to m + w
    return cert1.reuse_basis(
        v, [PadicInt(pw * lam.residue, v.p, lam.prec + w) for lam in cert1.eigenvalues]
    )


def make_unitary(v: PadicMatrix) -> UnitaryOperator:
    """Wrap I + V as a unitary operator; requires |V| < 1 and V certifiable."""
    cert = _small_norm_certificate(v, err=NormTooLarge)
    u = PadicMatrix.identity(v.n, v.p, v.prec) + v
    return UnitaryOperator(u, cert)


class GroupCheck(Frozen):
    """Outcome of a quantitative valuation check.

    ``observed`` is the valuation actually measured, ``required`` the
    valuation the claim demands; the check passes when observed covers
    required.  Truthy on pass, and ``margin`` reports the slack.
    """

    __slots__ = ("check", "observed", "required")

    def __init__(self, check: str, observed: Valuation, required: int):
        self._set(check=check, observed=observed, required=required)

    @property
    def ok(self) -> bool:
        return self.observed.value >= self.required

    @property
    def margin(self) -> int:
        return self.observed.value - self.required

    def __bool__(self) -> bool:
        return self.ok


class OneParamGroup(Frozen):
    """A certified generator A, evaluable at any principal unit s.

    All eigenvalues of A lie in Z_p and |A| <= 1, so s -> s^A lands in
    the unitary operators for every principal s.
    """

    __slots__ = ("cert", "budget", "_memo")  # _memo: the eigenvalues' PowerPlan

    def __init__(self, cert: StrongNormalCertificate, budget: SeriesBudget):
        if not (isinstance(cert, StrongNormalCertificate) and isinstance(budget, SeriesBudget)):
            raise TypeError("OneParamGroup takes a StrongNormalCertificate and a SeriesBudget")
        self._set(cert=cert, budget=budget, _memo=None)

    @property
    def generator(self) -> PadicMatrix:
        return self.cert.matrix

    @property
    def p(self) -> int:
        return self.cert.p

    def _coerce_unit(self, s) -> PadicInt:
        s = as_padic(s, self.p, self.budget.target)
        require_principal(s, "s")
        return s

    # -- the group -------------------------------------------------------

    def evaluate(self, s) -> UnitaryOperator:
        """U(s) = s^A = S diag((1+z)^(lambda_i)) S^-1 on the eigenbasis.

        The n powers (1+z)^(lambda_i) come from the PowerPlan of the
        eigenvalues that the group builds on its first evaluation and
        keeps: each exponent splits as a + p^k b, k from (p, target, n),
        its binomial row in b built once, and every evaluation shares
        (1+z)^(p^k), its powers and, where the cost model says so, one
        table of small powers, then takes one dot product per eigenvalue.
        V's eigenvalues are the powers less 1.  U(1) = I.
        """
        powers, u = self._value_at(self._coerce_unit(s))
        v = u - PadicMatrix.identity(u.n, self.p, u.prec)
        return UnitaryOperator(u, self.cert.reuse_basis(v, [x - 1 for x in powers]))

    def _value_at(self, s: PadicInt) -> tuple[list[PadicInt], PadicMatrix]:
        """U(s) for a coerced s, with the powers (1+z)^(lambda_i), through
        the eigenvalues' PowerPlan, built on the first call and kept."""
        if self._memo is None:
            self._set(_memo=PowerPlan(self.p, self.cert.eigenvalues, self.budget))
        powers = self._memo.powers(s - 1)
        return powers, self.cert.spectral_operator(powers)

    def evaluate_mahler(self, s) -> PadicMatrix:
        """U(s) by the operator Mahler series sum_n z^n P_n(A).

        Independent of the spectral route above: the binomial matrices
        P_n(A) come from :func:`binomials` run on A with matmul, up to
        the truncation_length term.  Exists as the dual evaluation path;
        the two must agree at target precision.
        """
        s = self._coerce_unit(s)
        z = s - 1
        a = self.generator
        out_prec = min(self.budget.target, s.prec, a.prec)
        if z.is_zero():
            return PadicMatrix.identity(a.n, self.p, out_prec)
        m = truncation_length(z.valuation().value, self.budget)
        coeffs = binomials(a, self.budget.target, m, matmul)
        acc = next(coeffs)
        for n, coeff in enumerate(coeffs, 1):
            acc = acc + z**n * coeff
        return acc.truncate_to(min(out_prec, acc.prec))

    def verify_group_law(self, s1, s2) -> GroupCheck:
        """Check U(s1 s2) = U(s1) U(s2) at every digit both sides claim:
        min(prec lhs, prec rhs), which the powers' precision holds to the target."""
        s1, s2 = self._coerce_unit(s1), self._coerce_unit(s2)
        (_, lhs), (_, u1), (_, u2) = map(self._value_at, (s1 * s2, s1, s2))
        diff = lhs - u1 @ u2
        return GroupCheck("group-law", diff.op_norm(), diff.prec)

    def lipschitz_check(self, s1, s2) -> GroupCheck:
        """Check the modulus-of-continuity bound |U(s1)-U(s2)| <= |s1-s2|."""
        s1, s2 = self._coerce_unit(s1), self._coerce_unit(s2)
        diff = self._value_at(s1)[1] - self._value_at(s2)[1]
        required = min((s1 - s2).valuation().value, diff.prec)
        return GroupCheck("lipschitz", diff.op_norm(), required)

    def digit_limit_approxes(self, s, ns) -> list[PadicMatrix]:
        """For each n in ns, U(1+p) raised to the first n+1 base-p digits of
        zeta(s), with zeta(s) and U(1+p) computed once (not at all for no n).

        Writing s = (1+p)^zeta and cutting zeta after its p^n digit gives
        an integer exponent; the result converges to evaluate(s) with
        error valuation at least digit_truncation_error(n, p).
        """
        ns = [check_int(n, 0, "n") for n in ns]
        if not ns:
            return []
        s = self._coerce_unit(s)
        digits = zeta_of(s, self.budget).digits()
        base = self.evaluate(1 + self.p).matrix
        # a running product of the powers B_j = U(1+p)^(p^j), B_(j+1) = B_j^p
        one, acc, prefixes = base**0, None, []
        for j, d in enumerate(digits[: max(ns) + 1]):
            base = base**self.p if j else base
            if d:
                acc = base**d if acc is None else acc @ base**d
            prefixes.append(one if acc is None else acc)
        return [prefixes[min(n, len(prefixes) - 1)] for n in ns]

    def additive_evaluate(self, z) -> UnitaryOperator:
        """W(z) = e^(pzA) via the reparametrization s = e^(pz), z in Z_p.

        Additivity W(z1 + z2) = W(z1) W(z2) follows from the group law.
        """
        z = as_padic(z, self.p, self.budget.target)
        s = additive_reparam(z, self.budget)
        return self.evaluate(s)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "certificate": self.cert.to_dict(),
            "budget": self.budget.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OneParamGroup":
        cert, budget = cls._read(d, "certificate", "budget")
        return cls(StrongNormalCertificate.from_dict(cert), SeriesBudget.from_dict(budget))

    def __repr__(self):
        return f"OneParamGroup(generator={self.generator!r}, budget={self.budget})"


def additive_reparam(z: PadicInt, budget: SeriesBudget) -> PadicInt:
    """s = e^(pz): the principal unit entered by the additive parameter z.

    p z is fixed to one digit more than z, and pexp keeps every digit of it.
    """
    return pexp(PadicInt(z.p * z.residue, z.p, z.prec + 1), budget)


def stone_recover(u1p: PadicMatrix, budget: SeriesBudget) -> OneParamGroup:
    """Recover the generator A from the single group value U(1+p).

    Requires U(1+p) = I + V with |V| < 1, else NotPrincipalSpectrum; then
    V = p^w V' with w >= 1 puts the spectrum of V in pZ_p.  The generator is

        A = log(I + V) / log(1+p) = S diag(log(1+lambda_i)/log(1+p)) S^-1,

    computed on V's certificate, whose eigenvalues keep every digit of
    U(1+p); the division by log(1+p), a valuation-1 scalar, costs exactly
    one digit, so a one-digit U(1+p) raises InsufficientPrecision.  Then
    evaluate(A, 1+p) reproduces U(1+p), since
    (1+p)^(log(1+lam)/log(1+p)) = 1 + lam.
    """
    v = u1p - PadicMatrix.identity(u1p.n, u1p.p, u1p.prec)
    cert_v = _small_norm_certificate(v, err=NotPrincipalSpectrum)
    a_eigen = [zeta_of(lam + 1, budget) for lam in cert_v.eigenvalues]
    # A = S diag(a) S^-1 and S^-1 S = I give A S = S D at A's precision
    a = cert_v.spectral_operator(a_eigen)
    return OneParamGroup(cert_v.reuse_basis(a, a_eigen), budget)


def generator_log_series(u1p: PadicMatrix, budget: SeriesBudget) -> PadicMatrix:
    """The generator by the operator log series: the cross-check path.

    Sums (1/log(1+p)) sum_k (-1)^(k-1) V^k / k directly in matrices,
    by :func:`log_series` with matmul, sharing with the eigenvalue route
    in stone_recover only the scalar log(1+p).
    """
    p = u1p.p
    n = u1p.n
    v = u1p - PadicMatrix.identity(n, p, u1p.prec)
    norm = _small_norm(v, NotPrincipalSpectrum)
    out_prec = min(budget.target, u1p.prec - 1)
    if out_prec < 1:
        raise InsufficientPrecision("one digit of U(1+p) fixes no digit of A")
    # one digit above the target pays for the division by log(1+p)
    w = budget.target + 1
    log_v = log_series(v, norm, w, matmul)
    a = log_v.divide_exact(log_one_plus_p(p, w))
    return a.truncate_to(out_prec)
