"""One-parameter unitary groups over the principal units of Q_p.

A unitary operator is U = I + V with |V| < 1 and V normal.  Its spectrum
is 1 + sigma(V), principal units, and its eigenbasis is V's, so the one
object that stands for it here is its own spectral certificate
U S = S diag(mu).  A certified generator A with spectrum in Z_p and
|A| <= 1 produces the group

    U(s) = (1+z)^A = S diag((1+z)^(lambda_i)) S^-1,   s = 1 + z,

which satisfies U(s1 s2) = U(s1) U(s2) and the Lipschitz bound
|U(s1) - U(s2)| <= |s1 - s2|; each value comes as the certificate of
U(s) on A's basis S.  The converse direction recovers the generator from
the single value U(1+p):

    A = log U(1+p) / log(1+p) = S diag(zeta(mu_i)) S^-1,

read off the certificate of U(1+p), with zeta(s) = log s / log(1+p),
which provably loses exactly one digit to the final division, and with
the operator log series of V = U(1+p) - I kept as an independent
cross-check path.  The two operator series, Mahler and log,
are the engine functions of the functions module run with matmul; this
module sums them but fixes no truncation itself, and adds to the target
only the one digit that the division by log(1+p) costs.  The group checks
are PadicMatrix's own @, - and op_norm: no grid of residues is formed here.

Certification of U = I + V with |V| < 1: U's reduction is the identity,
so the distinct-residue criterion cannot apply directly.  V is factored
as p^w V' with w the minimal entry valuation; V' has a unit entry, is
certified the usual way, and U's eigenvalues are 1 + p^w lambda' on the
eigenbasis S of V'.  U = I gets the trivial certificate: one eigenvalue 1,
owning every column of S = I, and projector I.  Anything else is refused.
"""

from __future__ import annotations

from operator import matmul

from .core import Frozen, PadicInt, Valuation, as_padic, check_int, require_type
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
    "OneParamGroup",
    "GroupCheck",
    "make_unitary",
    "stone_recover",
    "generator_log_series",
    "additive_reparam",
]


def _small_norm(v: PadicMatrix, err) -> int:
    """The one |V| < 1 rule: w = v(V) >= 1 (prec V for V = 0), or ``err``
    naming the first unit entry of V."""
    w = v.op_norm().value
    if w < 1:
        rows = enumerate(v.rows())
        unit = next((i, j) for i, r in rows for j, x in enumerate(r) if x % v.p)
        raise err(f"|V| = 1: entry {unit} is a unit")
    return w


def _unitary_certificate(u: PadicMatrix, err) -> StrongNormalCertificate:
    """Certify U = I + V with |V| < 1 through V = p^w V': U's eigenvalues
    are 1 + p^w lam' on the eigenbasis of V'."""
    ident = PadicMatrix.identity(u.n, u.p, u.prec)
    v = u - ident
    if v.is_zero():
        return StrongNormalCertificate(u, [PadicInt.one(u.p, u.prec)], ident)
    w = _small_norm(v, err)
    pw = u.p**w
    try:
        cert1 = certify_strongly_normal(v.divide_exact(pw))
    except Refusal as e:
        raise CertificationFailed(f"scaled part V/p^{w} is not certifiable: {e}") from e
    # V = p^w V' holds exactly at prec U - w, so U S = S (I + p^w D') there;
    # an eigenvalue lam' of V' known to m digits fixes 1 + p^w lam' to m + w
    return cert1.reuse_basis(
        u, [PadicInt(1 + pw * lam.residue, u.p, lam.prec + w) for lam in cert1.eigenvalues]
    )


def make_unitary(v: PadicMatrix) -> StrongNormalCertificate:
    """The unitary operator U = I + V as its certificate: U, its spectrum
    1 + sigma(V) of principal units, and V's eigenbasis.  Requires |V| < 1
    (else NormTooLarge) and V/p^v(V) certifiable."""
    require_type(v, PadicMatrix, "make_unitary")
    return _unitary_certificate(PadicMatrix.identity(v.n, v.p, v.prec) + v, NormTooLarge)


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

    def evaluate(self, s) -> StrongNormalCertificate:
        """The certificate of U(s) = s^A = S diag((1+z)^(lambda_i)) S^-1:
        U(s) on A's eigenbasis S, its eigenvalues the powers (1+z)^(lambda_i).

        The n powers (1+z)^(lambda_i) come from the PowerPlan of the
        eigenvalues that the group builds on its first evaluation and
        keeps: each exponent splits as a + p^k b, k from (p, target, n),
        its binomial row in b built once, and every evaluation shares
        (1+z)^(p^k), its powers and, where the cost model says so, one
        table of small powers, then takes one dot product per eigenvalue.
        U(1) = I.
        """
        powers, u = self._value_at(self._coerce_unit(s))
        return self.cert.reuse_basis(u, powers)

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

    def additive_evaluate(self, z) -> StrongNormalCertificate:
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
    require_type(budget, SeriesBudget, "additive_reparam")
    return pexp(PadicInt(z.p * z.residue, z.p, z.prec + 1), budget)


def stone_recover(u1p: PadicMatrix, budget: SeriesBudget) -> OneParamGroup:
    """Recover the generator A from the single group value U(1+p).

    Requires U(1+p) = I + V with |V| < 1, else NotPrincipalSpectrum; then
    V = p^w V' with w >= 1 puts the spectrum of U(1+p) in 1 + pZ_p.  The
    generator is

        A = log U(1+p) / log(1+p) = S diag(log(mu_i)/log(1+p)) S^-1,

    computed on the certificate of U(1+p), whose eigenvalues keep every
    digit of U(1+p); the division by log(1+p), a valuation-1 scalar, costs
    exactly one digit, so a one-digit U(1+p) raises InsufficientPrecision.
    Then evaluate(A, 1+p) reproduces U(1+p), since
    (1+p)^(log(mu)/log(1+p)) = mu.
    """
    require_type(u1p, PadicMatrix, "stone_recover")
    require_type(budget, SeriesBudget, "stone_recover")
    cert_u = _unitary_certificate(u1p, NotPrincipalSpectrum)
    a_eigen = [zeta_of(mu, budget) for mu in cert_u.eigenvalues]
    # A = S diag(a) S^-1 and S^-1 S = I give A S = S D at A's precision
    a = cert_u.spectral_operator(a_eigen)
    return OneParamGroup(cert_u.reuse_basis(a, a_eigen), budget)


def generator_log_series(u1p: PadicMatrix, budget: SeriesBudget) -> PadicMatrix:
    """The generator by the operator log series: the cross-check path.

    Sums (1/log(1+p)) sum_k (-1)^(k-1) V^k / k directly in matrices,
    by :func:`log_series` with matmul, sharing with the eigenvalue route
    in stone_recover only the scalar log(1+p).
    """
    require_type(u1p, PadicMatrix, "generator_log_series")
    require_type(budget, SeriesBudget, "generator_log_series")
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
