"""Ring arithmetic, valuations, and precision tracking in Z_p."""

from operator import mul
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import padicspectral
from padicspectral import (
    GroupCheck,
    OneParamGroup,
    PadicInt,
    PadicMatrix,
    PowerPlan,
    ResidueMatrix,
    SeriesBudget,
    StrongNormalCertificate,
    UnitaryOperator,
    Valuation,
    certify_strongly_normal,
    digit_truncation_error,
    generator_log_series,
    mahler_coeff,
    plog,
    principal_power,
    truncation_length,
)
from padicspectral.core import MAX_WORKING_PREC, from_decimal, to_decimal, validate_prime
from padicspectral.errors import (
    DimensionMismatch,
    DivisionByHigherValuation,
    InsufficientPrecision,
    NotPrincipal,
    NotPrincipalSpectrum,
    OutOfConvergenceDomain,
    PrecisionExceeded,
    PrimeMismatch,
)
from padicspectral.functions import binomials, log_series
from padicspectral.sampling import sample_certifiable_matrix

PRIMES = [3, 5, 7]


def test_prime_validation():
    assert validate_prime(5) == 5
    assert validate_prime(9973) == 9973
    with pytest.raises(ValueError):
        validate_prime(2)
    with pytest.raises(ValueError):
        validate_prime(9)
    with pytest.raises(ValueError):
        validate_prime(1)
    with pytest.raises(ValueError):
        PadicInt(1, 4, 8)


def test_from_integer_canonicalizes():
    assert PadicInt(36, 5, 4).residue == 36
    assert PadicInt(-1, 5, 2).residue == 24
    x = PadicInt(625, 5, 4)
    assert x.residue == 0
    assert x.valuation() == Valuation.at_least(4)


def test_ring_op_examples():
    assert (PadicInt(6, 5, 4) * PadicInt(6, 5, 4)).residue == 36
    x = PadicInt(17, 5, 6)
    assert x + PadicInt(0, 5, 6) == x
    prod = PadicInt(5, 5, 4) * PadicInt(125, 5, 4)
    assert prod.residue == 0
    assert prod.valuation() == Valuation.at_least(4)
    # an int operand, on either side, takes the PadicInt's precision
    y = PadicInt(3, 5, 4)
    assert 2 + y == y + 2 == PadicInt(5, 5, 4)
    assert 2 * y == y * 2 == PadicInt(6, 5, 4)
    assert (y - 4, 4 - y) == (PadicInt(-1, 5, 4), PadicInt(1, 5, 4))


def test_min_precision_propagation():
    a = PadicInt(7, 5, 10)
    b = PadicInt(3, 5, 4)
    assert (a + b).prec == 4
    assert (a * b).prec == 4
    assert (a - b).prec == 4


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        PadicInt(1, 5, 4) + PadicInt(1, 7, 4)
    with pytest.raises(PrimeMismatch):
        PadicInt(1, 5, 4) * PadicInt(1, 3, 4)


_M5 = PadicMatrix([[0, 1], [2, 1]], 5, 4)
_CERT5 = certify_strongly_normal(_M5)
_GROUP5 = OneParamGroup(_CERT5, SeriesBudget(4))
_X7 = PadicInt(8, 7, 4)  # a principal unit over 7


# every site that takes a scalar, as a function of the scalar
_SCALAR_SITES = {
    "ring-op": lambda x: PadicInt(1, 5, 4) - x,
    "congruent": lambda x: PadicInt(1, 5, 4).congruent(x, 1),
    "scalar-divide": lambda x: PadicInt(1, 5, 4).divide_exact(x),
    "matrix-divide": lambda x: _M5.divide_exact(x),
    "matrix-entry": lambda x: PadicMatrix([[x, 0], [0, 1]], 5, 4),
    "scale-columns": lambda x: _M5.scale_columns([x, 1]),
    "matvec": lambda x: _M5.matvec([1, x]),
    "evaluate": lambda x: _GROUP5.evaluate(x),
    "additive-evaluate": lambda x: _GROUP5.additive_evaluate(x),
    "functional-calculus": lambda x: _CERT5.functional_calculus(lambda lam: x),
    "spectral-operator": lambda x: _CERT5.spectral_operator([x, 0]),
    "orthogonality": lambda x: _CERT5.verify_orthogonality([x, 1]),
}


@pytest.mark.parametrize("site", _SCALAR_SITES.values(), ids=_SCALAR_SITES.keys())
def test_scalar_over_another_prime_is_refused(site):
    # every scalar is coerced by core.as_padic, so every site says the same
    with pytest.raises(PrimeMismatch, match=r"^p=5 vs p=7$"):
        site(_X7)


@pytest.mark.parametrize("site", _SCALAR_SITES.values(), ids=_SCALAR_SITES.keys())
def test_bool_scalar_is_refused(site):
    # one integer rule (core.is_int) for scalars and entries: True is not 1
    with pytest.raises(TypeError):
        site(True)


@pytest.mark.parametrize("site", _SCALAR_SITES.values(), ids=_SCALAR_SITES.keys())
def test_float_scalar_is_refused_with_one_message(site):
    # as_padic's refusal, at every site but the ring op, which leaves the
    # operand to the other type first, so Python words its refusal
    one_message = site is not _SCALAR_SITES["ring-op"]
    match = r"^2\.5 is not an int or a PadicInt$" if one_message else "unsupported operand"
    with pytest.raises(TypeError, match=match):
        site(2.5)


_Z5, _LAM5, _B4 = PadicInt(5, 5, 4), PadicInt(2, 5, 4), SeriesBudget(4)
_M5_DICT, _CERT5_DICT = _M5.to_dict(), _CERT5.to_dict()

# one integer rule (core.is_int) for precisions, primes, counts and
# exponents, and for the integers of the file formats (core.from_decimal)
_NOT_INTS = {
    "prec-float": (lambda: PadicInt(3, 5, 4.7), TypeError, "is not an int"),
    "prec-bool": (lambda: PadicInt(3, 5, True), TypeError, "is not an int"),
    "prime-float": (lambda: PadicInt(3, 5.0, 4), TypeError, "is not an int"),
    "budget-float": (lambda: SeriesBudget(7.5), TypeError, "is not an int"),
    "valuation-float": (lambda: Valuation(2.5), TypeError, "is not an int"),
    "valuation-bool": (lambda: Valuation(True), TypeError, "is not an int"),
    "truncation-length-float": (lambda: truncation_length(2.5, _B4), TypeError, "is not an int"),
    "scalar-power-bool": (lambda: PadicInt(3, 5, 4) ** True, TypeError, "is not an int"),
    "scalar-power-negative": (lambda: PadicInt(3, 5, 4) ** -1, ValueError, ">= 0"),
    "matrix-power-bool": (lambda: _M5**True, TypeError, "is not an int"),
    "matrix-power-negative": (lambda: _M5**-1, ValueError, ">= 0"),
    "principal-power-bool": (lambda: principal_power(_Z5, True, _B4), TypeError, "is not an int"),
    "principal-power-negative": (lambda: principal_power(_Z5, -1, _B4), ValueError, ">= 0"),
    "mahler-bool": (lambda: mahler_coeff(True, _LAM5), TypeError, "is not an int"),
    "mahler-negative": (lambda: mahler_coeff(-1, _LAM5), ValueError, ">= 0"),
    "truncation-error-bool": (lambda: digit_truncation_error(True, 5), TypeError, "is not an int"),
    "truncation-error-negative": (lambda: digit_truncation_error(-1, 5), ValueError, ">= 0"),
    "digit-limit-float": (lambda: _GROUP5.digit_limit_approxes(6, [1.0]), TypeError, "is not an int"),
    "digit-limit-negative": (lambda: _GROUP5.digit_limit_approxes(6, [0, -1]), ValueError, ">= 0"),
    "congruent-digits-float": (lambda: PadicInt(3, 5, 4).congruent(3, 2.0), TypeError, "is not an int"),
    "spectral-index-float": (lambda: _CERT5.spectral_measure([1.0]), TypeError, "is not an int"),
    "spectral-index-bool": (lambda: _CERT5.spectral_measure([0.0, True]), TypeError, "is not an int"),
    "int-file-prec": (
        lambda: PadicInt.from_dict({"p": 5, "prec": 4.9, "val": "3"}),
        ValueError,
        "not a decimal integer",
    ),
    "int-file-p": (
        lambda: PadicInt.from_dict({"p": True, "prec": 4, "val": "3"}),
        ValueError,
        "not a decimal integer",
    ),
    "matrix-file-p": (
        lambda: PadicMatrix.from_dict({**_M5_DICT, "p": 5.0}),
        ValueError,
        "not a decimal integer",
    ),
    "matrix-file-n": (
        lambda: PadicMatrix.from_dict({**_M5_DICT, "n": 2.5}),
        ValueError,
        "not a decimal integer",
    ),
    "budget-file-target": (
        lambda: SeriesBudget.from_dict({"target": 7.5}),
        ValueError,
        "not a decimal integer",
    ),
}


@pytest.mark.parametrize("case", _NOT_INTS.values(), ids=_NOT_INTS.keys())
def test_one_integer_rule(case):
    call, error, match = case
    with pytest.raises(error, match=match):
        call()


# refusals that no other test reaches: a series outside its domain or past
# the working-digit cap, an exponent, a certificate or a group that does
# not fit
_REFUSALS = {
    "log-unit": (
        lambda: log_series(PadicInt(1, 5, 4), 0, 4, mul),
        OutOfConvergenceDomain,
        "valuation >= 1",
    ),
    "log-working-cap": (
        lambda: log_series(PadicInt(5, 5, 4), 1, MAX_WORKING_PREC, mul),
        InsufficientPrecision,
        r"^log series needs \d+ working digits$",
    ),
    "binomial-working-cap": (
        lambda: next(binomials(_LAM5, MAX_WORKING_PREC, 5, mul)),
        InsufficientPrecision,
        r"^P_5 needs \d+ working digits$",
    ),
    "exponent-prime": (
        lambda: PowerPlan(5, [_LAM5, _X7], _B4).powers(_Z5),
        PrimeMismatch,
        "^p=5 vs p=7$",
    ),
    "log-series-unit-entry": (
        lambda: generator_log_series(PadicMatrix([[1, 1], [0, 1]], 5, 4), _B4),
        NotPrincipalSpectrum,
        r"^\|V\| = 1: entry \(0, 1\) is a unit$",
    ),
    "empty-matrix": (lambda: PadicMatrix([], 5, 4), ValueError, "at least 1 x 1"),
    "certifiable-above-p": (
        lambda: sample_certifiable_matrix(Random(0), 5, 4, 6),
        ValueError,
        "n=6, p=5",
    ),
    "certificate-no-spectrum": (
        lambda: StrongNormalCertificate(_M5, [], _CERT5.basis),
        ValueError,
        "at least one spectral point",
    ),
    "certificate-basis-size": (
        lambda: StrongNormalCertificate(_M5, _CERT5.eigenvalues, PadicMatrix.identity(3, 5, 4)),
        DimensionMismatch,
        "^basis columns do not match the dimension 2$",
    ),
    "certificate-eigenvalue-count": (
        lambda: StrongNormalCertificate(
            PadicMatrix.identity(3, 5, 4), _CERT5.eigenvalues, PadicMatrix.identity(3, 5, 4)
        ),
        DimensionMismatch,
        "^2 eigenvalues in dimension 3$",
    ),
    "certificate-types": (
        lambda: StrongNormalCertificate(_M5, [1, 2], _CERT5.basis),
        TypeError,
        "^certificate takes PadicMatrix A and S and PadicInt eigenvalues$",
    ),
    "certificate-list-basis": (
        lambda: StrongNormalCertificate(_M5, _CERT5.eigenvalues, [[1, 0], [0, 1]]),
        TypeError,
        "^certificate takes PadicMatrix A and S and PadicInt eigenvalues$",
    ),
    "group-int-budget": (
        lambda: OneParamGroup(_CERT5, 16),
        TypeError,
        "^OneParamGroup takes a StrongNormalCertificate and a SeriesBudget$",
    ),
    "group-matrix-certificate": (
        lambda: OneParamGroup(_M5, SeriesBudget(16)),
        TypeError,
        "^OneParamGroup takes a StrongNormalCertificate and a SeriesBudget$",
    ),
    "unitary-list-matrix": (
        lambda: UnitaryOperator([[1, 0], [0, 1]], _CERT5),
        TypeError,
        "^UnitaryOperator takes a PadicMatrix and a StrongNormalCertificate$",
    ),
    "unitary-matrix-certificate": (
        lambda: UnitaryOperator(_M5, _M5),
        TypeError,
        "^UnitaryOperator takes a PadicMatrix and a StrongNormalCertificate$",
    ),
    "certificate-prime": (
        lambda: StrongNormalCertificate(_M5, [_CERT5.eigenvalues[0], _X7], _CERT5.basis),
        PrimeMismatch,
        "^certificate data must share the matrix prime$",
    ),
}


@pytest.mark.parametrize("case", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_refusal_guards(case):
    call, error, match = case
    with pytest.raises(error, match=match):
        call()


def test_negation_identity_and_empty_requests(monkeypatch):
    x = PadicInt(3, 5, 4)
    assert -x == PadicInt(622, 5, 4) and x + -x == PadicInt(0, 5, 4)
    assert -_M5 == PadicMatrix([[0, 624], [623, 624]], 5, 4)
    assert _GROUP5.digit_limit_approxes(6, []) == []
    # U(1) = I sums no Mahler series, which an s = 1 of one digit would
    # otherwise run to the target
    monkeypatch.setattr(padicspectral.groups, "binomials", None)
    assert _GROUP5.evaluate_mahler(1) == PadicMatrix.identity(2, 5, 4)
    assert _GROUP5.evaluate_mahler(PadicInt(6, 5, 1)) == PadicMatrix.identity(2, 5, 1)


# each reader of the file formats, a document it writes and the fields
# taken out of it
_MISSING = {
    "int": (PadicInt, _LAM5.to_dict(), ["val"]),
    "matrix": (PadicMatrix, _M5_DICT, ["entries"]),
    "budget": (SeriesBudget, _B4.to_dict(), ["target"]),
    "group": (OneParamGroup, _GROUP5.to_dict(), ["budget"]),
    "certificate": (StrongNormalCertificate, _CERT5_DICT, ["eigenvalues", "basis"]),
}


@pytest.mark.parametrize("case", _MISSING.values(), ids=_MISSING.keys())
def test_missing_field_is_refused_with_one_message(case):
    # one refusal (Frozen._read) names the type and every field the
    # document lacks, and a document that is no object is refused as such
    cls, doc, missing = case
    doc = {k: v for k, v in doc.items() if k not in missing}
    with pytest.raises(ValueError) as refusal:
        cls.from_dict(doc)
    assert str(refusal.value) == f"{cls.__name__} is missing field(s) {missing}"
    with pytest.raises(ValueError, match=f"^{cls.__name__} must be a JSON object$"):
        cls.from_dict([])


@pytest.mark.parametrize("field", ["eigenvalues"])
def test_certificate_lists_are_refused_as_such(field):
    # a count where a list belongs is described, not iterated
    with pytest.raises(ValueError, match="^eigenvalues must be a list$"):
        StrongNormalCertificate.from_dict({**_CERT5_DICT, field: 5})


def test_foreign_operands_are_left_to_python():
    # a comparison, a sum or a product with a value of no supported type
    # returns NotImplemented, so Python raises TypeError
    v = Valuation(3)
    assert v.__lt__(3) is NotImplemented and v.__add__(1) is NotImplemented
    assert _M5.__mul__(2.5) is NotImplemented
    for call in (lambda: v < 3, lambda: v + 1, lambda: _M5 * 2.5):
        with pytest.raises(TypeError):
            call()


def test_value_reprs():
    assert [repr(Valuation(3)), repr(Valuation.at_least(4))] == ["v=3", "v>=4"]
    assert repr(_CERT5) == "StrongNormalCertificate(n=2, p=5, prec=4, eigenvalues=[2, 624])"
    assert repr(_GROUP5) == (
        "OneParamGroup(generator=PadicMatrix([[0, 1], [2, 1]], p=5, prec=4), "
        "budget=SeriesBudget(target=4))"
    )
    assert repr(_GROUP5.evaluate(6)) == "UnitaryOperator(n=2, p=5, spectrum=[36, 521])"


@given(
    p=st.sampled_from(PRIMES),
    prec=st.integers(1, 40),
    n=st.integers(-(10**30), 10**30),
    shift=st.integers(-3, 3),
    open_ended=st.booleans(),
)
@example(p=5, prec=4, n=3, shift=1, open_ended=False)
def test_equal_values_hash_alike(p, prec, n, shift, open_ended):
    # Frozen's == and hash agree, so sets and dicts find equal values, and
    # no int equals a PadicInt, not even its own residue; a group's power
    # plan, kept in its _memo slot after its first evaluation, is no field
    mod = p**prec
    evaluated, fresh = (
        OneParamGroup(
            certify_strongly_normal(PadicMatrix([[m, 1], [0, n + 1]], p, prec)), SeriesBudget(prec)
        )
        for m in (n, n + shift * mod)
    )
    evaluated.evaluate(1 + p)
    pairs = [
        (PadicInt(n, p, prec), PadicInt(n + shift * mod, p, prec)),
        (PadicMatrix([[n, 1], [0, n]], p, prec), PadicMatrix([[n + shift * mod, 1], [0, n]], p, prec)),
        (Valuation(abs(n) % 50, open_ended), Valuation(abs(n) % 50, open_ended)),
        (evaluated, fresh),
        (fresh, evaluated),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert b in {a} and {a: 1}[b] == 1
    x = pairs[0][0]
    assert x != x.residue and x.residue not in {x} and {x: 1}.get(x.residue) is None
    assert PadicInt(3, 5, 4) != 3


@pytest.mark.parametrize("n", ["3", 2.9, True, False, None, 3 + 0j])
def test_padic_int_refuses_a_non_int(n):
    with pytest.raises(TypeError, match="is not an int"):
        PadicInt(n, 5, 4)


def test_package_exports():
    # each module's __all__ lists its public names; the package joins them
    assert sorted(padicspectral.__all__) == sorted(
        [
            "errors",
            "__version__",
            "PadicInt",
            "Valuation",
            "SeriesBudget",
            "digit_truncation_error",
            "is_principal_unit",
            "mahler_coeff",
            "pexp",
            "plog",
            "principal_power",
            "PowerPlan",
            "truncation_length",
            "zeta_of",
            "PadicMatrix",
            "ResidueMatrix",
            "vector_norm",
            "StrongNormalCertificate",
            "certify_strongly_normal",
            "GroupCheck",
            "OneParamGroup",
            "UnitaryOperator",
            "additive_reparam",
            "generator_log_series",
            "make_unitary",
            "stone_recover",
        ]
    )
    assert all(hasattr(padicspectral, name) for name in padicspectral.__all__)


def test_valuation_examples():
    assert PadicInt(50, 5, 8).valuation() == Valuation.exact(2)
    assert PadicInt(6, 5, 8).valuation() == Valuation.exact(0)
    assert PadicInt(0, 5, 8).valuation() == Valuation.at_least(8)


def test_valuation_ordering():
    assert Valuation.exact(2) < Valuation.exact(3)
    assert Valuation.exact(8) < Valuation.at_least(8)
    assert Valuation.at_least(8) > Valuation.exact(7)
    assert Valuation.exact(1) + Valuation.exact(2) == Valuation.exact(3)
    assert not (Valuation.exact(1) + Valuation.at_least(4)).is_finite
    assert min(Valuation.exact(9), Valuation.at_least(8)) == Valuation.at_least(8)


def test_divide_exact_examples():
    q = PadicInt(10, 5, 4).divide_exact(PadicInt(5, 5, 4))
    assert q.residue == 2 and q.prec == 3
    q = PadicInt(36, 5, 4).divide_exact(PadicInt(6, 5, 4))
    assert q.residue == 6 and q.prec == 4  # unit divisor, no loss
    with pytest.raises(DivisionByHigherValuation):
        PadicInt(1, 5, 4).divide_exact(PadicInt(5, 5, 4))
    with pytest.raises(DivisionByHigherValuation):
        PadicInt(1, 5, 4).divide_exact(PadicInt(0, 5, 4))
    with pytest.raises(InsufficientPrecision):
        PadicInt(5, 5, 1).divide_exact(PadicInt(5, 5, 4))


def test_reduce_mod_p_examples():
    assert PadicInt(36, 5, 4).reduce_mod_p() == 1
    assert PadicInt(0, 5, 4).reduce_mod_p() == 0
    assert PadicInt(24, 5, 4).reduce_mod_p() == 4


def test_congruent_examples():
    assert PadicInt(36, 5, 8).congruent(PadicInt(36 + 625, 5, 8), 4)
    assert PadicInt(1, 5, 4).congruent(PadicInt(6, 5, 4), 1)
    assert not PadicInt(1, 5, 4).congruent(PadicInt(6, 5, 4), 2)
    with pytest.raises(PrecisionExceeded):
        PadicInt(1, 5, 4).congruent(PadicInt(1, 5, 4), 5)
    with pytest.raises(ValueError):
        PadicInt(1, 5, 4).congruent(PadicInt(1, 5, 4), -1)


@pytest.mark.parametrize("p", PRIMES)
def test_ring_axioms(p):
    rng = Random(100 + p)
    for _ in range(200):
        a, b, c = (PadicInt(rng.randrange(p**12), p, 12) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p", PRIMES)
def test_ultrametric_valuations(p):
    rng = Random(200 + p)
    prec = 12
    for _ in range(300):
        a = PadicInt(rng.randrange(p**prec), p, prec)
        b = PadicInt(rng.randrange(p**prec), p, prec)
        va, vb = a.valuation(), b.valuation()
        expected = va + vb if (va + vb).value < prec else Valuation.at_least(prec)
        assert (a * b).valuation() == expected
        vsum = (a + b).valuation()
        assert vsum >= min(va, vb)
        if va.value != vb.value:
            assert vsum == min(va, vb)


@pytest.mark.parametrize("p", PRIMES)
def test_divide_undoes_multiply(p):
    rng = Random(300 + p)
    prec = 12
    for _ in range(200):
        a = PadicInt(rng.randrange(p**prec), p, prec)
        b = PadicInt(rng.randrange(p**prec), p, prec)
        vb = b.valuation()
        if not vb.is_finite or prec - vb.value < 1:
            continue
        q = (a * b).divide_exact(b)
        assert q.prec == prec - vb.value
        assert q.congruent(a.truncate_to(q.prec), q.prec)


def test_pow_and_inverse():
    x = PadicInt(6, 5, 10)
    assert (x**3).residue == 216
    assert x**0 == PadicInt.one(5, 10)
    assert (x * x.inverse()).residue == 1
    with pytest.raises(DivisionByHigherValuation):
        PadicInt(5, 5, 10).inverse()
    with pytest.raises(ValueError):
        x ** (-1)


def test_int_coercion():
    x = PadicInt(10, 5, 4)
    assert (x + 1).residue == 11
    assert (1 + x).residue == 11
    assert (x - 11).residue == 624
    assert (3 * x).residue == 30
    # Frozen's equality: no int equals a PadicInt; congruent compares with one
    assert x != 10 and x != 10 + 5**4
    assert x.congruent(10, 4) and x.congruent(10 + 5**4, 4)


def test_digits():
    x = PadicInt(1 + 2 * 5 + 3 * 25, 5, 4)
    assert x.digits() == (1, 2, 3, 0)


def test_truncate_and_lift():
    x = PadicInt(1 + 2 * 5 + 3 * 25, 5, 4)
    assert x.truncate_to(2).residue == 11
    assert x.at_prec(6).residue == x.residue
    with pytest.raises(PrecisionExceeded):
        x.truncate_to(5)


def test_immutability():
    # every value type refuses assignment, so a hashed value cannot change;
    # it hashes, equals a copy rebuilt from its fields, and differs from a
    # copy with one field changed
    a = PadicMatrix([[0, 1], [2, 1]], 5, 4)
    cert = certify_strongly_normal(a)
    group = OneParamGroup(cert, SeriesBudget(4))
    u = group.evaluate(6)
    check = group.verify_group_law(6, 11)
    # the verified certificate keeps S^-1 in its _memo slot, which is no
    # field: it equals a copy built from its fields that has inverted nothing
    parts = (cert.eigenvalues, cert.basis)
    values = [  # (value, a field, the rebuilt copy, the changed copy)
        (PadicInt(1, 5, 4), "residue", PadicInt(1, 5, 4), PadicInt(2, 5, 4)),
        (a, "prec", PadicMatrix(a.rows(), 5, 4), PadicMatrix(a.rows(), 5, 3)),
        (a.reduction(), "p", ResidueMatrix(a.rows(), 5), ResidueMatrix(a.rows(), 7)),
        (Valuation.exact(2), "value", Valuation(2), Valuation(2, True)),
        (SeriesBudget(4), "target", SeriesBudget(4), SeriesBudget(5)),
        (
            group,
            "budget",
            OneParamGroup(cert, SeriesBudget(4)),
            OneParamGroup(cert, SeriesBudget(5)),
        ),
        (
            cert,
            "eigenvalues",
            StrongNormalCertificate(a, *parts),
            StrongNormalCertificate(a.truncate_to(3), *parts),
        ),
        (u, "matrix", UnitaryOperator(u.matrix, u.cert), UnitaryOperator(u.matrix, cert)),
        (
            check,
            "required",
            GroupCheck("group-law", check.observed, check.required),
            GroupCheck("group-law", check.observed, check.required + 1),
        ),
    ]
    for value, field, same, changed in values:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        assert value == same and hash(value) == hash(same) and same in {value}
        assert value != changed, (value, changed)
    v = Valuation.exact(2)
    held = {v}
    with pytest.raises(AttributeError):
        v.value = 5
    assert v in held


def test_serialization_roundtrip():
    x = PadicInt(12345, 7, 20)
    d = x.to_dict()
    assert d == {"p": 7, "prec": 20, "val": "12345"}
    assert PadicInt.from_dict(d) == x
    # signed strings are accepted and canonicalized
    assert PadicInt.from_dict({"p": 7, "prec": 2, "val": "-1"}).residue == 48


def test_decimals_beyond_the_interpreter_limit(digit_limit):
    # p^prec at the input bounds has 19728 digits, above the default limit
    # of 4300; values of any length within the bounds write and read back
    p, prec = 65521, 4096
    top = p**prec - 1
    m = PadicMatrix([[top, 1], [2, top // 7]], p, prec)
    d = m.to_dict()
    assert [len(x) for row in d["entries"] for x in row] == [19728, 1, 1, 19728]
    assert PadicMatrix.from_dict(d) == m
    x = PadicInt(m.rows()[0][0], m.p, m.prec)
    assert PadicInt.from_dict(x.to_dict()) == x
    assert str(x) == f"{d['entries'][0][0]} + O({p}^{prec})"
    assert repr(x) == f"PadicInt({d['entries'][0][0]}, p={p}, prec={prec})"
    assert repr(m).startswith(f"PadicMatrix([[{d['entries'][0][0]}, 1], [2, ")
    # chunk edges and signs
    assert to_decimal(10**4000) == "1" + "0" * 4000
    assert to_decimal(-(10**8000) + 1) == "-" + "9" * 8000
    assert from_decimal("-" + "9" * 4001) == -(10**4001) + 1
    assert from_decimal("+1" + "0" * 4000) == 10**4000
    # a chunk may not carry a sign or a space of its own
    chunked = ["1" * 4000 + "-" + "1" * 3999, "1" * 4001 + " " + "1" * 3999]
    short = [" 1", "2_0", "1 ", "", "+", "-", "\u0661", True, 2.0, None]
    for bad in ["1" * 20481, "1_" * 2001, "--" + "1" * 4000, *chunked, *short]:
        with pytest.raises(ValueError):
            from_decimal(bad)
    # a refusal that shows a long value is still a refusal
    with pytest.raises(NotPrincipal):
        plog(PadicInt(2 + p**1000, p, prec), SeriesBudget(prec))
