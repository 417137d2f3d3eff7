"""Seeded random generators for property tests and CLI verification runs.

All sampling goes through a caller-supplied ``random.Random`` so every
report and test run is reproducible from its seed.  Certifiable matrices
are built as S D S^(-1) with D carrying distinct residue eigenvalues and
S = P L U invertible by construction (unit triangular factors), so no
rejection loop is needed.
"""

from __future__ import annotations

from random import Random

from .core import PadicInt
from .functions import SeriesBudget
from .groups import OneParamGroup
from .linalg import PadicMatrix
from .spectral import certify_strongly_normal

__all__ = [
    "sample_padic",
    "sample_unit",
    "sample_principal_unit",
    "sample_in_pzp",
    "sample_invertible_matrix",
    "sample_certifiable_matrix",
    "sample_group",
]


def sample_padic(rng: Random, p: int, prec: int) -> PadicInt:
    return PadicInt(rng.randrange(p**prec), p, prec)


def sample_unit(rng: Random, p: int, prec: int) -> PadicInt:
    r = rng.randrange(p**prec)
    while r % p == 0:
        r = rng.randrange(p**prec)
    return PadicInt(r, p, prec)


def sample_principal_unit(rng: Random, p: int, prec: int) -> PadicInt:
    """1 + p t: a uniform element of the principal units mod p^prec."""
    return PadicInt(1 + p * rng.randrange(p ** (prec - 1)), p, prec)


def sample_in_pzp(rng: Random, p: int, prec: int) -> PadicInt:
    """A uniform element of pZ_p mod p^prec (valuation >= 1)."""
    return PadicInt(p * rng.randrange(p ** (prec - 1)), p, prec)


def sample_invertible_matrix(rng: Random, p: int, prec: int, n: int) -> PadicMatrix:
    mod = p**prec
    lower = [
        [1 if i == j else (rng.randrange(mod) if j < i else 0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [
            sample_unit(rng, p, prec).residue
            if i == j
            else (rng.randrange(mod) if j > i else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    lu = (PadicMatrix(lower, p, prec) @ PadicMatrix(upper, p, prec)).rows()
    return PadicMatrix([lu[i] for i in perm], p, prec)


def sample_certifiable_matrix(rng: Random, p: int, prec: int, n: int) -> PadicMatrix:
    """A conjugated diagonal matrix with n distinct residue eigenvalues.

    Requires 1 <= n <= p, since the residues must be distinct in F_p.
    """
    if not 1 <= n <= p:
        raise ValueError(f"need 1 <= n <= p for distinct residues, got n={n}, p={p}")
    residues = rng.sample(range(p), n)
    diag = [r + p * rng.randrange(p ** (prec - 1)) for r in residues]
    s = sample_invertible_matrix(rng, p, prec, n)
    return s.scale_columns(diag) @ s.inverse()


def sample_group(
    rng: Random, p: int, prec: int, n: int, budget: SeriesBudget
) -> OneParamGroup:
    a = sample_certifiable_matrix(rng, p, prec, n)
    return OneParamGroup(certify_strongly_normal(a), budget)
