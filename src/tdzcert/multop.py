"""Multiplication operators M_h on L^p and the transfer of verdicts.

M_h is a TDZ in the operator algebra exactly when its symbol h is a TDZ
in L-infinity, uniformly in p, and the operator norm equals the
essential supremum of the symbol.  Verdicts therefore delegate to the
symbol-level deciders; what this module adds is the operator dressing of
the certificates (multiplications by indicators, with norms preserved)
and finite matrix sections for independent numerical cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    DEFAULT_TOL,
    Annihilator,
    RegularityBound,
    Tolerances,
    Verdict,
    WitnessSequence,
)
from .errors import InputError
from .matrices import OperatorMatrix
from .measure import (
    CountingN,
    FiniteAtoms,
    MeasurableFn,
    ZeroClass,
    decide_tdz_linf,
    decide_zero_divisor_linf,
    linf_norm,
    pointwise_product,
    spectrum_mult,
)

__all__ = [
    "MultOperator",
    "MultOperatorSpec",
    "decide_tdz_mult",
    "decide_zero_divisor_mult",
    "finite_section_mult",
    "mult_operator_norm",
]


@dataclass(frozen=True)
class MultOperatorSpec:
    """The operator M_h : f -> h f on L^p; p in [1, inf]."""

    h: MeasurableFn
    p: float

    def __init__(self, h: MeasurableFn, p):
        if not isinstance(h, MeasurableFn):
            raise InputError("symbol must be a MeasurableFn")
        p = float(p)
        if not (p >= 1.0):  # also rejects NaN
            raise InputError("exponent p must satisfy p >= 1 (math.inf allowed)")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class MultOperator:
    """A multiplication operator identified by its symbol.

    Composition of multiplications is multiplication by the pointwise
    product, so the operator product is exact whenever the symbol
    product is representable.
    """

    symbol: MeasurableFn

    def __mul__(self, other: "MultOperator") -> "MultOperator":
        if not isinstance(other, MultOperator):
            return NotImplemented
        return MultOperator(pointwise_product(self.symbol, other.symbol))


def mult_operator_norm(op: MultOperator) -> float:
    """Operator norm of M_h on any L^p: the essential sup of the symbol."""
    return linf_norm(op.symbol)


def _lift_certificate(cert):
    """Dress a symbol-level certificate in its operator form."""
    if isinstance(cert, WitnessSequence):
        return WitnessSequence(
            generator=lambda n: MultOperator(cert.generator(n)),
            side=cert.side,
            description=f"operator lift: {cert.description}",
        )
    if isinstance(cert, Annihilator):
        return Annihilator(
            element=MultOperator(cert.element),
            side=cert.side,
            description=f"operator lift: {cert.description}",
        )
    if isinstance(cert, RegularityBound):
        inverse = None
        if cert.inverse is not None:
            inverse = MultOperator(cert.inverse)
        return RegularityBound(
            lambda0=cert.lambda0,
            inverse=inverse,
            description=f"operator lift: {cert.description}",
        )
    return cert


def _lift_verdict(v: Verdict) -> Verdict:
    return Verdict(
        is_left_zero_divisor=v.is_left_zero_divisor,
        is_right_zero_divisor=v.is_right_zero_divisor,
        is_tdz=v.is_tdz,
        is_regular=v.is_regular,
        certificate=(
            None if v.certificate is None else _lift_certificate(v.certificate)
        ),
        extra_certificates=tuple(_lift_certificate(c) for c in v.extra_certificates),
        warnings=v.warnings,
    )


def decide_tdz_mult(op: MultOperatorSpec, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """TDZ status of M_h: the symbol verdict, with operator certificates.

    Witnesses lift to M_{chi_{E_n}} (norm exactly 1, products of norm
    sup_{E_n} |h|); a regularity bound lifts with inverse M_{1/h}.
    """
    return _lift_verdict(decide_tdz_linf(op.h, tol))


def decide_zero_divisor_mult(
    op: MultOperatorSpec, tol: Tolerances = DEFAULT_TOL
) -> Verdict:
    """Zero-divisor status of M_h: equivalent to 0 being an eigenvalue.

    The spectral route (zero_class = point_spectrum) and the symbol
    route (h attains zero) are the same finite check; the certificate is
    the annihilating operator M_{chi_{h = 0}}.
    """
    verdict = _lift_verdict(decide_zero_divisor_linf(op.h, tol))
    spectral_says = spectrum_mult(op.h, tol).zero_class is ZeroClass.POINT_SPECTRUM
    if spectral_says != (verdict.is_left_zero_divisor.value == "yes"):
        raise AssertionError(
            "spectral and symbol zero-divisor routes disagree; "
            "this indicates a representation bug"
        )
    return verdict


def finite_section_mult(op: MultOperatorSpec, n: int) -> OperatorMatrix:
    """The leading N x N section diag(h(1), ..., h(N)) of M_h at p = 2."""
    if op.p != 2:
        raise InputError("finite sections are defined for p = 2 only")
    if n < 1:
        raise InputError("section size must be >= 1")
    if isinstance(op.h.space, FiniteAtoms):
        if n != op.h.space.atom_count:
            raise InputError(
                f"section size {n} != atom count {op.h.space.atom_count}"
            )
    elif not isinstance(op.h.space, CountingN):
        raise InputError("unsupported space for finite sections")
    diag = np.array([op.h.value_at(m) for m in range(1, n + 1)], dtype=complex)
    return OperatorMatrix.diagonal(diag)
