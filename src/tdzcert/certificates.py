"""Verdicts, certificates, and the verification harness.

A verdict classifies one element of a Banach algebra: left/right zero
divisor (tri-state), topological divisor of zero (TDZ), or regular.  Every
positive claim is backed by a machine-checkable certificate:

* ``WitnessSequence`` -- a symbolic rule producing norm-one elements
  ``x_n`` whose products with the classified element tend to zero.  The
  generator is a callable rather than a precomputed list so the harness
  can probe arbitrarily deep indices (the property being certified is
  asymptotic).
* ``Annihilator`` -- an explicit nonzero element ``y`` with ``x*y = 0``
  or ``y*x = 0``.
* ``RegularityBound`` -- a positive lower bound ``lambda0`` on the
  modulus of the element (on the relevant boundary or a.e.), certifying
  invertibility.

``verify_tdz_certificate`` is the independent harness: it re-evaluates
witness and product norms through a caller-supplied norm oracle and
applies a decay criterion that does not depend on how the certificate
was produced.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import CertificateMalformedError, InputError, NumericError

__all__ = [
    "Annihilator",
    "CertificationReport",
    "RegularityBound",
    "Side",
    "Tolerances",
    "TriState",
    "Verdict",
    "WitnessSample",
    "WitnessSequence",
    "verify_annihilator",
    "verify_certificate",
    "verify_regularity",
    "verify_tdz_certificate",
]


class TriState(enum.Enum):
    """Three-valued answer for one-sided zero-divisor questions."""

    YES = "yes"
    NO = "no"
    NOT_APPLICABLE = "not_applicable"


class Side(enum.Enum):
    """Which side of the product the classified element occupies.

    ``LEFT`` certifies products ``x * x_n`` (x is a left divisor),
    ``RIGHT`` certifies ``x_n * x``.
    """

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the toolkit.

    eps_zero   -- exact-structure checks (products that should vanish).
    eps_norm   -- norm estimates and norm comparisons.
    eps_circle -- threshold on ``| |root| - 1 |`` for circle membership.
    n_witness  -- number of witness indices the harness verifies.
    """

    eps_zero: float = 1e-9
    eps_norm: float = 1e-6
    eps_circle: float = 1e-8
    n_witness: int = 50

    def __post_init__(self):
        eps = (self.eps_zero, self.eps_norm, self.eps_circle)
        if not all(0 < e < math.inf for e in eps):
            raise InputError("tolerances must be strictly positive and finite")
        if not isinstance(self.n_witness, numbers.Integral):
            raise InputError("n_witness must be an integer")
        if self.n_witness < 3:
            raise InputError("n_witness must be at least 3")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class WitnessSequence:
    """Symbolic generator of norm-one witnesses ``x_n``, 1-indexed."""

    generator: Callable[[int], Any]
    side: Side
    description: str = ""


@dataclass(frozen=True)
class Annihilator:
    """Nonzero ``y`` with zero product against the classified element.

    ``side`` names the divisor kind being certified: ``Side.LEFT`` means
    the element is a left zero divisor (``x * y = 0``), ``Side.RIGHT``
    means it is a right zero divisor (``y * x = 0``).
    """

    element: Any
    side: Side
    description: str = ""


@dataclass(frozen=True)
class RegularityBound:
    """Lower bound ``|x| >= lambda0 > 0`` certifying invertibility.

    ``inverse`` optionally carries an exactly representable inverse
    element (e.g. the reciprocal symbol of a multiplication operator),
    enabling exact verification of ``x * inverse = 1``.
    """

    lambda0: float
    inverse: Any = None
    description: str = ""

    def __post_init__(self):
        if not (self.lambda0 > 0):
            raise InputError("regularity bound lambda0 must be positive")


Certificate = WitnessSequence | Annihilator | RegularityBound


@dataclass(frozen=True)
class Verdict:
    """Classification of one algebra element plus its certificate.

    Consistency is enforced at construction: a one-sided zero-divisor
    "yes" forces ``is_tdz``, and ``is_regular`` excludes ``is_tdz`` and
    both zero-divisor flags.  ``extra_certificates`` carries additional
    one-sided annihilators when both sides are certified independently.
    """

    is_left_zero_divisor: TriState
    is_right_zero_divisor: TriState
    is_tdz: bool
    is_regular: bool
    certificate: Optional[Certificate] = None
    extra_certificates: tuple[Certificate, ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        zd = TriState.YES in (self.is_left_zero_divisor, self.is_right_zero_divisor)
        if zd and not self.is_tdz:
            raise InputError("a zero divisor is always a TDZ")
        if self.is_regular and self.is_tdz:
            raise InputError("a regular element is never a TDZ")
        if self.is_regular and (
            self.is_left_zero_divisor is TriState.YES
            or self.is_right_zero_divisor is TriState.YES
        ):
            raise InputError("a regular element is never a zero divisor")

    @property
    def all_certificates(self) -> tuple[Certificate, ...]:
        head = (self.certificate,) if self.certificate is not None else ()
        return head + self.extra_certificates


@dataclass(frozen=True)
class WitnessSample:
    n: int
    witness_norm: float
    product_norm: float


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of independently verifying one certificate."""

    passes: bool
    side: Optional[Side]
    samples: tuple[WitnessSample, ...]
    criterion: str

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "side": self.side.value if self.side is not None else None,
            "samples": [
                {
                    "n": s.n,
                    "witness_norm": s.witness_norm,
                    "product_norm": s.product_norm,
                }
                for s in self.samples
            ],
            "criterion": self.criterion,
        }


_TDZ_CRITERION = (
    "every witness norm in [1-eps_norm, 1+eps_norm]; "
    "product norm at n_witness < max(eps_norm, half the product norm at n=1); "
    "product norms non-increasing after smoothing over windows of 3 "
    "(decay thresholds are an artifact choice, not part of the underlying theory)"
)


def _smoothed(values: list[float], window: int = 3) -> list[float]:
    if len(values) < window:
        return list(values)
    return [
        sum(values[i : i + window]) / window for i in range(len(values) - window + 1)
    ]


def verify_tdz_certificate(
    norm_oracle: Callable[[Any], float],
    x: Any,
    cert: WitnessSequence,
    tol: Tolerances = DEFAULT_TOL,
    product: Callable[[Any, Any], Any] = operator.mul,
) -> CertificationReport:
    """Independently verify a TDZ witness sequence.

    For ``n = 1 .. tol.n_witness`` the harness evaluates the witness norm
    and the product norm (side per the certificate) through
    ``norm_oracle``, then applies the documented pass criterion.  The
    oracle and the product rule are supplied by the caller, so this
    routine stays independent of how the certificate was constructed.

    Raises ``CertificateMalformedError`` if the generator fails at any
    index and ``NumericError`` if any evaluated norm is non-finite.
    """
    samples = []
    for n in range(1, tol.n_witness + 1):
        try:
            xn = cert.generator(n)
        except Exception as exc:
            raise CertificateMalformedError(
                f"witness generator failed at index {n}: {exc}"
            ) from exc
        if cert.side is Side.LEFT:
            prod = product(x, xn)
        else:
            prod = product(xn, x)
        wn = float(norm_oracle(xn))
        pn = float(norm_oracle(prod))
        if not (math.isfinite(wn) and math.isfinite(pn)):
            raise NumericError(f"non-finite norm at witness index {n}")
        samples.append(WitnessSample(n=n, witness_norm=wn, product_norm=pn))

    norms_ok = all(
        abs(s.witness_norm - 1.0) <= tol.eps_norm for s in samples
    )
    prods = [s.product_norm for s in samples]
    final_ok = prods[-1] < max(tol.eps_norm, 0.5 * prods[0])
    sm = _smoothed(prods)
    monotone_ok = all(sm[i + 1] <= sm[i] + tol.eps_norm for i in range(len(sm) - 1))

    return CertificationReport(
        passes=norms_ok and final_ok and monotone_ok,
        side=cert.side,
        samples=tuple(samples),
        criterion=_TDZ_CRITERION,
    )


def verify_annihilator(
    norm_oracle: Callable[[Any], float],
    x: Any,
    cert: Annihilator,
    tol: Tolerances = DEFAULT_TOL,
    product: Callable[[Any, Any], Any] = operator.mul,
) -> CertificationReport:
    """Check that the stored ``y`` is nonzero and the product vanishes."""
    y = cert.element
    if cert.side is Side.LEFT:
        prod = product(x, y)
    else:
        prod = product(y, x)
    ny = float(norm_oracle(y))
    np_ = float(norm_oracle(prod))
    if not (math.isfinite(ny) and math.isfinite(np_)):
        raise NumericError("non-finite norm while verifying annihilator")
    scale = max(1.0, float(norm_oracle(x)))
    passes = ny > tol.eps_norm and np_ <= tol.eps_zero * scale
    return CertificationReport(
        passes=passes,
        side=cert.side,
        samples=(WitnessSample(n=1, witness_norm=ny, product_norm=np_),),
        criterion=(
            "annihilator norm > eps_norm and product norm <= "
            "eps_zero * max(1, norm(x))"
        ),
    )


def verify_regularity(
    min_modulus_estimate: float,
    cert: RegularityBound,
    tol: Tolerances = DEFAULT_TOL,
) -> CertificationReport:
    """Confirm a regularity bound against an independent modulus estimate."""
    passes = cert.lambda0 > 0 and min_modulus_estimate >= cert.lambda0 - tol.eps_norm
    return CertificationReport(
        passes=passes,
        side=None,
        samples=(
            WitnessSample(
                n=1, witness_norm=min_modulus_estimate, product_norm=cert.lambda0
            ),
        ),
        criterion="lambda0 > 0 and independent min-modulus estimate >= lambda0 - eps_norm",
    )


def verify_certificate(
    x: Any,
    cert: Certificate,
    norm_oracle: Callable[[Any], float],
    tol: Tolerances = DEFAULT_TOL,
    product: Callable[[Any, Any], Any] = operator.mul,
    min_modulus_estimate: Optional[float] = None,
) -> CertificationReport:
    """Dispatch verification on the certificate variant."""
    if isinstance(cert, WitnessSequence):
        return verify_tdz_certificate(norm_oracle, x, cert, tol, product)
    if isinstance(cert, Annihilator):
        return verify_annihilator(norm_oracle, x, cert, tol, product)
    if isinstance(cert, RegularityBound):
        if min_modulus_estimate is None:
            raise InputError(
                "verifying a RegularityBound requires a min_modulus_estimate"
            )
        return verify_regularity(min_modulus_estimate, cert, tol)
    raise InputError(f"unknown certificate type: {type(cert).__name__}")
