"""Polynomial elements of the disk algebra and their TDZ classification.

Elements are restricted to polynomials: they are dense in the algebra of
functions continuous on the closed disk and analytic inside, so they form
the finitely-describable core.  An element is a TDZ exactly when it
vanishes somewhere on the unit circle; the decision procedure runs two
independent routes (root locations vs. a grid estimate of the boundary
minimum) and the constructive certificate is the peak-function family

    f_n(z) = ((1 + conj(z0) z) / 2) ** n,

which has sup norm exactly 1 (attained at ``z0``) and drives products
with any circle-vanishing polynomial to zero at rate ``2 / sqrt(n+1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import (
    DEFAULT_TOL,
    RegularityBound,
    Side,
    Tolerances,
    TriState,
    Verdict,
    WitnessSequence,
)
from .errors import DegenerateInputError, InputError, NotARootError

__all__ = [
    "CirclePolynomial",
    "CircleZeroSet",
    "circle_zeros",
    "decide_tdz_disk",
    "factor_out_root",
    "min_modulus_on_circle",
    "peak_witness",
    "sup_norm_on_circle",
]

@dataclass(frozen=True)
class CirclePolynomial:
    """Complex polynomial ``a_0 + a_1 z + ... + a_d z^d``, constant first.

    Trailing coefficients with modulus below ``trim_eps`` are removed at
    construction; the zero polynomial is kept as the single coefficient 0.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs, trim_eps: float = DEFAULT_TOL.eps_zero):
        arr = [complex(c) for c in coeffs]
        if not arr:
            raise InputError("polynomial needs at least one coefficient")
        while len(arr) > 1 and abs(arr[-1]) <= trim_eps:
            arr.pop()
        object.__setattr__(self, "coeffs", tuple(arr))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        result = np.full_like(np.asarray(z, dtype=complex), self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            result = result * z + c
        if np.ndim(z) == 0:
            return complex(result)
        return result

    def __mul__(self, other: "CirclePolynomial") -> "CirclePolynomial":
        if not isinstance(other, CirclePolynomial):
            return NotImplemented
        prod = np.convolve(
            np.asarray(self.coeffs, dtype=complex),
            np.asarray(other.coeffs, dtype=complex),
        )
        return CirclePolynomial(prod, trim_eps=0.0)

    def __sub__(self, other: "CirclePolynomial") -> "CirclePolynomial":
        if not isinstance(other, CirclePolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=complex)
        b = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return CirclePolynomial(a - b, trim_eps=0.0)


@dataclass(frozen=True)
class CircleZeroSet:
    """Roots found on the unit circle plus the boundary-minimum estimate."""

    zeros: tuple[complex, ...]
    residual_min: float


def _extremum_on_circle(p: CirclePolynomial, maximize: bool) -> float:
    """Extremum of ``|p(e^{i theta})|`` over the circle.

    Newton steps on ``g = |p|^2`` refine all seeds at once, each clipped to
    its bracket [t0 - h, t0 + h] on a grid of m >= 32 (d + 1) angles.  The
    seeds are the grid points whose g is within ``(h d)^2 / 8 * sup g`` of
    the best: by Bernstein, ``|g''| <= d^2 sup g``, so they hold the grid
    point nearest every extremum that beats the grid, even inside a root
    cluster.  The best grid or refined value is returned; it is attained at
    a real angle.
    """
    d = p.degree
    sign = 1.0 if maximize else -1.0
    m = max(1024, 32 * (d + 1))
    h = 2.0 * math.pi / m
    theta = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    vals = sign * np.abs(p(np.exp(1j * theta)))
    # g / max g, so squares neither overflow nor underflow at any scale;
    # sup g <= max g / (1 - c), by the same bound at the maximum.
    g = (vals / (np.abs(vals).max() or 1.0)) ** 2
    c = (h * d) ** 2 / 8.0
    t0 = theta[sign * g >= (sign * g).max() - c / (1.0 - c)]

    # p, p' and p'' in theta by Horner (O(seeds) memory), scaled by
    # 1 / max |a_k|: the step is a ratio, so it is the same at any scale.
    k = np.arange(d + 1)
    a = np.asarray(p.coeffs) / (np.abs(p.coeffs).max() or 1.0)
    derivs = np.stack([a, 1j * k * a, -k * k * a], axis=1)
    t = t0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            q, q1, q2 = np.polynomial.polynomial.polyval(np.exp(1j * t), derivs)
            # g' / |g''| (factors of 2 cancel) steps uphill for sign * g
            # even where g'' has the wrong sign; 0/0 on a flat modulus.
            step = (q.conj() * q1).real / np.abs(np.abs(q1) ** 2 + (q.conj() * q2).real)
            t = np.clip(t + sign * step, t0 - h, t0 + h)
            t = np.where(np.isfinite(t), t, t0)
    refined = sign * np.abs(p(np.exp(1j * t)))
    return float(sign * max(vals.max(), refined.max()))


def sup_norm_on_circle(p: CirclePolynomial, tol: Tolerances = DEFAULT_TOL) -> float:
    """Sup norm ``max_theta |p(e^{i theta})|`` to relative accuracy eps_norm."""
    return _extremum_on_circle(p, maximize=True)


def min_modulus_on_circle(p: CirclePolynomial, tol: Tolerances = DEFAULT_TOL) -> float:
    """Minimum of ``|p|`` over the unit circle (the regularity estimate)."""
    return _extremum_on_circle(p, maximize=False)


def _all_roots(p: CirclePolynomial) -> np.ndarray:
    if p.degree == 0:
        return np.array([], dtype=complex)
    # np.roots builds the companion matrix; coefficients highest-first.
    return np.roots(np.asarray(list(reversed(p.coeffs)), dtype=complex))


def circle_zeros(p: CirclePolynomial, tol: Tolerances = DEFAULT_TOL) -> CircleZeroSet:
    """Roots of ``p`` lying on the unit circle, within ``eps_circle``.

    ``residual_min`` is the independently estimated minimum of ``|p|``
    over the circle; callers cross-check ``zeros nonempty`` against
    ``residual_min <= eps_norm * sup_norm`` (two routes to the same
    decision).
    """
    if p.is_zero:
        return CircleZeroSet(zeros=(), residual_min=0.0)
    roots = _all_roots(p)
    on_circle = [
        complex(r) for r in roots if abs(abs(r) - 1.0) <= tol.eps_circle
    ]
    # Half-tolerance shift keeps rounding noise at angle 0 from wrapping
    # the key to 2*pi and sorting a positive-axis root last.
    on_circle.sort(
        key=lambda z: (math.atan2(z.imag, z.real) + 0.5 * tol.eps_circle)
        % (2.0 * math.pi)
    )
    residual = min_modulus_on_circle(p, tol)
    return CircleZeroSet(zeros=tuple(on_circle), residual_min=residual)


def peak_witness(z0: complex, n: int, tol: Tolerances = DEFAULT_TOL) -> CirclePolynomial:
    """The n-th peak function at ``z0``: ``((1 + conj(z0) z)/2)^n``.

    Sup norm is exactly 1 (attained at ``z = z0``); multiplying any
    polynomial that vanishes at ``z0`` by this family drives the product
    norm below ``2/sqrt(n+1)`` times the cofactor norm.
    """
    z0 = complex(z0)
    if abs(abs(z0) - 1.0) > tol.eps_circle:
        raise InputError(f"peak point {z0} is not on the unit circle")
    if n < 1:
        raise InputError("peak exponent must be a positive integer")
    w = z0.conjugate()
    coeffs = [
        math.comb(n, k) * (w**k) / (2.0**n) for k in range(n + 1)
    ]
    return CirclePolynomial(coeffs, trim_eps=0.0)


def factor_out_root(
    p: CirclePolynomial, z0: complex, tol: Tolerances = DEFAULT_TOL
) -> CirclePolynomial:
    """Synthetic division of ``p`` by ``(z - z0)``; the remainder is dropped.

    The remainder equals ``p(z0)`` exactly, so the reconstruction error
    ``|p - (z - z0) r|`` is ``|p(z0)|``; it must stay below
    ``10 * eps_norm * |p|`` or the division is rejected.
    """
    z0 = complex(z0)
    quotient = []
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * z0 + c
        quotient.append(acc)
    remainder = quotient.pop()
    quotient.reverse()
    bound = 10.0 * tol.eps_norm * sup_norm_on_circle(p, tol)
    if abs(remainder) > bound:
        raise NotARootError(
            f"remainder {abs(remainder):.3e} exceeds bound {bound:.3e}; "
            f"{z0} is not a root of the polynomial"
        )
    if not quotient:
        quotient = [0j]
    return CirclePolynomial(quotient, trim_eps=0.0)


def decide_tdz_disk(p: CirclePolynomial, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """Classify a disk-algebra polynomial: TDZ, regular, or singular.

    TDZ iff a root lies on the unit circle; the certificate is the peak
    witness family at the circle root of smallest angle.  With no root in
    the closed disk the element is regular and the boundary minimum is a
    valid global lower bound (minimum-modulus principle for zero-free
    analytic functions).  Roots strictly inside the open disk make the
    element singular without being a TDZ.  Zero-divisor flags are always
    "no": the algebra has no zero divisors.
    """
    if p.is_zero:
        raise DegenerateInputError(
            "the zero polynomial is excluded from divisor analysis"
        )
    zero_set = circle_zeros(p, tol)
    sup = sup_norm_on_circle(p, tol)
    grid_says_tdz = zero_set.residual_min <= tol.eps_norm * sup
    root_says_tdz = bool(zero_set.zeros)

    warnings = ()
    is_tdz = root_says_tdz
    if root_says_tdz != grid_says_tdz:
        # The grid residual is the arbiter when the routes disagree.
        is_tdz = grid_says_tdz
        warnings = (
            "root-location and boundary-minimum routes disagree "
            f"(roots on circle: {len(zero_set.zeros)}, residual_min: "
            f"{zero_set.residual_min:.3e}); trusting the boundary minimum",
        )

    if is_tdz:
        z0 = zero_set.zeros[0] if zero_set.zeros else None
        if z0 is None:
            # Grid overruled the root finder; recover the minimizer angle.
            roots = _all_roots(p)
            z0 = complex(min(roots, key=lambda r: abs(abs(r) - 1.0)))
            z0 = z0 / abs(z0)
        cert = WitnessSequence(
            generator=lambda n, _z=z0: peak_witness(_z, n, tol),
            side=Side.LEFT,
            description=f"peak functions ((1 + conj({_fmt(z0)}) z)/2)^n",
        )
        return Verdict(
            is_left_zero_divisor=TriState.NO,
            is_right_zero_divisor=TriState.NO,
            is_tdz=True,
            is_regular=False,
            certificate=cert,
            warnings=warnings,
        )

    roots = _all_roots(p)
    has_interior_root = bool(
        np.any(np.abs(roots) < 1.0 - tol.eps_circle)
    )
    if has_interior_root:
        return Verdict(
            is_left_zero_divisor=TriState.NO,
            is_right_zero_divisor=TriState.NO,
            is_tdz=False,
            is_regular=False,
            certificate=None,
            warnings=warnings,
        )
    lambda0 = zero_set.residual_min
    return Verdict(
        is_left_zero_divisor=TriState.NO,
        is_right_zero_divisor=TriState.NO,
        is_tdz=False,
        is_regular=True,
        certificate=RegularityBound(
            lambda0=lambda0,
            description="boundary minimum of |p|; global by the minimum-modulus principle",
        ),
        warnings=warnings,
    )


def _fmt(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"
