"""Truncated Hardy-space composition: series composition and annihilators.

Everything here lives on the degree-graded truncation of power series at
a fixed order N.  Composition by a polynomial symbol phi with
|phi| <= 1 on the circle is computed by Horner evaluation in truncated
polynomial arithmetic, and materialized as the N x N matrix whose j-th
column holds the truncated coefficients of phi^j.

The two annihilator families are exact integer-index constructions: a
constant symbol z0 gives multiplication by (z - z0) on the left of
C_phi (the product kills every value at z0) and the coefficient left
shift on the right (the composition's output is constant); the monomial
symbol z^k gives the selector of coefficient indices congruent to
1 mod k, disjoint from the composition's support at multiples of k.
Right-zero-divisor detection for arbitrary matrices is an honest
finite-dimensional rank test, not a claim about the full operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certificates import (
    DEFAULT_TOL,
    Annihilator,
    RegularityBound,
    Side,
    Tolerances,
    TriState,
    Verdict,
)
from .disk import CirclePolynomial, sup_norm_on_circle
from .errors import DegenerateInputError, InputError, InvalidSymbolError
from .matrices import OperatorMatrix

__all__ = [
    "ConstantSymbolCertificates",
    "PolySymbol",
    "TruncatedSeries",
    "compose_series",
    "composition_matrix",
    "constant_symbol_certificates",
    "decide_composition_hardy",
    "left_zero_divisor_hardy",
    "monomial_right_annihilator",
    "right_zero_divisor_finite",
]


@dataclass(frozen=True)
class TruncatedSeries:
    """First N coefficients a_0 .. a_{N-1} of a power series."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs, order: int | None = None):
        arr = [complex(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise InputError("order must be >= 1")
            if len(arr) > order:
                raise InputError(f"{len(arr)} coefficients exceed order {order}")
            arr.extend([0j] * (order - len(arr)))
        if not arr:
            raise InputError("series needs order >= 1")
        if not all(np.isfinite(c) for c in arr):
            raise InputError("series coefficients must be finite")
        object.__setattr__(self, "coeffs", tuple(arr))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs, dtype=complex)


@dataclass(frozen=True)
class PolySymbol:
    """A polynomial self-map of the closed disk, with its circle sup cached."""

    poly: CirclePolynomial
    sup_on_circle: float

    def __init__(self, poly: CirclePolynomial, tol: Tolerances = DEFAULT_TOL):
        if not isinstance(poly, CirclePolynomial):
            poly = CirclePolynomial(poly)
        sup = sup_norm_on_circle(poly, tol)
        if sup > 1.0 + tol.eps_norm:
            raise InvalidSymbolError(
                f"symbol sup on the circle is {sup:.6g} > 1; "
                "it does not map the disk into itself"
            )
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "sup_on_circle", sup)

    @property
    def is_constant(self) -> bool:
        return self.poly.degree == 0


def _truncated_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a, b)[:n]


def compose_series(f: TruncatedSeries, phi: PolySymbol, n: int) -> TruncatedSeries:
    """First ``n`` Taylor coefficients of f composed with phi.

    Horner evaluation over truncated polynomial arithmetic; exact
    whenever deg(f) * deg(phi) < n, and correct up to order n always
    (dropped terms have degree >= n).
    """
    if n < 1:
        raise InputError("truncation order must be >= 1")
    p = np.asarray(phi.poly.coeffs, dtype=complex)[:n]
    a = f.coeffs
    result = np.zeros(n, dtype=complex)
    result[0] = a[-1]
    for c in reversed(a[:-1]):
        result = _truncated_mul(result, p, n)
        result[0] += c
    return TruncatedSeries(result)


def _constant_powers(z0: complex, n: int) -> np.ndarray:
    """Powers 1, z0, ..., z0^(n-1), each one multiply past the previous.

    Shared by the constant-symbol matrix and its left annihilator so the
    two hold bit-identical values and their product cancels exactly.
    """
    p = np.empty(n, dtype=complex)
    p[0] = 1.0
    for k in range(1, n):
        p[k] = p[k - 1] * z0
    return p


def composition_matrix(
    phi: PolySymbol, n: int, tol: Tolerances = DEFAULT_TOL
) -> OperatorMatrix:
    """N x N matrix of C_phi on truncations: column j = coeffs of phi^j.

    Well conditioned for sup strictly inside the disk; a symbol touching
    the boundary still yields the exact truncated matrix but downstream
    rank tests degrade, hence the warning.
    """
    if n < 1:
        raise InputError("truncation order must be >= 1")
    if phi.sup_on_circle >= 1.0 - tol.eps_norm:
        warnings.warn(
            "symbol sup on the circle is at or near 1; "
            "composition sections may be ill conditioned",
            stacklevel=2,
        )
    p = np.asarray(phi.poly.coeffs, dtype=complex)[:n]
    trimmed = np.trim_zeros(p, "b")
    if len(trimmed) <= 1:
        # Constant symbol: C_phi f = f(z0) * 1, so only row 0 survives
        # and it holds the powers of z0 in closed form.
        m = np.zeros((n, n), dtype=complex)
        m[0, :] = _constant_powers(trimmed[0] if len(trimmed) else 0.0, n)
        return OperatorMatrix(m)
    m = np.zeros((n, n), dtype=complex)
    power = np.array([1.0 + 0j])  # phi^0
    for j in range(n):
        m[: len(power), j] = power
        power = _truncated_mul(power, p, n)
    return OperatorMatrix(m)


@dataclass(frozen=True)
class ConstantSymbolCertificates:
    """Both one-sided annihilators of C_phi for a constant symbol."""

    left: Annihilator
    right: Annihilator


def constant_symbol_certificates(z0: complex, n: int) -> ConstantSymbolCertificates:
    """Exact annihilators of C_phi when phi is the constant z0, |z0| < 1.

    Left: T_L has column j = coefficients of z^(j+1) - z0^(j+1), an
    N x (N-1) matrix whose columns span {f of degree < N : f(z0) = 0};
    C_phi T_L = 0 because each column vanishes at z0.  The power basis
    (rather than plain multiplication by z - z0) keeps the verifying
    product exact: every nonzero entry meets only the factor 1.0 in the
    matrix product, so cancellation happens without rounding.  Right:
    T_R = coefficient left shift; T_R C_phi = 0 because C_phi f is
    constant.  Both products are exactly zero matrices.
    """
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise InvalidSymbolError(
            f"constant symbol must map into the open disk; |z0| = {abs(z0):.6g}"
        )
    if n < 2:
        raise InputError("order must be >= 2")
    powers = _constant_powers(z0, n)
    t_left = np.zeros((n, n - 1), dtype=complex)
    for j in range(n - 1):
        t_left[0, j] = -powers[j + 1]
        t_left[j + 1, j] = 1.0
    t_right = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        t_right[i, i + 1] = 1.0
    return ConstantSymbolCertificates(
        left=Annihilator(
            element=OperatorMatrix(t_left),
            side=Side.LEFT,
            description=f"basis of polynomials vanishing at {z0}, degree <= {n - 1}",
        ),
        right=Annihilator(
            element=OperatorMatrix(t_right),
            side=Side.RIGHT,
            description="coefficient left shift; kills constants",
        ),
    )


def monomial_right_annihilator(k: int, n: int) -> Annihilator:
    """Selector of coefficient indices congruent to 1 mod k; kills C_{z^k}.

    C_{z^k} supports output coefficients only at multiples of k, and
    1 mod k never is one for k >= 2; the product T C is exactly zero
    while T fixes z, so T is nonzero.
    """
    if k < 2:
        raise InputError("k >= 2 required; the identity symbol has no annihilator")
    if n <= k:
        raise InputError("order must exceed k")
    diag = np.array(
        [1.0 if i % k == 1 else 0.0 for i in range(n)], dtype=complex
    )
    return Annihilator(
        element=OperatorMatrix.diagonal(diag),
        side=Side.RIGHT,
        description=f"selector of coefficient indices = 1 mod {k}",
    )


def right_zero_divisor_finite(
    t: OperatorMatrix, tol: Tolerances = DEFAULT_TOL
) -> Annihilator | None:
    """Rank test at fixed dimension: an annihilator S with S T ~ 0, or None.

    If the smallest singular value drops below eps_norm times the
    largest, the left singular vector f at the small value is a unit
    vector nearly orthogonal to the range, and S = e_0 f* satisfies
    ||S T|| <= eps_norm ||T|| with ||S|| = 1.  A full-rank section
    admits no annihilator at this dimension; the infinite-dimensional
    question is not decided here.
    """
    if t.rows != t.cols:
        raise InputError("rank test requires a square matrix")
    u, s, _ = np.linalg.svd(t.entries)
    if s[0] <= tol.eps_zero:
        raise DegenerateInputError(
            "the zero operator is excluded from divisor analysis"
        )
    if s[-1] >= tol.eps_norm * s[0]:
        return None
    f = u[:, -1]
    annis = np.zeros_like(t.entries)
    annis[0, :] = np.conjugate(f)
    return Annihilator(
        element=OperatorMatrix(annis),
        side=Side.RIGHT,
        description=(
            "rank-one range annihilator from the smallest singular direction"
        ),
    )


def left_zero_divisor_hardy(phi: PolySymbol) -> TriState:
    """Whether C_phi is a left zero divisor: exactly when phi is constant.

    A non-constant symbol has an open image, so C_phi f = 0 forces f = 0.
    """
    return TriState.YES if phi.poly.degree == 0 else TriState.NO


def decide_composition_hardy(phi: PolySymbol, order: int) -> Verdict | None:
    """Divisor status of C_phi at truncation ``order``, decided by the symbol.

    A constant symbol gives a zero divisor on both sides (left and right
    annihilators as certificates); the identity is regular (an isometry,
    lambda0 = 1); a monomial z^k with k >= 2 is a right zero divisor only.
    Any other symbol returns None: its left side is still
    ``left_zero_divisor_hardy`` but its right side is open, and only the
    finite rank probe ``right_zero_divisor_finite`` speaks to it.
    """
    k = phi.poly.degree
    if k == 0:
        pair = constant_symbol_certificates(phi.poly.coeffs[0], order)
        certs = (pair.left, pair.right)
    elif phi.poly.coeffs != (0,) * k + (1,):
        return None
    elif k == 1:
        return Verdict(
            TriState.NO, TriState.NO, is_tdz=False, is_regular=True,
            certificate=RegularityBound(lambda0=1.0, description="identity symbol"),
        )
    else:
        certs = (monomial_right_annihilator(k, order),)
    return Verdict(
        left_zero_divisor_hardy(phi), TriState.YES, is_tdz=True, is_regular=False,
        certificate=certs[0], extra_certificates=certs[1:],
    )
