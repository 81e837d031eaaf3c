"""Composition operators C_phi f = f(phi(.)) on little-ell-p sequence spaces.

Self-maps of the naturals are represented by a finite exceptional prefix
followed by a shift tail ``n -> n + c`` or a divide tail
``n -> ceil(n/k)``.  Within this class every question that matters is a
finite computation: preimage counts (the Radon-Nikodym derivative of the
pushforward of counting measure), injectivity and surjectivity with
concrete witnesses, the operator norm ``sup_n |phi^{-1}(n)|^{1/p}``, and
the divisor trichotomy of C_phi with constructive annihilators.

Finite matrix sections verify C*C = M_w (w the preimage-count sequence)
exactly on a stabilized leading block: the block where no preimage
escapes past the truncation.  A shift tail loses the last ``|c|``
coordinates when c < 0 and nothing otherwise; a divide tail concentrates
k preimages per output, so only the first ``floor(N/k)`` outputs have
complete preimage sets inside a section of size N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .certificates import (
    DEFAULT_TOL,
    Annihilator,
    RegularityBound,
    Side,
    Tolerances,
    TriState,
    Verdict,
    WitnessSequence,
)
from .errors import CompositionUnrepresentableError, InputError
from .matrices import OperatorMatrix, operator_norm
from .measure import (
    CountingN,
    EventuallyPeriodic,
    MeasurableFn,
    decide_tdz_linf,
)
from .multop import MultOperatorSpec, finite_section_mult

__all__ = [
    "AdjointRNReport",
    "CompositionOperatorSpec",
    "CoordinateInjection",
    "DifferenceFunctional",
    "Divide",
    "MapProperties",
    "SelfMapN",
    "Shift",
    "adjoint_rn_check",
    "compose_maps",
    "composition_norm",
    "divisor_status",
    "finite_section_composition",
    "map_properties",
    "preimage_count",
    "rn_derivative",
    "stabilized_block",
    "tail_spread",
]


def _as_int(x, what: str) -> int:
    try:
        if x == int(x):
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{what} must be an integer, got {x!r}")


@dataclass(frozen=True)
class Shift:
    """Tail rule phi(n) = n + c for n beyond the prefix."""

    c: int

    def __init__(self, c):
        object.__setattr__(self, "c", _as_int(c, "shift"))


@dataclass(frozen=True)
class Divide:
    """Tail rule phi(n) = ceil(n / k) for n beyond the prefix."""

    k: int

    def __init__(self, k):
        k = _as_int(k, "divide")
        if k < 1:
            raise InputError("divide tail requires k >= 1")
        object.__setattr__(self, "k", k)


Tail = Union[Shift, Divide]


@dataclass(frozen=True)
class SelfMapN:
    """Total self-map of {1, 2, ...}: explicit prefix values, then a tail rule."""

    prefix_map: tuple[int, ...]
    tail: Tail

    def __init__(self, prefix_map, tail: Tail):
        pm = tuple(int(v) for v in prefix_map)
        if any(v < 1 for v in pm):
            raise InputError("map values must be >= 1")
        if not isinstance(tail, (Shift, Divide)):
            raise InputError("tail must be a Shift or Divide rule")
        if isinstance(tail, Shift) and len(pm) + 1 + tail.c < 1:
            raise InputError(
                f"shift {tail.c} sends {len(pm) + 1} below 1; the map is not total"
            )
        object.__setattr__(self, "prefix_map", pm)
        object.__setattr__(self, "tail", tail)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix_map)

    def __call__(self, n: int) -> int:
        if n < 1:
            raise InputError("arguments start at 1")
        if n <= len(self.prefix_map):
            return self.prefix_map[n - 1]
        if isinstance(self.tail, Shift):
            return n + self.tail.c
        return -(-n // self.tail.k)  # ceil division

    @property
    def identity_tail(self) -> bool:
        """True when the tail rule is n -> n (Shift 0 or Divide 1)."""
        if isinstance(self.tail, Shift):
            return self.tail.c == 0
        return self.tail.k == 1


@dataclass(frozen=True)
class CompositionOperatorSpec:
    """C_phi acting on little-ell-p; the preimage-count sup is its norm base."""

    phi: SelfMapN
    p: float

    def __init__(self, phi: SelfMapN, p):
        if not isinstance(phi, SelfMapN):
            raise InputError("phi must be a SelfMapN")
        p = float(p)
        if not (p >= 1.0):
            raise InputError("exponent p must satisfy p >= 1")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", p)


def preimage_count(phi: SelfMapN, m: int) -> int:
    """|phi^{-1}(m)|, assembled from prefix hits plus the tail formula."""
    if m < 1:
        raise InputError("values start at 1")
    count = sum(1 for v in phi.prefix_map if v == m)
    n0 = phi.prefix_len
    if isinstance(phi.tail, Shift):
        if m - phi.tail.c > n0:
            count += 1
    else:
        k = phi.tail.k
        # Tail preimages of m form the block ((m-1)k, mk] clipped to n > n0.
        count += max(0, m * k - max(n0, (m - 1) * k))
    return count


def _rn_stable_from(phi: SelfMapN) -> int:
    """Index beyond which the preimage count equals its tail constant."""
    top_image = max(phi.prefix_map, default=0)
    if isinstance(phi.tail, Shift):
        return max(top_image, phi.prefix_len + phi.tail.c, 0)
    return max(top_image, -(-phi.prefix_len // phi.tail.k))


def rn_derivative(phi: SelfMapN) -> MeasurableFn:
    """The preimage-count sequence m -> |phi^{-1}(m)| over counting measure.

    Eventually constant: 1 for a shift tail, k for a divide tail, after
    finitely many exceptional indices.
    """
    stable = _rn_stable_from(phi)
    prefix = [float(preimage_count(phi, m)) for m in range(1, stable + 1)]
    constant = 1.0 if isinstance(phi.tail, Shift) else float(phi.tail.k)
    return MeasurableFn(CountingN(), EventuallyPeriodic(prefix, (constant,)))


def composition_norm(spec: CompositionOperatorSpec) -> float:
    """||C_phi|| = (sup_m |phi^{-1}(m)|)^(1/p), exact from the representation."""
    rn = rn_derivative(spec.phi).values
    sup = max([abs(x) for x in rn.prefix] + [abs(x) for x in rn.cycle])
    if math.isinf(spec.p):
        return 1.0 if sup > 0 else 0.0
    return float(sup ** (1.0 / spec.p))


@dataclass(frozen=True)
class MapProperties:
    """Injectivity and surjectivity with concrete witnesses."""

    injective: bool
    surjective: bool
    invertible: bool
    collision: Optional[tuple[int, int]]
    missed_value: Optional[int]


def _collision_scan_bound(phi: SelfMapN) -> int:
    top_image = max(phi.prefix_map, default=0)
    n0 = phi.prefix_len
    if isinstance(phi.tail, Shift):
        return max(n0, top_image - phi.tail.c, 1)
    # Any two tail indices in one divide block collide; the first full
    # block past the prefix sits inside (n0, n0 + 2k].
    return max(n0, top_image * phi.tail.k, n0 + 2 * phi.tail.k)


def map_properties(phi: SelfMapN) -> MapProperties:
    """Finite decision of injectivity and surjectivity.

    Every collision has both indices below a computable bound (prefix
    collisions are bounded by the prefix, prefix-vs-tail by the largest
    prefix image pulled back through the tail, tail-vs-tail only for
    divide tails inside the first full block); a scan up to the bound is
    therefore complete.  Surjectivity needs checking only up to the
    index from which the tail covers everything.
    """
    seen: dict[int, int] = {}
    collision = None
    for n in range(1, _collision_scan_bound(phi) + 1):
        v = phi(n)
        if v in seen:
            collision = (seen[v], n)
            break
        seen[v] = n

    if isinstance(phi.tail, Shift):
        covered_from = max(phi.prefix_len + phi.tail.c, 0)
    else:
        covered_from = phi.prefix_len // phi.tail.k
    missed = None
    for m in range(1, covered_from + 1):
        if preimage_count(phi, m) == 0:
            missed = m
            break

    injective = collision is None
    surjective = missed is None
    return MapProperties(
        injective=injective,
        surjective=surjective,
        invertible=injective and surjective,
        collision=collision,
        missed_value=missed,
    )


@dataclass(frozen=True)
class DifferenceFunctional:
    """T g = (g(a) - g(b)) chi_1; left factor in T C_phi = 0.

    Every g in the range of C_phi satisfies g(a) = g(b) when
    phi(a) = phi(b), so T kills the range; T itself has norm sqrt(2) on
    little-ell-2 and is nonzero on every section containing a and b.
    """

    a: int
    b: int

    @property
    def min_section(self) -> int:
        return max(self.a, self.b)

    def section(self, n: int) -> OperatorMatrix:
        if n < self.min_section:
            raise InputError(f"section must have size >= {self.min_section}")
        t = np.zeros((n, n), dtype=complex)
        t[0, self.a - 1] = 1.0
        t[0, self.b - 1] = -1.0
        return OperatorMatrix(t)


@dataclass(frozen=True)
class CoordinateInjection:
    """T f = f(1) chi_m; right factor in C_phi T = 0.

    C_phi chi_m = chi_{phi^{-1}(m)} vanishes when m has no preimage, so
    the composition is zero; T has norm 1 and is supported on one entry.
    """

    m: int

    @property
    def min_section(self) -> int:
        return self.m

    def section(self, n: int) -> OperatorMatrix:
        if n < self.min_section:
            raise InputError(f"section must have size >= {self.min_section}")
        t = np.zeros((n, n), dtype=complex)
        t[self.m - 1, 0] = 1.0
        return OperatorMatrix(t)


def _inverse_map(phi: SelfMapN) -> SelfMapN:
    """The inverse of a bijective map in this class (tail must be a shift
    or a trivial divide; a genuine divide tail is never injective)."""
    if isinstance(phi.tail, Divide) and phi.tail.k > 1:
        raise InputError("a divide tail with k > 1 is not injective")
    c = 0 if isinstance(phi.tail, Divide) else phi.tail.c
    top_image = max(phi.prefix_map, default=0)
    stable = max(top_image, phi.prefix_len + c, 0)
    inverse_prefix = []
    for m in range(1, stable + 1):
        hits = [n for n in range(1, phi.prefix_len + 1) if phi(n) == m]
        if m - c > phi.prefix_len:
            hits.append(m - c)
        if len(hits) != 1:
            raise InputError("map is not bijective; no inverse exists")
        inverse_prefix.append(hits[0])
    return SelfMapN(inverse_prefix, Shift(-c))


def divisor_status(
    spec: CompositionOperatorSpec, tol: Tolerances = DEFAULT_TOL
) -> Verdict:
    """Divisor trichotomy of C_phi from the map properties.

    Right zero divisor iff phi is not injective (annihilate through a
    collision); left zero divisor iff phi is not surjective (inject into
    a missed coordinate); TDZ iff not invertible; regular otherwise,
    with C_phi inverse = C of the inverse map (an isometry, lambda0 = 1).
    """
    props = map_properties(spec.phi)
    certs = []
    if not props.injective:
        a, b = props.collision
        certs.append(
            Annihilator(
                element=DifferenceFunctional(a, b),
                side=Side.RIGHT,
                description=(
                    f"difference functional through the collision "
                    f"phi({a}) = phi({b})"
                ),
            )
        )
    if not props.surjective:
        m = props.missed_value
        certs.append(
            Annihilator(
                element=CoordinateInjection(m),
                side=Side.LEFT,
                description=f"injection into the missed coordinate {m}",
            )
        )
    if props.invertible:
        inverse = _inverse_map(spec.phi)
        return Verdict(
            is_left_zero_divisor=TriState.NO,
            is_right_zero_divisor=TriState.NO,
            is_tdz=False,
            is_regular=True,
            certificate=RegularityBound(
                lambda0=1.0,
                inverse=CompositionOperatorSpec(inverse, spec.p),
                description="bijective symbol; the composition is an isometry",
            ),
        )
    return Verdict(
        is_left_zero_divisor=(
            TriState.YES if not props.surjective else TriState.NO
        ),
        is_right_zero_divisor=(
            TriState.YES if not props.injective else TriState.NO
        ),
        is_tdz=True,
        is_regular=False,
        certificate=certs[0],
        extra_certificates=tuple(certs[1:]),
    )


def finite_section_composition(
    spec: CompositionOperatorSpec, n: int
) -> OperatorMatrix:
    """The N x N section: row i is the unit vector at phi(i), or zero when
    phi(i) falls outside the section."""
    if spec.p != 2:
        raise InputError("finite sections are defined for p = 2 only")
    if n < 1:
        raise InputError("section size must be >= 1")
    e = np.zeros((n, n), dtype=complex)
    for i in range(1, n + 1):
        j = spec.phi(i)
        if j <= n:
            e[i - 1, j - 1] = 1.0
    return OperatorMatrix(e)


def tail_spread(phi: SelfMapN) -> int:
    """How far the tail rule moves or concentrates indices: |c| or k."""
    if isinstance(phi.tail, Shift):
        return abs(phi.tail.c)
    return phi.tail.k


def stabilized_block(phi: SelfMapN, n: int) -> int:
    """Largest B such that every preimage of m <= B lies within 1..n.

    For a shift tail the only tail preimage of m is m - c, inside the
    section exactly when m <= n + min(0, c).  For a divide tail the
    preimages of m reach up to m k, inside exactly when m <= floor(n/k).
    Prefix preimages are always inside (the prefix sits below n).
    """
    if isinstance(phi.tail, Shift):
        return min(n, n + min(0, phi.tail.c))
    return n // phi.tail.k


@dataclass(frozen=True)
class AdjointRNReport:
    """Outcome of the finite-section check of C*C = M_w, w = preimage counts.

    ``identity_holds`` certifies the leading stabilized block agrees
    exactly; the two ``*_is_tdz`` flags report the operator-side verdict
    (map not invertible) and the symbol-side verdict (0 in the essential
    range of w).  They agree on the surjectivity axis only: w attains 0
    iff some value is missed iff C_phi is a left zero divisor.  A map
    that is onto but not one-one is a TDZ whose preimage counts stay
    bounded away from zero, so ``tdz_routes_agree`` can be False.
    """

    n: int
    tail_spread: int
    block: int
    max_block_difference: float
    identity_holds: bool
    section_norm: float
    formula_norm: float
    norms_agree: bool
    operator_is_tdz: bool
    rn_is_tdz: bool
    tdz_routes_agree: bool
    left_routes_agree: bool


def adjoint_rn_check(
    spec: CompositionOperatorSpec, n: int, tol: Tolerances = DEFAULT_TOL
) -> AdjointRNReport:
    """Verify C*C = M_w on the stabilized block and compare TDZ routes."""
    if spec.p != 2:
        raise InputError("the adjoint identity check requires p = 2")
    k = tail_spread(spec.phi)
    minimal = spec.phi.prefix_len + k + 1
    if n < minimal:
        raise InputError(f"section too small; need N >= {minimal}")
    c = finite_section_composition(spec, n)
    rn = rn_derivative(spec.phi)
    d = finite_section_mult(MultOperatorSpec(rn, 2), n)
    gram = c.adjoint() * c
    block = stabilized_block(spec.phi, n)
    diff = gram.entries[:block, :block] - d.entries[:block, :block]
    max_diff = float(np.max(np.abs(diff))) if block > 0 else 0.0

    section_norm = operator_norm(c)
    formula_norm = composition_norm(spec)
    operator_tdz = divisor_status(spec, tol).is_tdz
    rn_tdz = decide_tdz_linf(rn, tol).is_tdz
    left_zd = map_properties(spec.phi).surjective is False
    return AdjointRNReport(
        n=n,
        tail_spread=k,
        block=block,
        max_block_difference=max_diff,
        identity_holds=max_diff <= tol.eps_zero,
        section_norm=section_norm,
        formula_norm=formula_norm,
        norms_agree=abs(section_norm - formula_norm) <= tol.eps_norm,
        operator_is_tdz=operator_tdz,
        rn_is_tdz=rn_tdz,
        tdz_routes_agree=operator_tdz == rn_tdz,
        left_routes_agree=rn_tdz == left_zd,
    )


def compose_maps(outer: SelfMapN, inner: SelfMapN) -> SelfMapN:
    """The composite n -> outer(inner(n)), when it stays in the class.

    Closed combinations: shift after shift (tail c1 + c2), divide after
    divide (tail k1 k2), and either order with an identity tail.  A
    shift after a genuine divide (or vice versa) produces tails like
    ceil(n/k) + c that the class cannot express; those raise.
    """
    o_tail, i_tail = outer.tail, inner.tail
    o_shift = isinstance(o_tail, Shift) or outer.identity_tail
    i_shift = isinstance(i_tail, Shift) or inner.identity_tail
    o_c = 0 if outer.identity_tail else getattr(o_tail, "c", None)
    i_c = 0 if inner.identity_tail else getattr(i_tail, "c", None)

    if o_shift and i_shift:
        tail: Tail = Shift(o_c + i_c)
        start = max(inner.prefix_len, outer.prefix_len - i_c, 0)
    elif not o_shift and not i_shift:
        tail = Divide(o_tail.k * i_tail.k)
        start = max(inner.prefix_len, outer.prefix_len * i_tail.k)
    elif o_shift and o_c == 0:
        # Identity outer tail beyond its prefix: the inner tail survives.
        tail = i_tail
        bound = outer.prefix_len * i_tail.k
        start = max(inner.prefix_len, bound)
    elif i_shift and i_c == 0:
        tail = o_tail
        start = max(inner.prefix_len, outer.prefix_len)
    else:
        raise CompositionUnrepresentableError(
            "mixing a shift tail with a divide tail leaves the "
            "representation class"
        )
    prefix = [outer(inner(n)) for n in range(1, start + 1)]
    return SelfMapN(prefix, tail)
