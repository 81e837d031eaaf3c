"""L-infinity elements over atomic measure spaces and their classification.

Three exact representations cover the phenomena that matter: a finite
vector on finitely many weighted atoms (zero attained or not), an
eventually periodic sequence on counting measure (finite value set), and
a decaying tail c/n (zero is a limit of values but never attained).  The
distinction between a zero divisor (zero attained on an atom) and a TDZ
that is not a zero divisor (zero only a limit) needs the infinite space;
it is invisible on finite ones.

All decisions reduce to finite inspections of the represented values.
Certificates: an annihilator indicator for zero divisors, the indicator
family of E_n = {x : |f(x)| < 1/n} for TDZs, and a pointwise lower bound
with exact reciprocal inverse for regular elements.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

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
from .errors import DegenerateInputError, InputError, UnsupportedProductError

__all__ = [
    "CountingN",
    "DecayingTail",
    "EssentialStats",
    "EventuallyPeriodic",
    "FiniteAtoms",
    "FiniteVector",
    "MeasurableFn",
    "SpectrumReport",
    "ZeroClass",
    "decide_tdz_linf",
    "decide_zero_divisor_linf",
    "essential_stats",
    "indicator_fn",
    "linf_norm",
    "pointwise_product",
    "spectrum_mult",
]


@dataclass(frozen=True)
class FiniteAtoms:
    """Finitely many atoms with positive weights; atom ids run 1..m."""

    weights: tuple[float, ...]

    def __init__(self, weights):
        w = tuple(float(x) for x in weights)
        if not w:
            raise InputError("a finite atomic space needs at least one atom")
        if not all(0 < x < math.inf for x in w):
            raise InputError("atom weights must be positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def atom_count(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class CountingN:
    """Counting measure on the natural numbers 1, 2, 3, ..."""


AtomicSpace = Union[FiniteAtoms, CountingN]


@dataclass(frozen=True)
class FiniteVector:
    """One complex value per atom of a FiniteAtoms space."""

    values: tuple[complex, ...]

    def __init__(self, values):
        v = tuple(complex(x) for x in values)
        if not v:
            raise InputError("finite vector needs at least one value")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class EventuallyPeriodic:
    """Sequence on CountingN: prefix of length N, then cycle repeats.

    Value at n > N is ``cycle[(n - N - 1) % len(cycle)]``.
    """

    prefix: tuple[complex, ...]
    cycle: tuple[complex, ...]

    def __init__(self, prefix, cycle):
        c = tuple(complex(x) for x in cycle)
        if not c:
            raise InputError("cycle must be nonempty")
        object.__setattr__(self, "prefix", tuple(complex(x) for x in prefix))
        object.__setattr__(self, "cycle", c)

    @property
    def is_eventually_constant(self) -> bool:
        return all(x == self.cycle[0] for x in self.cycle)


@dataclass(frozen=True)
class DecayingTail:
    """Sequence on CountingN: prefix of length N, then c/n for n > N."""

    prefix: tuple[complex, ...]
    c: complex

    def __init__(self, prefix, c):
        c = complex(c)
        if c == 0:
            raise InputError(
                "decaying tail requires nonzero c; use a cycle of zeros instead"
            )
        object.__setattr__(self, "prefix", tuple(complex(x) for x in prefix))
        object.__setattr__(self, "c", c)


Representation = Union[FiniteVector, EventuallyPeriodic, DecayingTail]


def _stored_values(v: Representation) -> tuple[complex, ...]:
    """Every value a representation stores; a decaying tail stores its prefix."""
    if isinstance(v, FiniteVector):
        return v.values
    if isinstance(v, EventuallyPeriodic):
        return v.prefix + v.cycle
    return v.prefix


def _map_values(v: Union[FiniteVector, EventuallyPeriodic], fn):
    """The same representation with ``fn`` applied to every stored value."""
    if isinstance(v, FiniteVector):
        return FiniteVector([fn(x) for x in v.values])
    return EventuallyPeriodic([fn(x) for x in v.prefix], [fn(x) for x in v.cycle])


@dataclass(frozen=True)
class MeasurableFn:
    """An L-infinity element: an atomic space plus an exact representation."""

    space: AtomicSpace
    values: Representation

    def __post_init__(self):
        if isinstance(self.space, FiniteAtoms):
            if not isinstance(self.values, FiniteVector):
                raise InputError(
                    "finite atomic spaces take FiniteVector representations"
                )
            if len(self.values.values) != self.space.atom_count:
                raise InputError(
                    f"vector length {len(self.values.values)} != atom count "
                    f"{self.space.atom_count}"
                )
        elif isinstance(self.space, CountingN):
            if isinstance(self.values, FiniteVector):
                raise InputError(
                    "counting measure takes EventuallyPeriodic or DecayingTail"
                )
        else:
            raise InputError(f"unknown space {type(self.space).__name__}")

    def value_at(self, n: int) -> complex:
        """Value on atom ``n`` (1-based)."""
        if n < 1:
            raise InputError("atom ids start at 1")
        v = self.values
        if isinstance(v, FiniteVector):
            if n > len(v.values):
                raise InputError(f"atom {n} outside the space")
            return v.values[n - 1]
        if n <= len(v.prefix):
            return v.prefix[n - 1]
        if isinstance(v, EventuallyPeriodic):
            return v.cycle[(n - len(v.prefix) - 1) % len(v.cycle)]
        return v.c / n

    @property
    def is_identically_zero(self) -> bool:
        # Decaying tails have c != 0, so they never vanish identically.
        v = self.values
        return not isinstance(v, DecayingTail) and all(x == 0 for x in _stored_values(v))

    def __mul__(self, other: "MeasurableFn") -> "MeasurableFn":
        if not isinstance(other, MeasurableFn):
            return NotImplemented
        return pointwise_product(self, other)


def indicator_fn(space: AtomicSpace, atoms) -> MeasurableFn:
    """Indicator of a finite atom set, as a MeasurableFn on ``space``."""
    atom_set = set(int(a) for a in atoms)
    if not atom_set:
        raise InputError("indicator of the empty set is the zero element")
    if any(a < 1 for a in atom_set):
        raise InputError("atom ids start at 1")
    if isinstance(space, FiniteAtoms):
        if max(atom_set) > space.atom_count:
            raise InputError("atom id outside the space")
        vec = [1.0 if i + 1 in atom_set else 0.0 for i in range(space.atom_count)]
        return MeasurableFn(space, FiniteVector(vec))
    top = max(atom_set)
    prefix = [1.0 if i + 1 in atom_set else 0.0 for i in range(top)]
    return MeasurableFn(space, EventuallyPeriodic(prefix, (0.0,)))


@dataclass(frozen=True)
class EssentialStats:
    """Summary of the essential range queries that drive every verdict."""

    ess_sup: float
    attains_zero: bool
    zero_in_ess_range: bool
    min_modulus: float
    min_attained: bool


def essential_stats(f: MeasurableFn, tol: Tolerances = DEFAULT_TOL) -> EssentialStats:
    """Essential supremum, zero attainment, and minimum modulus of ``f``.

    The stored values are attained on positive-measure sets; a decaying
    tail adds the supremum |c|/(N+1) and the infimum limit 0 on its own.
    """
    moduli = [abs(x) for x in _stored_values(f.values)]
    v = f.values
    if isinstance(v, DecayingTail):
        tail_sup = abs(v.c) / (len(v.prefix) + 1)
        ess_sup = max(moduli + [tail_sup])
        attains = any(m <= tol.eps_zero for m in moduli)
        return EssentialStats(
            ess_sup=ess_sup,
            attains_zero=attains,
            zero_in_ess_range=True,  # the tail accumulates at 0
            min_modulus=0.0,
            min_attained=attains,
        )
    ess_sup = max(moduli)
    attains = any(m <= tol.eps_zero for m in moduli)
    return EssentialStats(
        ess_sup=ess_sup,
        attains_zero=attains,
        zero_in_ess_range=attains,
        min_modulus=min(moduli),
        min_attained=True,
    )


def linf_norm(f: MeasurableFn, tol: Tolerances = DEFAULT_TOL) -> float:
    """The essential supremum; the norm oracle for this algebra."""
    return essential_stats(f, tol).ess_sup


def _zero_set_indicator(f: MeasurableFn, tol: Tolerances) -> MeasurableFn:
    """Indicator of {x : f(x) = 0}; exactly annihilates ``f``."""
    v = f.values
    on_zero = lambda x: 1.0 if abs(x) <= tol.eps_zero else 0.0
    if isinstance(v, DecayingTail):
        # Decaying tails vanish only on prefix atoms.
        v = EventuallyPeriodic([on_zero(x) for x in v.prefix], (0.0,))
        return MeasurableFn(f.space, v)
    return MeasurableFn(f.space, _map_values(v, on_zero))


def _sublevel_indicator(f: MeasurableFn, n: int, tol: Tolerances) -> MeasurableFn:
    """Indicator of E_n = {x : |f(x)| < 1/n}, exact for every representation."""
    if n < 1:
        raise InputError("witness index must be >= 1")
    level = 1.0 / n
    below = lambda x: 1.0 if abs(x) < level else 0.0
    v = f.values
    if isinstance(v, DecayingTail):
        # Tail: |c|/m < 1/n iff m > |c| n; cutoff at floor(|c| n) is exact.
        cut = max(len(v.prefix), math.floor(abs(v.c) * n))
        pre = [below(f.value_at(m)) for m in range(1, cut + 1)]
        fn = MeasurableFn(f.space, EventuallyPeriodic(pre, (1.0,)))
    else:
        fn = MeasurableFn(f.space, _map_values(v, below))
    if fn.is_identically_zero:
        raise DegenerateInputError(f"E_{n} is empty; the element is not a TDZ")
    return fn


def decide_zero_divisor_linf(
    f: MeasurableFn, tol: Tolerances = DEFAULT_TOL
) -> Verdict:
    """Zero divisor iff zero is attained on an atom (all atoms have positive
    measure, so attainment is exactly positive measure of the zero set).

    The certificate is the indicator of the full zero set; the product
    with ``f`` vanishes identically.  The algebra is commutative, so the
    verdict is two-sided.
    """
    if f.is_identically_zero:
        raise DegenerateInputError(
            "the zero element is excluded from divisor analysis"
        )
    stats = essential_stats(f, tol)
    if stats.attains_zero:
        ann = Annihilator(
            element=_zero_set_indicator(f, tol),
            side=Side.LEFT,
            description="indicator of {f = 0}; two-sided by commutativity",
        )
        return Verdict(
            is_left_zero_divisor=TriState.YES,
            is_right_zero_divisor=TriState.YES,
            is_tdz=True,
            is_regular=False,
            certificate=ann,
        )
    return Verdict(
        is_left_zero_divisor=TriState.NO,
        is_right_zero_divisor=TriState.NO,
        is_tdz=stats.zero_in_ess_range,
        is_regular=not stats.zero_in_ess_range,
        certificate=None,
    )


def decide_tdz_linf(f: MeasurableFn, tol: Tolerances = DEFAULT_TOL) -> Verdict:
    """TDZ iff zero lies in the essential range; regular otherwise.

    TDZ certificate: indicators of E_n = {|f| < 1/n}, each of norm one,
    with product norms sup_{E_n} |f| < 1/n.  Regular certificate: the
    pointwise bound lambda0 = min |f| together with the exact reciprocal
    as inverse.
    """
    if f.is_identically_zero:
        raise DegenerateInputError(
            "the zero element is excluded from divisor analysis"
        )
    stats = essential_stats(f, tol)
    zd = TriState.YES if stats.attains_zero else TriState.NO
    if stats.zero_in_ess_range:
        cert = WitnessSequence(
            generator=lambda n: _sublevel_indicator(f, n, tol),
            side=Side.LEFT,
            description="indicators of the sublevel sets E_n = {|f| < 1/n}",
        )
        return Verdict(
            is_left_zero_divisor=zd,
            is_right_zero_divisor=zd,
            is_tdz=True,
            is_regular=False,
            certificate=cert,
        )
    # A decaying tail always has 0 in its essential range, so it is not here.
    inverse = MeasurableFn(f.space, _map_values(f.values, lambda x: 1 / x))
    return Verdict(
        is_left_zero_divisor=TriState.NO,
        is_right_zero_divisor=TriState.NO,
        is_tdz=False,
        is_regular=True,
        certificate=RegularityBound(
            lambda0=stats.min_modulus,
            inverse=inverse,
            description="pointwise bound |f| >= lambda0 with exact reciprocal",
        ),
    )


class ZeroClass(enum.Enum):
    NOT_IN_SPECTRUM = "not_in_spectrum"
    POINT_SPECTRUM = "point_spectrum"
    CONTINUOUS_SPECTRUM = "continuous_spectrum"


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the multiplication operator induced by a sequence.

    ``sigma`` lists the finitely many values explicitly represented; a
    decaying tail additionally contributes the described infinite family
    c/n (``tail_description``) and its limit 0 (``zero_is_limit``).
    Every attained value sits on an atom of positive measure, hence is an
    eigenvalue; ``sigma_p`` therefore lists the same finite part.
    """

    sigma: tuple[complex, ...]
    zero_is_limit: bool
    sigma_p: tuple[complex, ...]
    zero_class: ZeroClass
    tail_description: str = ""


def _distinct(values) -> tuple[complex, ...]:
    out: list[complex] = []
    for x in values:
        if not any(x == y for y in out):
            out.append(x)
    return tuple(out)


def spectrum_mult(h: MeasurableFn, tol: Tolerances = DEFAULT_TOL) -> SpectrumReport:
    """Spectrum = essential range; point spectrum = attained values."""
    stats = essential_stats(h, tol)
    v = h.values
    attained = _distinct(_stored_values(v))
    tail = ""
    if isinstance(v, DecayingTail):
        tail = (
            f"plus the attained tail values {_fmt_c(v.c)}/n "
            f"for n > {len(v.prefix)}"
        )
    if stats.attains_zero:
        zero_class = ZeroClass.POINT_SPECTRUM
    elif stats.zero_in_ess_range:
        zero_class = ZeroClass.CONTINUOUS_SPECTRUM
    else:
        zero_class = ZeroClass.NOT_IN_SPECTRUM
    sigma = attained
    if stats.zero_in_ess_range and not any(x == 0 for x in attained):
        if stats.attains_zero or isinstance(v, DecayingTail):
            sigma = attained + (0j,)
    return SpectrumReport(
        sigma=sigma,
        zero_is_limit=isinstance(v, DecayingTail),
        sigma_p=attained,
        zero_class=zero_class,
        tail_description=tail,
    )


def _fmt_c(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"({z.real:g}{z.imag:+g}j)"


def _same_space(a: AtomicSpace, b: AtomicSpace) -> bool:
    return a == b


def pointwise_product(
    f: MeasurableFn, g: MeasurableFn, tol: Tolerances = DEFAULT_TOL
) -> MeasurableFn:
    """Exact pointwise product within the representation family.

    Closed combinations: vector x vector, periodic x periodic (prefix to
    the max, cycle to the lcm), and decaying tail x eventually-constant
    periodic (the tail shape c/n survives scaling by a constant).  Any
    other pairing leaves the family and is rejected, never approximated.
    """
    if not _same_space(f.space, g.space):
        raise InputError("pointwise product requires the same space")
    fv, gv = f.values, g.values
    if isinstance(fv, FiniteVector) and isinstance(gv, FiniteVector):
        vals = [a * b for a, b in zip(fv.values, gv.values)]
        return MeasurableFn(f.space, FiniteVector(vals))
    if isinstance(fv, EventuallyPeriodic) and isinstance(gv, EventuallyPeriodic):
        n = max(len(fv.prefix), len(gv.prefix))
        l = math.lcm(len(fv.cycle), len(gv.cycle))
        pre = [f.value_at(m) * g.value_at(m) for m in range(1, n + 1)]
        cyc = [f.value_at(n + 1 + j) * g.value_at(n + 1 + j) for j in range(l)]
        return MeasurableFn(f.space, EventuallyPeriodic(pre, cyc))
    if isinstance(gv, DecayingTail):
        # Normalize so the tail factor comes first; the product commutes.
        f, g = g, f
        fv, gv = gv, fv
    if isinstance(fv, DecayingTail) and isinstance(gv, EventuallyPeriodic):
        if not gv.is_eventually_constant:
            raise UnsupportedProductError(
                "decaying tail times a non-constant cycle leaves the "
                "representation family"
            )
        k = gv.cycle[0]
        n = max(len(fv.prefix), len(gv.prefix))
        pre = [f.value_at(m) * g.value_at(m) for m in range(1, n + 1)]
        if k == 0:
            return MeasurableFn(f.space, EventuallyPeriodic(pre, (0.0,)))
        return MeasurableFn(f.space, DecayingTail(pre, fv.c * k))
    raise UnsupportedProductError(
        f"product of {type(fv).__name__} and {type(gv).__name__} is not "
        "representable"
    )
