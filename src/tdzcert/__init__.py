"""Zero divisors, topological divisors of zero, and their certificates.

Decision procedures for finitely described elements of four Banach
algebras (the disk algebra, L-infinity over atomic measure spaces,
multiplication operators on L^p, and composition operators on sequence
and truncated Hardy spaces), each emitting a machine-checkable
certificate: a norm-one witness sequence driving products to zero, an
exact annihilator, or a regularity bound with an explicit inverse.  An
independent numerical harness re-verifies every certificate.
"""

from .certificates import (
    DEFAULT_TOL,
    Annihilator,
    CertificationReport,
    RegularityBound,
    Side,
    Tolerances,
    TriState,
    Verdict,
    WitnessSample,
    WitnessSequence,
    verify_annihilator,
    verify_certificate,
    verify_regularity,
    verify_tdz_certificate,
)
from .composition import (
    AdjointRNReport,
    CompositionOperatorSpec,
    CoordinateInjection,
    DifferenceFunctional,
    Divide,
    MapProperties,
    SelfMapN,
    Shift,
    adjoint_rn_check,
    compose_maps,
    composition_norm,
    divisor_status,
    finite_section_composition,
    map_properties,
    preimage_count,
    rn_derivative,
    stabilized_block,
    tail_spread,
)
from .disk import (
    CirclePolynomial,
    CircleZeroSet,
    circle_zeros,
    decide_tdz_disk,
    factor_out_root,
    min_modulus_on_circle,
    peak_witness,
    sup_norm_on_circle,
)
from .errors import (
    CertificateMalformedError,
    CompositionUnrepresentableError,
    DegenerateInputError,
    InputError,
    InvalidSymbolError,
    NotARootError,
    NumericError,
    UnsupportedProductError,
)
from .hardy import (
    ConstantSymbolCertificates,
    PolySymbol,
    TruncatedSeries,
    compose_series,
    composition_matrix,
    constant_symbol_certificates,
    decide_composition_hardy,
    left_zero_divisor_hardy,
    monomial_right_annihilator,
    right_zero_divisor_finite,
)
from .matrices import (
    OperatorMatrix,
    StarInequalityReport,
    operator_norm,
    star_tdz_inequality_check,
)
from .measure import (
    CountingN,
    DecayingTail,
    EssentialStats,
    EventuallyPeriodic,
    FiniteAtoms,
    FiniteVector,
    MeasurableFn,
    SpectrumReport,
    ZeroClass,
    decide_tdz_linf,
    decide_zero_divisor_linf,
    essential_stats,
    indicator_fn,
    linf_norm,
    pointwise_product,
    spectrum_mult,
)
from .multop import (
    MultOperator,
    MultOperatorSpec,
    decide_tdz_mult,
    decide_zero_divisor_mult,
    finite_section_mult,
    mult_operator_norm,
)
from .schema import (
    AnalysisRequest,
    complex_from_json,
    complex_to_json,
    parse_request,
    serialize_certificate,
    serialize_element,
    serialize_matrix,
    serialize_verdict,
)

__version__ = "0.1.0"
