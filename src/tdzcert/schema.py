"""JSON forms for elements, verdicts, certificates, and reports.

Complex scalars travel as ``[re, im]`` pairs (bare reals are accepted on
input).  The element forms are:

    {"algebra": "disk", "coeffs": [[re, im], ...]}
    {"algebra": "linf", "space": {"finite_atoms": [w, ...]} | "counting_n",
     "fn": {"vector": [...]} | {"prefix": [...], "cycle": [...]}
          | {"prefix": [...], "decay_c": [re, im]}}
    {"operator": "mult", "p": 2, "h": {...linf space/fn form...}}
    {"operator": "compose_lp", "p": 2,
     "phi": {"prefix": [...], "tail": {"shift": c} | {"divide": k}}}
    {"operator": "compose_hardy", "symbol": {"coeffs": [...]}, "order": N}

A request adds ``"mode": "analyze" | "certify" | "section"`` (default
analyze; section requires ``"N"``) and optional ``"tolerances"``
overrides keyed by the Tolerances field names.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

from .certificates import (
    Annihilator,
    CertificationReport,
    RegularityBound,
    Tolerances,
    TriState,
    Verdict,
    WitnessSequence,
)
from .composition import (
    CompositionOperatorSpec,
    CoordinateInjection,
    DifferenceFunctional,
    Divide,
    SelfMapN,
    Shift,
)
from .disk import CirclePolynomial
from .errors import InputError
from .hardy import PolySymbol
from .matrices import OperatorMatrix
from .measure import (
    CountingN,
    DecayingTail,
    EventuallyPeriodic,
    FiniteAtoms,
    FiniteVector,
    MeasurableFn,
)
from .multop import MultOperator, MultOperatorSpec

__all__ = [
    "AnalysisRequest",
    "complex_from_json",
    "complex_to_json",
    "parse_request",
    "serialize_certificate",
    "serialize_element",
    "serialize_matrix",
    "serialize_verdict",
]

MODES = ("analyze", "certify", "section")


def complex_from_json(x) -> complex:
    if isinstance(x, (int, float)):
        z = complex(x)
    elif (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(isinstance(v, (int, float)) for v in x)
    ):
        z = complex(x[0], x[1])
    else:
        raise InputError(f"expected a number or [re, im] pair, got {x!r}")
    # NaN, Infinity and overflowing literals such as 1e400 all land here.
    if not cmath.isfinite(z):
        raise InputError(f"numbers must be finite, got {x!r}")
    return z


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_list(xs, what: str) -> list[complex]:
    if not isinstance(xs, list):
        raise InputError(f"{what} must be a list")
    return [complex_from_json(x) for x in xs]


def _circle_poly(xs) -> CirclePolynomial:
    coeffs = _complex_list(xs, "coeffs")
    # |p| <= sum |a_k| on the circle, so a finite sum keeps every
    # evaluation there finite.
    if not math.isfinite(sum(math.hypot(c.real, c.imag) for c in coeffs)):
        raise InputError("coefficient moduli must have a finite sum")
    return CirclePolynomial(coeffs)


def _parse_p(doc: dict) -> float:
    p = doc.get("p", 2)
    if isinstance(p, str):
        if p.lower() in ("inf", "infinity"):
            return math.inf
        raise InputError(f"unrecognized exponent {p!r}")
    if not isinstance(p, (int, float)):
        raise InputError("exponent p must be a number or 'inf'")
    return float(p)


def _parse_linf_body(doc: dict) -> MeasurableFn:
    if "space" not in doc or "fn" not in doc:
        raise InputError("linf form needs 'space' and 'fn'")
    space_doc = doc["space"]
    if space_doc == "counting_n":
        space: Any = CountingN()
    elif isinstance(space_doc, dict) and "finite_atoms" in space_doc:
        space = FiniteAtoms(space_doc["finite_atoms"])
    else:
        raise InputError(
            "space must be 'counting_n' or {'finite_atoms': [w, ...]}"
        )
    fn_doc = doc["fn"]
    if not isinstance(fn_doc, dict):
        raise InputError("'fn' must be an object")
    if "vector" in fn_doc:
        values: Any = FiniteVector(_complex_list(fn_doc["vector"], "vector"))
    elif "cycle" in fn_doc:
        values = EventuallyPeriodic(
            _complex_list(fn_doc.get("prefix", []), "prefix"),
            _complex_list(fn_doc["cycle"], "cycle"),
        )
    elif "decay_c" in fn_doc:
        values = DecayingTail(
            _complex_list(fn_doc.get("prefix", []), "prefix"),
            complex_from_json(fn_doc["decay_c"]),
        )
    else:
        raise InputError("fn must carry 'vector', 'cycle', or 'decay_c'")
    return MeasurableFn(space, values)


def _parse_selfmap(doc: dict) -> SelfMapN:
    if not isinstance(doc, dict) or "tail" not in doc:
        raise InputError("phi needs 'prefix' and 'tail'")
    prefix = doc.get("prefix", [])
    if not isinstance(prefix, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in prefix
    ):
        raise InputError("phi prefix must be a list of integers")
    tail_doc = doc["tail"]
    if not isinstance(tail_doc, dict) or len(tail_doc) != 1:
        raise InputError("tail must be {'shift': c} or {'divide': k}")
    if "shift" in tail_doc:
        tail: Any = Shift(tail_doc["shift"])
    elif "divide" in tail_doc:
        tail = Divide(tail_doc["divide"])
    else:
        raise InputError("tail must be {'shift': c} or {'divide': k}")
    return SelfMapN(prefix, tail)


@dataclass(frozen=True)
class AnalysisRequest:
    """A parsed request: tagged payload, mode, and tolerance overrides."""

    tag: str
    payload: Any
    mode: str
    section_size: Optional[int]
    tol: Tolerances


def _parse_tolerances(doc: dict) -> Tolerances:
    overrides = doc.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise InputError("'tolerances' must be an object")
    known = {f.name for f in dataclasses.fields(Tolerances)}
    unknown = set(overrides) - known
    if unknown:
        raise InputError(f"unknown tolerance fields: {sorted(unknown)}")
    return Tolerances(**overrides)


def parse_request(doc: Any) -> AnalysisRequest:
    """Validate a raw JSON document into a typed request."""
    if not isinstance(doc, dict):
        raise InputError("request must be a JSON object")
    mode = doc.get("mode", "analyze")
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    section_size = None
    if mode == "section":
        if "N" not in doc or not isinstance(doc["N"], int) or doc["N"] < 1:
            raise InputError("section mode requires a positive integer 'N'")
        section_size = doc["N"]
    tol = _parse_tolerances(doc)

    if "algebra" in doc:
        tag = doc["algebra"]
        if tag == "disk":
            if "coeffs" not in doc:
                raise InputError("disk form needs 'coeffs'")
            payload: Any = _circle_poly(doc["coeffs"])
        elif tag == "linf":
            payload = _parse_linf_body(doc)
        else:
            raise InputError(f"unrecognized algebra {tag!r}")
    elif "operator" in doc:
        tag = doc["operator"]
        if tag == "mult":
            h_doc = doc.get("h")
            if not isinstance(h_doc, dict):
                raise InputError("mult form needs an 'h' object")
            payload = MultOperatorSpec(_parse_linf_body(h_doc), _parse_p(doc))
        elif tag == "compose_lp":
            payload = CompositionOperatorSpec(
                _parse_selfmap(doc.get("phi", {})), _parse_p(doc)
            )
        elif tag == "compose_hardy":
            sym = doc.get("symbol")
            if not isinstance(sym, dict) or "coeffs" not in sym:
                raise InputError("compose_hardy needs 'symbol': {'coeffs': [...]}")
            order = doc.get("order", 8)
            if not isinstance(order, int) or order < 1:
                raise InputError("'order' must be a positive integer")
            payload = (PolySymbol(_circle_poly(sym["coeffs"]), tol), order)
        else:
            raise InputError(f"unrecognized operator {tag!r}")
    else:
        raise InputError("request must carry 'algebra' or 'operator'")
    return AnalysisRequest(
        tag=tag, payload=payload, mode=mode, section_size=section_size, tol=tol
    )


def serialize_matrix(m: OperatorMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [
            [complex_to_json(m.entries[i, j]) for j in range(m.cols)]
            for i in range(m.rows)
        ],
    }


def _serialize_space(space) -> Any:
    if isinstance(space, CountingN):
        return "counting_n"
    return {"finite_atoms": list(space.weights)}


def _serialize_fn_body(f: MeasurableFn) -> dict:
    v = f.values
    if isinstance(v, FiniteVector):
        fn: dict = {"vector": [complex_to_json(x) for x in v.values]}
    elif isinstance(v, EventuallyPeriodic):
        fn = {
            "prefix": [complex_to_json(x) for x in v.prefix],
            "cycle": [complex_to_json(x) for x in v.cycle],
        }
    else:
        fn = {
            "prefix": [complex_to_json(x) for x in v.prefix],
            "decay_c": complex_to_json(v.c),
        }
    return {"space": _serialize_space(f.space), "fn": fn}


def _serialize_selfmap(phi: SelfMapN) -> dict:
    if isinstance(phi.tail, Shift):
        tail = {"shift": phi.tail.c}
    else:
        tail = {"divide": phi.tail.k}
    return {"prefix": list(phi.prefix_map), "tail": tail}


def serialize_element(x: Any) -> Any:
    """Best-effort JSON form of any element or operator this package builds."""
    if isinstance(x, CirclePolynomial):
        return {
            "algebra": "disk",
            "coeffs": [complex_to_json(c) for c in x.coeffs],
        }
    if isinstance(x, MeasurableFn):
        return {"algebra": "linf", **_serialize_fn_body(x)}
    if isinstance(x, MultOperator):
        return {"operator": "mult", "h": _serialize_fn_body(x.symbol)}
    if isinstance(x, MultOperatorSpec):
        return {"operator": "mult", "p": x.p, "h": _serialize_fn_body(x.h)}
    if isinstance(x, CompositionOperatorSpec):
        return {
            "operator": "compose_lp",
            "p": x.p,
            "phi": _serialize_selfmap(x.phi),
        }
    if isinstance(x, SelfMapN):
        return {"phi": _serialize_selfmap(x)}
    if isinstance(x, DifferenceFunctional):
        return {"difference_functional": {"a": x.a, "b": x.b}}
    if isinstance(x, CoordinateInjection):
        return {"coordinate_injection": {"m": x.m}}
    if isinstance(x, OperatorMatrix):
        return serialize_matrix(x)
    if isinstance(x, PolySymbol):
        return {
            "symbol": {"coeffs": [complex_to_json(c) for c in x.poly.coeffs]}
        }
    return repr(x)


def serialize_certificate(cert) -> Optional[dict]:
    if cert is None:
        return None
    if isinstance(cert, WitnessSequence):
        return {
            "type": "witness_sequence",
            "side": cert.side.value,
            "description": cert.description,
        }
    if isinstance(cert, Annihilator):
        return {
            "type": "annihilator",
            "side": cert.side.value,
            "description": cert.description,
            "element": serialize_element(cert.element),
        }
    if isinstance(cert, RegularityBound):
        return {
            "type": "regularity_bound",
            "lambda0": cert.lambda0,
            "description": cert.description,
            "inverse": (
                None if cert.inverse is None else serialize_element(cert.inverse)
            ),
        }
    raise InputError(f"unknown certificate {type(cert).__name__}")


def _tri(t: TriState) -> Optional[bool]:
    if t is TriState.YES:
        return True
    if t is TriState.NO:
        return False
    return None


def serialize_verdict(v: Verdict, commutative: bool) -> dict:
    """Verdict JSON: one 'zd' key for commutative algebras, sided otherwise."""
    out: dict = {}
    if commutative:
        out["zd"] = _tri(v.is_left_zero_divisor)
    else:
        out["left_zd"] = _tri(v.is_left_zero_divisor)
        out["right_zd"] = _tri(v.is_right_zero_divisor)
    out["tdz"] = v.is_tdz
    out["regular"] = v.is_regular
    out["certificate"] = serialize_certificate(v.certificate)
    if v.extra_certificates:
        out["extra_certificates"] = [
            serialize_certificate(c) for c in v.extra_certificates
        ]
    if v.warnings:
        out["warnings"] = list(v.warnings)
    return out


def serialize_report(report: Optional[CertificationReport]) -> Optional[dict]:
    return None if report is None else report.to_dict()
