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
overrides keyed by the Tolerances field names.  ``"N"`` and ``"order"``
are at most ``MAX_SECTION``.

``dumps`` is the one place a response becomes JSON text.  A response may
carry an ``OperatorMatrix`` as a top-level value (the ``"section"`` of
section mode); it is written as ``serialize_matrix`` would give it, so
the text equals ``json.dumps`` of the fully serialized response.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np

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
    written_run,
)
from .multop import MultOperator, MultOperatorSpec

__all__ = [
    "AnalysisRequest",
    "complex_from_json",
    "complex_to_json",
    "dumps",
    "parse_request",
    "serialize_certificate",
    "serialize_element",
    "serialize_matrix",
    "serialize_verdict",
]

MODES = ("analyze", "certify", "section")
# Largest section size "N" and Hardy "order": both build dense N x N
# complex matrices.  At 2000 the costliest request measured, a Hardy
# certify of a constant symbol, takes about 17 s and 1.5 GB on a 2-vCPU
# VM, and memory grows as N^2.
MAX_SECTION = 2000


def _is_a(x, types) -> bool:
    """isinstance that refuses JSON true/false, which Python counts as ints."""
    return isinstance(x, types) and not isinstance(x, bool)


def complex_from_json(x) -> complex:
    if _is_a(x, (int, float)):
        z = complex(x)
    elif (
        isinstance(x, (list, tuple))
        and len(x) == 2
        and all(_is_a(v, (int, float)) for v in x)
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
    if not _is_a(p, (int, float)):
        raise InputError("exponent p must be a number or 'inf'")
    return float(p)


def _parse_linf_body(doc: dict) -> MeasurableFn:
    if "space" not in doc or "fn" not in doc:
        raise InputError("linf form needs 'space' and 'fn'")
    space_doc = doc["space"]
    if space_doc == "counting_n":
        space: Any = CountingN()
    elif isinstance(space_doc, dict) and "finite_atoms" in space_doc:
        weights = space_doc["finite_atoms"]
        if not isinstance(weights, list) or not all(
            _is_a(w, (int, float)) for w in weights
        ):
            raise InputError("finite_atoms must be a list of numbers")
        space = FiniteAtoms(weights)
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
    if not isinstance(prefix, list) or not all(_is_a(v, int) for v in prefix):
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
        if not _is_a(doc.get("N"), int) or doc["N"] < 1:
            raise InputError("section mode requires a positive integer 'N'")
        if doc["N"] > MAX_SECTION:
            raise InputError(f"'N' must be at most {MAX_SECTION}")
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
            if not _is_a(order, int) or order < 1:
                raise InputError("'order' must be a positive integer")
            if order > MAX_SECTION:
                raise InputError(f"'order' must be at most {MAX_SECTION}")
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
        # OperatorMatrix stores a C-contiguous complex128 copy, so the
        # float view pairs each entry's real and imaginary parts.
        "entries": m.entries.view(np.float64).reshape(m.rows, m.cols, 2).tolist(),
    }


_ZERO_ENTRY = "[0.0, 0.0], "


def _matrix_text(m: OperatorMatrix) -> str:
    """``json.dumps(serialize_matrix(m))``, written row by row from runs of
    zero entries when fewer than 1 in 8 entries are nonzero."""
    rows, cols = m.rows, m.cols
    # Only +0.0 has all bits clear; -0.0 (from adjoints) is written out.
    bits = m.entries.view(np.uint64)
    nonzero = (bits[:, 0::2] | bits[:, 1::2]) != 0
    if 8 * np.count_nonzero(nonzero) >= rows * cols:
        return json.dumps(serialize_matrix(m))
    r_idx, c_idx = np.nonzero(nonzero)
    values = m.entries.view(np.float64).reshape(rows, cols, 2)[r_idx, c_idx].tolist()
    starts = np.searchsorted(r_idx, np.arange(rows + 1)).tolist()
    c_idx = c_idx.tolist()
    lines = []
    for i in range(rows):
        parts, prev = [], 0
        for k in range(starts[i], starts[i + 1]):
            j = c_idx[k]
            parts.append(_ZERO_ENTRY * (j - prev))
            parts.append("[%r, %r], " % (values[k][0], values[k][1]))
            prev = j + 1
        parts.append(_ZERO_ENTRY * (cols - prev))
        lines.append("[" + "".join(parts)[:-2] + "]")
    return '{"rows": %d, "cols": %d, "entries": [%s]}' % (rows, cols, ", ".join(lines))


def dumps(response: dict, pretty: bool = False) -> str:
    """JSON text of a response, indented by 2 when ``pretty``.

    Equal, byte for byte, to ``json.dumps`` of the response with each
    top-level ``OperatorMatrix`` value replaced by ``serialize_matrix`` of
    it; without such a value it is that ``json.dumps`` call.
    """
    if not any(isinstance(v, OperatorMatrix) for v in response.values()):
        return json.dumps(response, indent=2 if pretty else None)
    text = "{%s}" % ", ".join(
        json.dumps(k) + ": " + (_matrix_text(v) if isinstance(v, OperatorMatrix) else json.dumps(v))
        for k, v in response.items()
    )
    return json.dumps(json.loads(text), indent=2) if pretty else text


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
            "prefix": [complex_to_json(x) for x in (*v.prefix, *written_run(v, 0j))],
            "cycle": [complex_to_json(x) for x in v.cycle],
        }
    else:
        fn = {
            "prefix": [complex_to_json(x) for x in (*v.prefix, *written_run(v, 0j))],
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
