"""Command-line front door: JSON in, verdicts and certificates out.

One request per invocation.  The request is a single JSON document (see
``schema``) with a ``mode`` of ``analyze`` (emit the verdict), ``certify``
(run the independent verification harness against the emitted
certificates), or ``section`` (emit finite matrix sections and their
checks).  Verdicts come from the library's decision procedures and every
certificate is checked through ``verify_certificate``; this module picks
the norm oracle and shapes the JSON.  Exit codes: 0 success, 2 invalid
input or unsupported combination, 3 when a certify run fails verification
(the verdict and report are still printed) or the harness itself fails on
a non-finite norm or a broken certificate (an error line only).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings

import numpy as np

from .certificates import TriState, verify_certificate
from .composition import (
    adjoint_rn_check,
    composition_norm,
    divisor_status,
    finite_section_composition,
    map_properties,
    rn_derivative,
)
from .disk import decide_tdz_disk, min_modulus_on_circle, sup_norm_on_circle
from .errors import CertificateMalformedError, InputError, NumericError
from .hardy import (
    composition_matrix,
    decide_composition_hardy,
    left_zero_divisor_hardy,
    right_zero_divisor_finite,
)
from .matrices import operator_norm
from .measure import (
    decide_tdz_linf,
    decide_zero_divisor_linf,
    essential_stats,
    linf_norm,
    spectrum_mult,
)
from .multop import (
    MultOperator,
    decide_tdz_mult,
    decide_zero_divisor_mult,
    finite_section_mult,
    mult_operator_norm,
)
from .schema import (
    AnalysisRequest,
    parse_request,
    serialize_certificate,
    serialize_element,
    serialize_matrix,
    serialize_report,
    serialize_verdict,
)

__all__ = ["main", "run_request"]

_NO_SECTION = {
    "disk": "section mode is not defined for the disk algebra",
    "linf": "section mode applies to operators; wrap the element as 'mult'",
}


def _verify(x, verdict, oracle, tol, min_modulus, certs=None):
    """Check ``certs`` (default: all of the verdict's) against ``x``.

    A regular verdict's certificate is a RegularityBound, checked against
    an independent min-modulus estimate; ``min_modulus()`` runs only then.
    """
    estimate = min_modulus() if verdict.is_regular else None
    return [
        verify_certificate(x, c, oracle, tol, min_modulus_estimate=estimate)
        for c in (verdict.all_certificates if certs is None else certs)
    ]


def _attach_reports(out: dict, reports) -> None:
    """First report under 'report' (None if none), the rest under 'extra_reports'."""
    out["report"] = serialize_report(reports[0]) if reports else None
    if len(reports) > 1:
        out["extra_reports"] = [serialize_report(r) for r in reports[1:]]


def _exit_code_from(reports) -> int:
    return 3 if any(not r.passes for r in reports) else 0


def _smallest_singular_value(m) -> float:
    return float(np.linalg.svd(m.entries, compute_uv=False)[-1])


def _run_disk(req: AnalysisRequest):
    p, tol = req.payload, req.tol
    verdict = decide_tdz_disk(p, tol)
    out = {"mode": req.mode, "verdict": serialize_verdict(verdict, commutative=True)}
    if req.mode == "analyze":
        return out, 0
    oracle = lambda q: sup_norm_on_circle(q, tol)
    reports = _verify(p, verdict, oracle, tol, lambda: min_modulus_on_circle(p, tol))
    _attach_reports(out, reports)
    return out, _exit_code_from(reports)


def _run_pointwise(req: AnalysisRequest, h, x, oracle, decide_tdz, decide_zd):
    """linf and mult: verdicts on the symbol ``h``, products taken with
    ``x`` (the function itself, or its multiplication operator)."""
    tol = req.tol
    tdz, zd = decide_tdz(req.payload, tol), decide_zd(req.payload, tol)
    out = {"mode": req.mode, "verdict": serialize_verdict(tdz, commutative=True)}
    out["verdict"]["zero_class"] = spectrum_mult(h, tol).zero_class.value
    if zd.certificate is not None:
        out["verdict"]["annihilator"] = serialize_certificate(zd.certificate)
    if req.mode != "certify":
        return out, 0
    reports = _verify(x, tdz, oracle, tol, lambda: essential_stats(h, tol).min_modulus)
    _attach_reports(out, reports)
    if zd.certificate is not None:
        reports.append(verify_certificate(x, zd.certificate, oracle, tol))
        out["annihilator_report"] = serialize_report(reports[-1])
    return out, _exit_code_from(reports)


def _run_linf(req: AnalysisRequest):
    f = req.payload
    return _run_pointwise(req, f, f, linf_norm, decide_tdz_linf, decide_zero_divisor_linf)


def _run_mult(req: AnalysisRequest):
    spec = req.payload
    out, code = _run_pointwise(
        req, spec.h, MultOperator(spec.h), mult_operator_norm,
        decide_tdz_mult, decide_zero_divisor_mult,
    )
    if req.mode == "section":
        section = finite_section_mult(spec, req.section_size)
        out["section"] = serialize_matrix(section)
        out["section_norm"] = operator_norm(section)
        out["ess_sup"] = linf_norm(spec.h)
    return out, code


def _run_compose_lp(req: AnalysisRequest):
    spec, tol = req.payload, req.tol
    verdict = divisor_status(spec, tol)
    out = {
        "mode": req.mode,
        "verdict": serialize_verdict(verdict, commutative=False),
        "map": dataclasses.asdict(map_properties(spec.phi)),
        "norm": composition_norm(spec),
        "rn_derivative": serialize_element(rn_derivative(spec.phi)),
    }
    if req.mode == "analyze":
        return out, 0
    if req.mode == "section":
        report = adjoint_rn_check(spec, req.section_size, tol)
        out["section"] = serialize_matrix(
            finite_section_composition(spec, req.section_size)
        )
        out["adjoint_rn"] = dataclasses.asdict(report)
        return out, 0
    # Certify on a section at p = 2 (the certificates are p-independent):
    # annihilator products are exact index bookkeeping there, and the
    # regularity bound meets the section's smallest singular value.
    n, certs = max(8, spec.phi.prefix_len + 2), verdict.all_certificates
    if not verdict.is_regular:
        n = max([n] + [c.element.min_section for c in certs])
        certs = [dataclasses.replace(c, element=c.element.section(n)) for c in certs]
    section = finite_section_composition(dataclasses.replace(spec, p=2.0), n)
    min_modulus = lambda: _smallest_singular_value(section)
    reports = _verify(section, verdict, operator_norm, tol, min_modulus, certs)
    _attach_reports(out, reports)
    return out, _exit_code_from(reports)


def _run_compose_hardy(req: AnalysisRequest):
    (symbol, order), tol = req.payload, req.tol
    caught: list[str] = []

    def build_matrix(n):
        with warnings.catch_warnings(record=True) as grabbed:
            warnings.simplefilter("always")
            m = composition_matrix(symbol, n, tol)
        caught.extend(str(w.message) for w in grabbed)
        return m

    if req.mode == "section":
        out = {"mode": req.mode, "section": serialize_matrix(build_matrix(req.section_size))}
        if caught:
            out["warnings"] = caught
        return out, 0

    verdict = decide_composition_hardy(symbol, order)
    if verdict is None:
        # The right side is open, so only the finite probe is run.
        probe = right_zero_divisor_finite(build_matrix(order), tol)
        left = left_zero_divisor_hardy(symbol) is TriState.YES
        view = {"left_zd": left, "right_zd": None, "tdz": None, "regular": None}
        view["rank_probe"] = {
            "order": order,
            "full_rank": probe is None,
            "annihilator": serialize_certificate(probe),
            "note": (
                "finite-section evidence only; rank deficiency at one "
                "order does not decide the operator-level question"
            ),
        }
        listed = ()
    else:
        view = {
            "left_zd": verdict.is_left_zero_divisor is TriState.YES,
            "right_zd": verdict.is_right_zero_divisor is TriState.YES,
            "tdz": verdict.is_tdz,
            "regular": verdict.is_regular,
        }
        # Only annihilators are listed; the identity's regularity bound
        # shows in its certify report.
        listed = () if verdict.is_regular else verdict.all_certificates
    view["certificates"] = [serialize_certificate(c) for c in listed]
    out = {"mode": req.mode, "verdict": view}
    if caught:
        out["warnings"] = caught
    if req.mode == "analyze":
        return out, 0

    reports = []
    if verdict is not None:
        c_matrix = build_matrix(order)
        min_modulus = lambda: _smallest_singular_value(c_matrix)
        reports = _verify(c_matrix, verdict, operator_norm, tol, min_modulus)
    _attach_reports(out, reports)
    if caught:
        out["warnings"] = caught  # a key set above keeps its place
    return out, _exit_code_from(reports)


_RUNNERS = {
    "disk": _run_disk,
    "linf": _run_linf,
    "mult": _run_mult,
    "compose_lp": _run_compose_lp,
    "compose_hardy": _run_compose_hardy,
}


def run_request(req: AnalysisRequest):
    """Dispatch a parsed request; returns (response dict, exit code)."""
    if req.mode == "section" and req.tag in _NO_SECTION:
        raise InputError(_NO_SECTION[req.tag])
    return _RUNNERS[req.tag](req)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdzcert",
        description=(
            "Decide zero-divisor / TDZ / regular status of finitely "
            "described Banach-algebra elements and verify the certificates."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="read the JSON request from a file")
    source.add_argument("--stdin", action="store_true", help="read the JSON request from stdin")
    parser.add_argument(
        "--tolerance-eps-norm", type=float, default=None,
        help="override the eps_norm tolerance",
    )
    parser.add_argument(
        "--n-witness", type=int, default=None,
        help="override how many witness indices the harness checks",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    args = parser.parse_args(argv)

    if args.stdin:
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
            return 2

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2

    flags = {"eps_norm": args.tolerance_eps_norm, "n_witness": args.n_witness}
    flags = {k: v for k, v in flags.items() if v is not None}
    if flags and isinstance(doc, dict) and isinstance(doc.get("tolerances", {}), dict):
        doc["tolerances"] = {**doc.get("tolerances", {}), **flags}

    try:
        response, code = run_request(parse_request(doc))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, CertificateMalformedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    print(json.dumps(response, indent=2 if args.pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
