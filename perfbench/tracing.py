"""Per-layer tracing of ``tdzcert`` from outside the package.

``Tracer.install`` replaces each layer's public functions with wrappers
that record one span per call: name, start, end, parent span and request
id.  A function imported by name into another module (``cli.py`` and
``hardy.py`` do this) is replaced wherever the same function object is
bound, so calls through either name are seen.  The product methods and
``PolySymbol.__init__`` are wrapped on their classes, and ``cli``'s JSON
encoder through the ``json`` name it imported.  ``uninstall`` restores
every original.

A layer is a module of ``src/tdzcert``.  A span's self time is its
duration minus the durations of its direct children; a group's time
counts each outermost call in the group once, children included.
"""

from __future__ import annotations

import json
import sys
import time
import types

LAYERS = ("disk", "certificates", "measure", "multop", "composition", "hardy", "matrices", "schema", "cli")

# Called once per matrix entry or scalar: wrapping them would trace the
# tracer.  Their time counts toward the calling function.
_UNWRAPPED = {"complex_to_json", "complex_from_json"}

_METHODS = (
    ("disk", "CirclePolynomial", "__mul__"),
    ("measure", "MeasurableFn", "__mul__"),
    ("matrices", "OperatorMatrix", "__mul__"),
    ("multop", "MultOperator", "__mul__"),
    ("hardy", "PolySymbol", "__init__"),
)


def _witness_atoms(args, out):
    values = out.values
    return len(getattr(values, "prefix", getattr(values, "values", ())))


# Counts read off arguments and return values, stored on the span.
_HOOKS = {
    "disk.sup_norm_on_circle": lambda args, out: args[0].degree,
    "disk.min_modulus_on_circle": lambda args, out: args[0].degree,
    "certificates.verify_tdz_certificate": lambda args, out: (len(out.samples), out.passes),
    "certificates.verify_annihilator": lambda args, out: (len(out.samples), out.passes),
    "certificates.verify_regularity": lambda args, out: (len(out.samples), out.passes),
    "matrices.operator_norm": lambda args, out: max(args[0].entries.shape),
    "schema.serialize_matrix": lambda args, out: args[0].rows * args[0].cols,
    "measure._sublevel_indicator": _witness_atoms,
}

_ORACLES = {"disk.sup_norm_on_circle", "disk.min_modulus_on_circle"}
_VERIFIERS = {
    "certificates.verify_tdz_certificate",
    "certificates.verify_annihilator",
    "certificates.verify_regularity",
}

# Group time metrics: each outermost call of a listed span, children included.
GROUPS = {
    "disk.oracle_s": _ORACLES,
    "disk.decide_s": {"disk.decide_tdz_disk", "disk.circle_zeros"},
    "disk.witness_s": {"disk.peak_witness"},
    "measure.decide_s": {"measure.decide_tdz_linf", "measure.decide_zero_divisor_linf", "measure.spectrum_mult"},
    "measure.norm_s": {"measure.linf_norm"},
    "measure.product_s": {"measure.pointwise_product", "measure.MeasurableFn.__mul__"},
    "measure.witness_s": {"measure._sublevel_indicator"},
    "matrices.norm_s": {"matrices.operator_norm"},
    "matrices.product_s": {"matrices.OperatorMatrix.__mul__"},
    "schema.parse_s": {"schema.parse_request"},
    "schema.serialize_s": {
        "schema.serialize_matrix",
        "schema.serialize_verdict",
        "schema.serialize_certificate",
        "schema.serialize_element",
        "schema.serialize_report",
    },
    "cli.json_encode_s": {"json.dumps"},
    "multop.decide_s": {"multop.decide_tdz_mult", "multop.decide_zero_divisor_mult", "multop.mult_operator_norm"},
    "multop.section_s": {"multop.finite_section_mult"},
    "composition.decide_s": {
        "composition.divisor_status",
        "composition.map_properties",
        "composition.composition_norm",
        "composition.rn_derivative",
        "composition.preimage_count",
    },
    "composition.section_s": {"composition.finite_section_composition"},
    "composition.adjoint_check_s": {"composition.adjoint_rn_check"},
    "hardy.symbol_s": {"hardy.PolySymbol.__init__"},
    "hardy.matrix_s": {"hardy.composition_matrix"},
    "hardy.rank_probe_s": {"hardy.right_zero_divisor_finite"},
}


def _self_metric(layer: str) -> str:
    return "certificates.harness_self_s" if layer == "certificates" else f"{layer}.self_s"


# Every per-layer metric the traced run reports, in output order.
METRICS = (
    [_self_metric(layer) for layer in LAYERS]
    + list(GROUPS)
    + [
        "disk.oracle_calls",
        "disk.oracle_max_degree",
        "certificates.samples",
        "certificates.reports",
        "certificates.reports_failed",
        "measure.product_calls",
        "measure.witness_prefix_atoms",
        "matrices.norm_calls",
        "matrices.norm_max_dim",
        "matrices.norm_errors",
        "schema.matrix_entries",
        "schema.response_bytes",
        "cli.undocumented_exits",
    ]
    + [f"{layer}.errors" for layer in LAYERS]
    + ["trace.overhead_ratio"]
)


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.request = None
        self.error = None  # (exception, span index) of the newest exception seen
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, _HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                stack.pop()
                # The innermost span sees a new exception first.
                if self.error is None or self.error[0] is not exc:
                    self.error = (exc, idx)
                spans[idx] = (name, t0, t1, parent, self.request, None)
                raise
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.request, hook(args, out) if hook else None)
            return out

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "tdzcert" or name.startswith("tdzcert.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"tdzcert.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in _UNWRAPPED
                ):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        measure = sys.modules["tdzcert.measure"]
        wrapped[measure._sublevel_indicator] = self._wrap("measure._sublevel_indicator", measure._sublevel_indicator)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for layer, cls_name, method in _METHODS:
            cls = getattr(sys.modules[f"tdzcert.{layer}"], cls_name)
            self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        cli = sys.modules["tdzcert.cli"]
        encoder = types.SimpleNamespace(
            loads=json.loads, dumps=self._wrap("json.dumps", json.dumps), JSONDecodeError=json.JSONDecodeError
        )
        self._patch(cli, "json", encoder)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, request, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, req, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, t0, t1, parent, req, info]) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "schema.response_bytes":
        return "bytes"
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "count"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list) -> dict:
    """Per-layer times and counts from a finished trace."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    out = {name: 0.0 for name in METRICS}
    for i, s in enumerate(spans):
        layer = _layer(s[0])
        if layer in LAYERS:
            out[_self_metric(layer)] += dur[i] - child[i]
    for metric, names in GROUPS.items():
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out[metric] += dur[i]
    counts = {k: 0 for k in METRICS if not k.endswith("_s") and k != "trace.overhead_ratio"}
    for s in spans:
        name, info = s[0], s[5]
        if name in _ORACLES:
            counts["disk.oracle_calls"] += 1
            if info is not None:
                counts["disk.oracle_max_degree"] = max(counts["disk.oracle_max_degree"], info)
        elif name in _VERIFIERS and info is not None:  # None when it raised
            counts["certificates.samples"] += info[0]
            counts["certificates.reports"] += 1
            counts["certificates.reports_failed"] += 0 if info[1] else 1
        elif name == "measure.pointwise_product":
            counts["measure.product_calls"] += 1
        elif name == "measure._sublevel_indicator" and info is not None:
            counts["measure.witness_prefix_atoms"] += info
        elif name == "matrices.operator_norm":
            counts["matrices.norm_calls"] += 1
            if info is not None:
                counts["matrices.norm_max_dim"] = max(counts["matrices.norm_max_dim"], info)
        elif name == "schema.serialize_matrix" and info is not None:
            counts["schema.matrix_entries"] += info
    out.update(counts)
    return out


def count_failure(metrics: dict, spans: list, origin) -> None:
    """Charge a failed request to the layer of the span that raised first."""
    if origin is None:
        return
    name = spans[origin][0]
    layer = _layer(name)
    if layer in LAYERS:
        metrics[f"{layer}.errors"] += 1
    if name == "matrices.operator_norm":
        metrics["matrices.norm_errors"] += 1
