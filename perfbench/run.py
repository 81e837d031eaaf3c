"""End-to-end and per-layer benchmark of tdzcert's certified verdicts.

    python3 perfbench/run.py --workload disk-certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is loaded from ``src/``.
One client in one process sends one request at a time (a closed loop).
Each request is a JSON text handled exactly as ``tdzcert --stdin`` would
handle it: ``tdzcert.cli.main`` runs in-process with stdin and stdout
swapped for buffers, so exit codes and uncaught exceptions are observed
as a CLI user would see them.  Every response is checked against the
outcome the generator knows by construction (see ``workloads.py``).

``--trace 0`` serves whole rounds of the workload until ``--seconds`` of
serving time have passed, and at least three rounds, and reports the
end-to-end metrics.
``--trace 1`` serves rounds for half that time untraced, then the same
requests again with every layer wrapped (see ``tracing.py``), checks that
both passes answered byte for byte the same, and reports the per-layer
metrics.  The spans go to ``.perfbench/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error.  A request fails when it raises, exits with a
code outside {0, 2, 3}, or answers other than expected (including exit 3
where the certificates should pass).  ``correct`` is false when a
response contradicts its expected verdict or a self-check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
# One client in one process and no threads.  BLAS worker threads spin
# while they wait, so on a shared two-core machine they would make the
# timings depend on whatever else runs there.  Set before numpy loads;
# the cold-start subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

# Three rounds hold 150 requests, so the 90th percentile has fifteen
# samples above it, and one full turn of the disk rounds' degree rotation.
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
TRIVIAL_REQUEST = '{"algebra": "disk", "coeffs": [[1.0, 0.0]], "mode": "analyze"}'
DOCUMENTED_EXITS = (0, 2, 3)

UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "req/s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def measure_setup(samples: int) -> float:
    """Median wall time of a fresh ``python -m tdzcert.cli --stdin`` on one
    trivial request, after one unmeasured start that fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "tdzcert.cli", "--stdin"]
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, input=TRIVIAL_REQUEST, capture_output=True, text=True, cwd=ROOT, env=env, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or json.loads(done.stdout)["verdict"]["regular"] is not True:
            raise RuntimeError(f"cold start failed: exit {done.returncode}: {done.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def serve(main, text: str):
    """One request through the CLI entry point; returns
    (seconds, exit code or None, stdout, stderr, exception or None)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    error = code = None
    t0 = time.perf_counter()
    try:
        code = main(["--stdin"])
    except SystemExit as exc:  # what a shell would see as the exit status
        code = exc.code
    except Exception as exc:  # the benchmark must keep running; counted below
        error = exc
    finally:
        elapsed = time.perf_counter() - t0
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, code, out, err, error


class Tally:
    """Attempts, failures and wrong answers of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.undocumented = 0
        self.latencies: list[float] = []
        self.served = 0.0
        self.response_bytes = 0
        self.digests: list[str] = []
        self.reasons: list[str] = []

    def record(self, item: dict, elapsed: float, code, out: str, err: str, error) -> bool:
        """Account one response; returns True when it failed."""
        self.attempted += 1
        self.latencies.append(elapsed)
        self.served += elapsed
        self.response_bytes += len(out.encode())
        self.digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
        if error is not None or code not in DOCUMENTED_EXITS:
            self.undocumented += 1
            reason = f"raised {type(error).__name__}: {error}" if error is not None else f"undocumented exit {code!r}"
        else:
            reason = workloads.check(item["expect"], code, out)
            if reason is None:
                return False
            if not reason.startswith("exit"):  # an answer, and a wrong one
                self.wrong += 1
            if err.strip():
                reason += f" ({err.strip()})"
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{reason[:200]} <- {item['text'][:120]}")
        return True


def self_checks(workload: str, seed: int) -> list[str]:
    """Generator determinism and a library cross-check of a few requests."""
    problems = []
    for r in (0, 1):
        if json.dumps(workloads.make_round(workload, seed, r)) != json.dumps(workloads.make_round(workload, seed, r)):
            problems.append(f"round {r} differs between two generations with the same seed")
    if json.dumps(workloads.make_round(workload, seed, 0)) == json.dumps(workloads.make_round(workload, seed + 1, 0)):
        problems.append("seeds do not change the generated requests")

    from tdzcert.composition import divisor_status, map_properties
    from tdzcert.disk import decide_tdz_disk
    from tdzcert.measure import decide_tdz_linf, decide_zero_divisor_linf
    from tdzcert.multop import decide_tdz_mult, decide_zero_divisor_mult
    from tdzcert.schema import parse_request

    checked = 0
    for item in workloads.make_round(workload, seed, 0):
        req = parse_request(json.loads(item["text"]))
        eq = json.loads(item["expect"])["eq"]
        if req.tag == "disk":
            v = decide_tdz_disk(req.payload, req.tol)
            got = {"verdict.tdz": v.is_tdz, "verdict.regular": v.is_regular}
        elif req.tag in ("linf", "mult"):
            tdz, zd = (decide_tdz_linf, decide_zero_divisor_linf) if req.tag == "linf" else (decide_tdz_mult, decide_zero_divisor_mult)
            v = tdz(req.payload, req.tol)
            got = {
                "verdict.tdz": v.is_tdz,
                "verdict.regular": v.is_regular,
                "verdict.zd": zd(req.payload, req.tol).is_left_zero_divisor.value == "yes",
            }
        elif req.tag == "compose_lp":
            v = divisor_status(req.payload, req.tol)
            props = map_properties(req.payload.phi)
            got = {
                "verdict.tdz": v.is_tdz,
                "verdict.regular": v.is_regular,
                "map.injective": props.injective,
                "map.surjective": props.surjective,
            }
        else:
            continue
        for key, value in got.items():
            if eq[key] != value:
                problems.append(f"library gives {key} = {value} for {item['text'][:120]}")
        checked += 1
        if checked == 8:
            break
    return problems


def run_pass(main, items: list, tally: Tally, tracer=None, errors=None):
    """Serve ``items`` in order; with a tracer, spans carry the request's
    number in the pass, and failures that raised (or were refused with
    exit 2) go into ``errors`` under the layer whose span raised first."""
    for item in items:
        if tracer is not None:
            tracer.request, tracer.error = tally.attempted, None
        elapsed, code, out, err, error = serve(main, item["text"])
        failed = tally.record(item, elapsed, code, out, err, error)
        if failed and tracer is not None and tracer.error is not None and (tracer.error[0] is error or code == 2):
            tracing.count_failure(errors, tracer.spans, tracer.error[1])


def serve_rounds(main, workload: str, seed: int, seconds: float, min_rounds: int):
    """Serve whole rounds until both the time and the round floor are met;
    returns the tally and the number of rounds served."""
    tally, rounds = Tally(), 0
    while tally.served < seconds or rounds < min_rounds:
        items = workloads.make_round(workload, seed, rounds)
        gc.collect()  # every round starts from the same collector state
        run_pass(main, items, tally)
        rounds += 1
    return tally, rounds


def report(correct: bool, tally: Tally, metrics: dict, problems: list[str]) -> None:
    for p in problems + tally.reasons:
        print(f"  ! {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(
        f"  correct={correct} attempted={tally.attempted} failed={tally.failed} wrong={tally.wrong}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description="tdzcert benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tdzcert" / "cli.py").is_file():
        print(f"perfbench: no tdzcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tdzcert.cli

    if Path(tdzcert.cli.__file__).resolve().parent != SRC / "tdzcert":
        print(f"perfbench: tdzcert loaded from {tdzcert.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli_main = tdzcert.cli.main

    setup_s = None if args.trace else measure_setup(SETUP_SAMPLES)
    problems = self_checks(args.workload, args.seed)
    warm = workloads.make_round(args.workload, args.seed, 0)[0]
    serve(cli_main, warm["text"])

    if not args.trace:
        tally, _ = serve_rounds(cli_main, args.workload, args.seed, args.seconds, MIN_ROUNDS)
        lat = tally.latencies
        values = {
            "setup_s": setup_s,
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "throughput_rps": tally.attempted / tally.served,
            "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        report(not problems and tally.wrong == 0, tally, metrics, problems)
        return 0

    plain, rounds = serve_rounds(cli_main, args.workload, args.seed, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    traced = Tally()
    counts = {name: 0 for name in tracing.METRICS}
    tracer.install()
    try:
        for r in range(rounds):
            items = workloads.make_round(args.workload, args.seed, r)
            gc.collect()
            run_pass(cli_main, items, traced, tracer, counts)
    finally:
        tracer.uninstall()
    if plain.digests != traced.digests:
        diff = sum(a != b for a, b in zip(plain.digests, traced.digests))
        problems.append(f"{diff} responses differ between the untraced and the traced pass")
    values = tracing.layer_metrics(tracer.spans)
    for name in ("matrices.norm_errors", *(f"{layer}.errors" for layer in tracing.LAYERS)):
        values[name] = counts[name]
    values["schema.response_bytes"] = traced.response_bytes
    values["cli.undocumented_exits"] = traced.undocumented
    values["trace.overhead_ratio"] = traced.served / plain.served
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = {k: {"value": values[k], "unit": tracing.unit(k)} for k in tracing.METRICS}
    report(not problems and traced.wrong == 0, traced, metrics, problems)
    return 0


if __name__ == "__main__":
    sys.exit(main())
