"""Compare the CLI responses of two source trees on the same requests.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout with the package under ``src/``.  The requests
are the benchmark rounds in ``ROUNDS`` at each seed in ``SEEDS``, built
by ``perfbench/workloads.py`` of this checkout (``make_round``, imported
and not changed).  Every tree serves all requests in one subprocess of
its own, each request through ``perfbench/run.py``'s ``serve``, that is
``tdzcert.cli.main(["--stdin"])`` with stdin, stdout and stderr swapped
for buffers.  A request still running after ``REQUEST_TIMEOUT_S`` is
stopped and recorded as a timeout.

A response is identical when its exit code, stdout, stderr and uncaught
exception are equal.  The tool prints the count of identical responses
and, for each other one, where it came from, both exit codes and the
JSON paths at which the two stdouts differ.  It exits 1 when any differ.
Standard library only.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# (workload, rounds) pairs; every round at every seed.
ROUNDS = (("mixed-small", range(3)), ("sections", range(1)), ("disk-certify", range(1)))
SEEDS = (1, 7)
REQUEST_TIMEOUT_S = 20.0


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so neither ``cli.main`` nor
    ``serve`` catches it."""


def _on_alarm(signum, frame):
    raise RequestTimeout


def serve_tree(tree: str) -> None:
    """Worker: read requests as JSON on stdin, write one result per request."""
    src = Path(tree).resolve() / "src"
    sys.path.insert(0, str(src))
    from run import serve
    from tdzcert.cli import main

    if Path(sys.modules["tdzcert"].__file__).resolve().parent != src / "tdzcert":
        raise SystemExit(f"tdzcert loaded from {sys.modules['tdzcert'].__file__}, not {src}")
    texts = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for text in texts:
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            _, code, out, err, error = serve(main, text)
        except RequestTimeout:
            code, out, err, error = None, "", "", f"timeout after {REQUEST_TIMEOUT_S:g} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None and not isinstance(error, str):
            error = f"raised {type(error).__name__}: {error}"
        results.append({"code": code, "stdout": out, "stderr": err, "error": error})
    json.dump(results, sys.stdout)


def collect() -> tuple[list, list]:
    """The request texts and a label for each."""
    import workloads

    labels, texts = [], []
    for seed in SEEDS:
        for workload, rounds in ROUNDS:
            for r in rounds:
                for i, item in enumerate(workloads.make_round(workload, seed, r)):
                    labels.append(f"{workload} seed {seed} round {r} item {i}")
                    texts.append(item["text"])
    return labels, texts


def run_tree(tree: str, texts: list) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--serve", tree]
    proc = subprocess.run(cmd, input=json.dumps(texts), capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def json_diff(a, b, path: str = "$") -> list:
    """The paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key} (only in {'new' if key in b else 'old'})")
            else:
                out += json_diff(a[key], b[key], f"{path}.{key}")
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path} (length {len(a)} -> {len(b)})"]
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_diff(x, y, f"{path}[{i}]")]
    return [] if a == b and type(a) is type(b) else [path]


def stdout_diff(old: str, new: str) -> list:
    if old == new:
        return []
    try:
        paths = json_diff(json.loads(old), json.loads(new)) if old and new else []
    except json.JSONDecodeError:
        paths = []
    # Equal JSON values can still differ as text (key order, float repr).
    return paths or ["stdout text"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) == 2 and args[0] == "--serve":
        serve_tree(args[1])
        return 0
    if len(args) != 2 or args[0].startswith("-") or args[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2

    labels, texts = collect()
    old = run_tree(args[0], texts)
    new = run_tree(args[1], texts)
    same = 0
    for label, a, b in zip(labels, old, new):
        if a == b:
            same += 1
            continue
        where = stdout_diff(a["stdout"], b["stdout"])
        if a["stderr"] != b["stderr"]:
            where.append("stderr")
        if a["error"] != b["error"]:
            where.append(f"exception ({a['error']} -> {b['error']})")
        print(f"{label}: exit {a['code']} -> {b['code']}; differs at {', '.join(where) or 'exit code only'}")
    print(f"{same} of {len(texts)} responses identical")
    return 0 if same == len(texts) else 1


if __name__ == "__main__":
    sys.exit(main())
