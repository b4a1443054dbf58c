"""The tensebench benchmark: many `tw` requests per workload, checked, timed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload audit-family --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced workload process, with set-up measured in several fresh processes.
``--trace 1`` runs the workload once untraced and once traced, each in its
own process, and reports the per-layer metrics of the traced run plus the
tracing overhead.  Every line but the last is information for a reader; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from trace_layers import METRICS as LAYER_METRICS  # noqa: E402
from workload import WORKLOADS  # noqa: E402

# Fresh processes that only set up; with the measured process they give the
# median set-up time.
SETUP_PROBES = 6
# A run must end within 180 s; this leaves a margin for reporting.
DEADLINE_S = 170.0
# The highest of these percentiles with at least this many requests beyond it
# is the reported tail.
TAIL_PERCENTILES = (95, 90, 75)
TAIL_MIN_BEYOND = 10


class RunError(Exception):
    """The workload could not be run or its output could not be read."""


def machine_ref_ms() -> float:
    """A fixed pure-Python loop, timed; it tells machine drift from program drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) * 1000


def source_sha256(root: Path) -> str:
    """Identifies the program under test; a checkout need not be a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "tensebench").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_workload(args, deadline: float, *extra: str) -> dict:
    """Start one workload process and return the JSON object it printed last."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the workload process started")
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    command = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(command, cwd=Path.cwd(), env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"workload process exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RunError("workload process printed no result") from exc


def ranked(result: dict) -> list[float]:
    """Latencies in ms, ascending, with failed requests ranked slowest."""
    pairs = sorted(zip(result["passed"], result["latencies_s"]),
                   key=lambda p: (not p[0], p[1]))
    return [latency * 1000 for _, latency in pairs]


def hd_median(ascending: list[float]) -> float:
    """Harrell-Davis estimate of the median: the mean of all order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) density over their rank intervals.

    The 40 audit-family latencies have a gap between the desc and steps
    lemmas exactly at the middle, so the sample median is set by two short
    requests; this estimate draws on the requests near the middle as well.
    """
    n = len(ascending)
    if n == 1:
        return ascending[0]
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 64  # midpoint rule on each rank interval [i/n, (i+1)/n]
    weights = [
        sum(math.exp(log_norm + (a - 1) * math.log(x * (1 - x)))
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, ascending)) / sum(weights)


def tail(latencies_ms: list[float]):
    """(percentile, value, requests beyond it), or None when none qualifies."""
    count = len(latencies_ms)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return pct, latencies_ms[rank - 1], count - rank
    return None


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    latencies = ranked(result)
    count = len(latencies)
    passed = sum(result["passed"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / result["elapsed_s"], "1/s"),
        "op_p50_ms": (hd_median(latencies), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    samples = {"setup_s": f"median of {len(setups)} processes",
               "ops_per_s": f"{passed} passed / {result['elapsed_s']:.3f} s",
               "op_p50_ms": f"Harrell-Davis median, n={count}",
               "peak_rss_mb": "ru_maxrss of the workload process"}
    lines = [f"{name} = {value:.6g} {unit} ({samples[name]})"
             for name, (value, unit) in metrics.items()]
    found = tail(latencies)
    if found is None:
        lines.append(f"op_tail_ms: omitted, no percentile has {TAIL_MIN_BEYOND} "
                     f"requests beyond it (n={count})")
    else:
        pct, value, beyond = found
        lines.append(f"op_tail_ms = {value:.6g} ms (p{pct}, n={count}, {beyond} beyond)")
    lines.append(f"fail_ratio = {(count - passed) / count:.6g} ({count - passed} of {count})")
    return metrics, lines


def per_kind(result: dict) -> list[str]:
    """Requests and time per request kind: per lemma for audit-family."""
    totals: dict[str, list] = {}
    for kind, latency in zip(result["kinds"], result["latencies_s"]):
        entry = totals.setdefault(kind, [0, 0.0])
        entry[0] += 1
        entry[1] += latency
    return [f"requests {kind}: {totals[kind][0]} in {totals[kind][1]:.3f} s"
            for kind in sorted(totals, key=lambda k: (len(k), k))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tensebench" / "cli.py").is_file():
        print(f"error: no tensebench sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    ref_before = machine_ref_ms()
    try:
        if args.trace:
            plain = run_workload(args, deadline)
            result = run_workload(args, deadline, "--trace")
        else:
            setups = [run_workload(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            result = run_workload(args, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ref_after = machine_ref_ms()

    for error in result["errors"]:
        print(f"failed {error}", file=sys.stderr)
    attempted = len(result["passed"])
    failed = attempted - sum(result["passed"])
    correct = failed == 0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"PYTHONHASHSEED={args.seed % 2**32}")
    print(f"nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
          f"source_sha256={source_sha256(root)}")
    print(f"machine_ref_ms before={ref_before:.2f} after={ref_after:.2f}")
    print(f"requests attempted={attempted} failed={failed}")
    for name, value in result["shares"].items():
        print(f"input {name} = {value:.4f}")
    print(f"stdout_sha256={result['stdout_sha256']}")
    if args.trace:
        if plain["stdout_sha256"] != result["stdout_sha256"] or not all(plain["passed"]):
            print("error: the untraced process failed or its stdout differs", file=sys.stderr)
            correct = False
        layers = result["layers"]
        # Both processes send the same requests, so this is untraced over traced ops_per_s.
        layers["trace.overhead_ratio"] = result["elapsed_s"] / plain["elapsed_s"]
        metrics = {name: (layers[name], unit) for name, unit in LAYER_METRICS.items()}
        print(f"spans written to {Path(result['spans_file']).relative_to(root)}")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        setups.append(result["setup_s"])
        metrics, lines = end_to_end(result, setups)
        print("\n".join(per_kind(result) + lines))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
