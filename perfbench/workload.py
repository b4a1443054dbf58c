"""One workload process: set up, send every request through ``tw``, check each.

Run by ``run.py``, never by hand::

    python3 perfbench/workload.py --workload separate --seed 1 --seconds 20 [--trace] [--setup-only]

The process starts its set-up clock on its first line, before ``tensebench``
is imported, and stops it when the first request is sent.  It sends its
requests one after another through ``tensebench.cli.main(argv)`` (a closed
loop with one client and no threads), captures the program's stdout and
stderr, checks each request's records output, and prints one JSON object on
its last stdout line.  ``run.py`` turns that object into metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("audit-family", "separate", "search")

# The default family, as a user types it; one `tw audit all` covers exactly these.
FAMILY = ("empty", "{3}", "{3,7}", "O", "O\\{5}")
LEMMAS = ("fg", "desc", "4or5", "steps", "bgen", "top", "sent", "cross")
# `checked=` per lemma and parameter, pinned to today's results.
CHECKED = {
    "fg": 532, "desc": 1207, "4or5": 200, "steps": 230,
    "bgen": 152, "top": 200, "sent": 1018, "cross": 1046,
}

# The odd indices below the default `--n-bound` of `tw distinguish`.
ODDS = tuple(range(3, 42, 2))
# One block of `separate` holds every odd n once, half explicit and half
# co-finite, and takes about this long on a 2-core Xeon under Python 3.11.
# `--seconds` is turned into a whole number of blocks at this nominal rate, so
# a run does a fixed amount of work for a given run length and its counts
# repeat exactly.
BLOCK_NOMINAL_S = 7.0

SEARCHES = (
    (("search", "frames", "--k", "5"), (59049, 582)),
    (("search", "structures", "--k", "4", "--constraints", "sym,sa"), (1024, 148)),
)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str  # lemma, "n=<n>" or the search subcommand; groups requests in the report
    expect: tuple  # what the check compares the records output with


def audit_family_requests(rng: random.Random) -> list[Request]:
    requests = [
        Request(("audit", lemma, "--s", label, "--format", "records", "--jobs", "1"),
                lemma, (CHECKED[lemma],))
        for lemma in LEMMAS for label in FAMILY
    ]
    rng.shuffle(requests)
    return requests


def _sparam_text(cofinite: bool, members: frozenset) -> str:
    body = ",".join(str(m) for m in sorted(members))
    return f"O\\{{{body}}}" if cofinite else f"{{{body}}}"


def separate_requests(rng: random.Random, seconds: int) -> list[Request]:
    """Near-miss pairs: T is S with the membership of one odd n flipped.

    S is explicit-finite (its members drawn from ODDS) or co-finite (the
    members drawn are the excluded ones).  Each block visits every n once,
    half of them co-finite, because request cost grows with n.
    """
    blocks = max(1, round(seconds / BLOCK_NOMINAL_S))
    seen = set()
    requests = []
    for _ in range(blocks):
        ns = list(ODDS)
        rng.shuffle(ns)
        kinds = [False, True] * (len(ODDS) // 2)
        rng.shuffle(kinds)
        for n, cofinite in zip(ns, kinds):
            while True:
                drawn = frozenset(m for m in ODDS if rng.random() < 0.5)
                s_text = _sparam_text(cofinite, drawn)
                t_text = _sparam_text(cofinite, drawn ^ {n})
                if (s_text, t_text) not in seen:
                    break
            seen.add((s_text, t_text))
            s_holds = (n in drawn) != cofinite
            requests.append(Request(
                ("distinguish", "--s", s_text, "--t", t_text, "--format", "records"),
                f"n={n}", (n, s_holds, cofinite),
            ))
    return requests


def search_requests(rng: random.Random) -> list[Request]:
    requests = [
        Request(argv + ("--format", "records", "--jobs", "1"), argv[1], expect)
        for argv, expect in SEARCHES
    ]
    rng.shuffle(requests)
    return requests


def make_requests(workload: str, seed: int, seconds: int) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit-family":
        return audit_family_requests(rng)
    if workload == "separate":
        return separate_requests(rng, seconds)
    return search_requests(rng)


_CHECKED_RE = re.compile(r"checked=(\d+) .* failures=(\d+)$")


def check(request: Request, rc: int, out: str) -> bool:
    """Whether one request's exit code and records output match today's results."""
    if rc != 0:
        return False
    lines = out.splitlines()
    if request.argv[0] == "audit":
        match = _CHECKED_RE.search(lines[-1]) if lines else None
        return bool(match) and int(match.group(1)) == request.expect[0] and match.group(2) == "0"
    if request.argv[0] == "distinguish":
        n, s_holds, _ = request.expect
        fields = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
        side = "S_truth" if s_holds else "T_truth"
        return (
            fields.get("verdict") == "Separated"
            and fields.get("witness_n") == str(n)
            and fields.get(side, "").startswith("witness A(0,")
        )
    raw, iso = request.expect
    return f" raw={raw} iso={iso}" in out


def input_shares(requests: list[Request]) -> dict[str, float]:
    """Shares of the input properties a later performance claim may depend on."""
    total = len(requests)
    shares = {}
    if requests[0].argv[0] == "distinguish":
        ns = [r.expect[0] for r in requests]
        shares["cofinite_share"] = sum(r.expect[2] for r in requests) / total
        for lo, hi in ((3, 13), (15, 27), (29, 41)):
            shares[f"n_{lo}_{hi}_share"] = sum(lo <= n <= hi for n in ns) / total
        shares["s_holds_witness_share"] = sum(r.expect[1] for r in requests) / total
    return shares


def run_requests(cli, requests: list[Request], tracer=None) -> dict:
    """Send every request in order; a request that raises or fails its check
    counts as failed and the loop goes on."""
    latencies, passed, kinds, errors = [], [], [], []
    digest = hashlib.sha256()
    stdout_bytes = 0
    begin = time.perf_counter()
    for index, request in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_request(index)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(request.argv))
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, never the end of the run
            rc = None
            errors.append(f"request {index} {' '.join(request.argv)}: {exc!r}")
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        text = out.getvalue()
        encoded = text.encode()
        digest.update(encoded)
        stdout_bytes += len(encoded)
        latencies.append(latency)
        passed.append(rc is not None and check(request, rc, text))
        kinds.append(request.kind)
    return {
        "elapsed_s": time.perf_counter() - begin,
        "first_request_at": begin,
        "latencies_s": latencies,
        "passed": passed,
        "kinds": kinds,
        "stdout_sha256": digest.hexdigest(),
        "errors": errors,
        "stdout_bytes": stdout_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    from tensebench import cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"tensebench was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    requests = make_requests(args.workload, args.seed, args.seconds)
    tracer = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer()
    setup_s = time.perf_counter() - _PROCESS_START
    result = {"setup_s": setup_s, "shares": input_shares(requests)}
    if not args.setup_only:
        if tracer is None:
            timed = run_requests(cli, requests)
        else:
            with tracer.installed():
                timed = run_requests(cli, requests, tracer)
            result["layers"] = tracer.layer_metrics(timed["stdout_bytes"])
            result["spans_file"] = tracer.write_spans(
                Path(__file__).resolve().parent / "out", f"trace-{args.workload}-seed{args.seed}")
        result["setup_s"] = timed.pop("first_request_at") - _PROCESS_START
        result.update(timed)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
