"""Tests of the benchmark itself: inputs, checks, tracing and the metric names.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace_layers  # noqa: E402
import workload  # noqa: E402
from tensebench import audit, cli, sparam  # noqa: E402

SECONDS = 20


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_requests_are_deterministic_distinct_and_seeded(name):
    first = workload.make_requests(name, 1, SECONDS)
    assert first == workload.make_requests(name, 1, SECONDS)
    assert len({r.argv for r in first}) == len(first)
    orders = {tuple(r.argv for r in workload.make_requests(name, seed, SECONDS))
              for seed in range(1, 9)}
    assert len(orders) > 1


def test_separate_visits_every_n_equally_and_half_cofinite():
    requests = workload.make_requests("separate", 3, SECONDS)
    blocks = len(requests) // len(workload.ODDS)
    assert len(requests) == blocks * len(workload.ODDS)
    counts = {n: sum(r.expect[0] == n for r in requests) for n in workload.ODDS}
    assert set(counts.values()) == {blocks}
    assert workload.input_shares(requests)["cofinite_share"] == 0.5


def test_separate_expectation_matches_the_parameters():
    for request in workload.make_requests("separate", 5, SECONDS):
        n, s_holds, _ = request.expect
        s = sparam.parse_sparam(request.argv[2])
        t = sparam.parse_sparam(request.argv[4])
        assert s.contains(n) == s_holds and t.contains(n) != s_holds
        assert all(s.contains(m) == t.contains(m) for m in workload.ODDS if m != n)


def test_checks_reject_wrong_results():
    audit_request = workload.Request(("audit", "top"), "top", (200,))
    good = 'lemma=top param="x" checked=200 confirmed=1 skipped=0 failures=0\n'
    assert workload.check(audit_request, 0, good)
    assert not workload.check(audit_request, 0, good.replace("checked=200", "checked=199"))
    assert not workload.check(audit_request, 0, good.replace("failures=0", "failures=1"))
    assert not workload.check(audit_request, 1, good)
    sep_request = workload.Request(("distinguish",), "n=7", (7, False, False))
    out = "# tw\nwitness_n=7\nS_truth=none-up-to-64\nT_truth=witness A(0,1)\nverdict=Separated\n"
    assert workload.check(sep_request, 0, out)
    assert not workload.check(sep_request, 0, out.replace("witness_n=7", "witness_n=9"))
    assert not workload.check(
        workload.Request(("distinguish",), "n=7", (7, True, False)), 0, out)
    search_request = workload.Request(("search",), "frames", (729, 42))
    assert workload.check(search_request, 0, "search=frames k=4 constraints=none raw=729 iso=42\n")
    assert not workload.check(search_request, 0, "search=frames k=4 constraints=none raw=729 iso=41\n")


def _bindings():
    modules = [m for name, m in sys.modules.items()
               if name == "tensebench" or name.startswith("tensebench.")]
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    names.update({("SParameter", k): v for k, v in vars(sparam.SParameter).items()})
    names.update({("AUDITS", k): v for k, v in audit.AUDITS.items()})
    return names


def test_every_wrapped_name_is_restored():
    before = _bindings()
    with trace_layers.Tracer().installed():
        during = _bindings()
        assert cli.main is not before[("tensebench.cli", "main")]
        assert audit.AUDITS["sent"] is not before[("AUDITS", "sent")]
        assert audit.build_truncation is not before[("tensebench.audit", "build_truncation")]
        assert sparam.SParameter.contains is not before[("SParameter", "contains")]
    changed = {key for key in before if during.get(key) is not before[key]}
    assert len(changed) > len(trace_layers.GROUPS)
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


# Cheap requests that reach every layer: audits with and without the oracle,
# separations, and a small structure search.
SMALL = [
    workload.Request(("audit", "top", "--s", "{3}", "--format", "records", "--jobs", "1"),
                     "top", (200,)),
    workload.Request(("audit", "fg", "--s", "O", "--format", "records", "--jobs", "1"),
                     "fg", (532,)),
    *workload.make_requests("separate", 7, SECONDS)[:3],
    workload.Request(("search", "structures", "--k", "3", "--format", "records", "--jobs", "1"),
                     "structures", (20, 14)),
    workload.Request(("search", "frames", "--k", "3", "--format", "records", "--jobs", "1"),
                     "frames", (27, 7)),
]


def test_traced_and_untraced_runs_agree():
    plain = workload.run_requests(cli, SMALL)
    counts = []
    for _ in range(2):
        tracer = trace_layers.Tracer()
        with tracer.installed():
            traced = workload.run_requests(cli, SMALL, tracer)
        assert traced["stdout_sha256"] == plain["stdout_sha256"]
        assert traced["passed"] == plain["passed"] == [True] * len(SMALL)
        layers = tracer.layer_metrics(traced["stdout_bytes"])
        counts.append({k: v for k, v in layers.items()
                       if k.endswith((".calls", ".entries", "_bytes", "repeat_ratio"))})
    assert counts[0] == counts[1]
    for group in ("sparam.membership", "symbolic.make_row", "frames.oracle", "terms.witness",
                  "relalg.axioms", "symbolic.rule"):
        assert counts[0][f"{group}.calls"] > 0
    assert sum(s["name"] == "request" for s in tracer.spans) == len(SMALL)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(trace_layers.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(trace_layers.METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    result = {"passed": [True] * 40, "latencies_s": [0.01 * i for i in range(1, 41)],
              "elapsed_s": 8.2, "peak_rss_mb": 30.0}
    metrics, lines = run.end_to_end(result, [0.2, 0.1, 0.3])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert any(line.startswith("op_tail_ms = 300 ms (p75, n=40, 10 beyond)") for line in lines)


def test_tail_needs_ten_requests_beyond():
    assert run.tail([float(i) for i in range(39)]) is None
    assert run.tail([float(i) for i in range(40)])[0] == 75
    assert run.tail([float(i) for i in range(100)])[0] == 90
    assert run.tail([float(i) for i in range(200)])[0] == 95


def test_hd_median():
    assert run.hd_median([5.0]) == 5.0
    assert run.hd_median([1.0, 3.0]) == pytest.approx(2.0)
    assert run.hd_median([float(i) for i in range(40)]) == pytest.approx(19.5)
    gapped = [1.0] * 20 + [3.0] * 20
    assert 1.0 < run.hd_median(gapped) < 3.0
