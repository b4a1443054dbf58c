"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each public function named in ``GROUPS``
with a timing wrapper: in the module that defines it, in every
``tensebench`` module that imported it by name, and in ``audit.AUDITS``.
Leaving the block puts every original back.

Every wrapped call adds its count, inclusive time and self time (its
duration minus the time of the wrapped calls it made) to an aggregate keyed
by (group, parent group), so hot calls such as ``make_row`` cost no memory
per call.  Calls of the groups in ``SPAN_GROUPS``, and each request, are
also kept as spans (name, start, end, parent, request id) and written out
when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

# group -> (module, class or None, public functions); one group per layer operation.
GROUPS = {
    "sparam.membership": ("sparam", "SParameter", (
        "contains", "in_pattern", "pattern_min", "off_pattern_from", "off_pattern_min")),
    "symbolic.make_row": ("symbolic", None, ("make_row",)),
    "symbolic.setops": ("symbolic", None, ("union", "intersect", "complement", "union_all", "is_equal")),
    "symbolic.rule": ("symbolic", None, ("apply_f", "apply_g")),
    "symbolic.table": ("symbolic", None, ("apply_f_table", "apply_g_table")),
    "symbolic.window": ("symbolic", None, ("restrict_to_window",)),
    "frames.build": ("frames", None, ("build_truncation",)),
    "frames.oracle": ("frames", None, ("complex_f", "complex_g")),
    "terms.formula": ("terms", None, ("eval_formula",)),
    "terms.term": ("terms", None, ("eval_term",)),
    "terms.ast": ("terms", None, ("tau", "nu")),
    "terms.witness": ("terms", None, ("exists_tau_witness",)),
    "relalg.expand": ("relalg", None, ("expand",)),
    "relalg.axioms": ("relalg", None, ("check_axioms",)),
    "relalg.triangle_elements": ("relalg", None, ("triangle_by_elements",)),
    "relalg.triangle_atoms": ("relalg", None, ("triangle_by_atoms",)),
    "search.frames": ("search", None, ("enumerate_total_frames",)),
    "search.structures": ("search", None, ("enumerate_atom_structures",)),
    "cli": ("cli", None, ("main",)),
}
LEMMAS = ("fg", "desc", "4or5", "steps", "bgen", "top", "sent", "cross")
SPAN_GROUPS = frozenset(
    ("cli", "frames.build", "terms.witness", "search.frames", "search.structures")
    + tuple(f"audit.{lemma}" for lemma in LEMMAS)
)

_TIMED = ("sparam.membership", "symbolic.make_row", "symbolic.setops", "symbolic.rule",
          "symbolic.table", "symbolic.window", "frames.build", "frames.oracle",
          "terms.formula", "terms.term", "terms.witness", "relalg.expand", "relalg.axioms",
          "relalg.triangle_elements", "relalg.triangle_atoms")

# name -> unit, in report order; BENCHMARK.json lists the same names.
METRICS = {
    **{f"{group}.{kind}": unit for group in _TIMED
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "symbolic.rule.repeat_ratio": "ratio",
    "terms.ast.calls": "count",
    "terms.witness.atoms_per_call": "atoms/call",
    **{f"audit.{lemma}.s": "s" for lemma in LEMMAS},
    "audit.self_s": "s",
    "audit.entries": "count",
    "audit.oracle_share": "ratio",
    "search.frames.self_s": "s",
    "search.frames.codes_per_s": "1/s",
    "search.structures.self_s": "s",
    "search.structures.axioms_per_raw": "ratio",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        # (group, parent group) -> [calls, inclusive seconds, self seconds]
        self._stats: dict[tuple[str, str], list] = {}
        # frames [group, seconds spent in wrapped children]; wrappers hold this list
        self._stack: list[list] = [["request", 0.0]]
        # group -> [calls made from inside the same group]
        self._nested: dict[str, list] = {}
        self._request: int | None = None
        self._request_start = 0.0
        self._rule_args: set = set()
        self.rule_repeats = 0
        self.witness_atoms = 0
        self.audit_entries = 0
        self.frame_codes = 0
        self.structures_raw = 0

    # --- requests ---

    def begin_request(self, index: int) -> None:
        self._request = index
        self._rule_args = set()
        self._stack[:] = [["request", 0.0]]
        self._request_start = time.perf_counter()

    def end_request(self) -> None:
        end = time.perf_counter()
        self.spans.append({"name": "request", "start": self._request_start, "end": end,
                           "parent": None, "request": self._request})

    # --- wrappers ---

    def _leaf(self, group: str, fn):
        """Aggregate-only wrapper, for the hot calls.

        A call made from inside the same group is only counted: its time is
        already self time of the enclosing call of that group.
        """
        stack, stats, clock = self._stack, self._stats, time.perf_counter
        nested = self._nested.setdefault(group, [0])

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is group:
                nested[0] += 1
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # _record, inlined: this runs about 20 million times per audit-family pass
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                stat = stats.get((group, parent[0]))
                if stat is None:
                    stat = stats[(group, parent[0])] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]

        return traced

    def _record(self, group: str, parent: list, frame: list, duration: float) -> None:
        parent[1] += duration
        key = (group, parent[0])
        stat = self._stats.get(key)
        if stat is None:
            stat = self._stats[key] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]

    def _observed(self, group: str, fn, on_call=None, on_result=None):
        """Wrapper that also keeps a span and lets a group read its argument or result."""
        stack, record, clock = self._stack, self._record, time.perf_counter
        keep_span = group in SPAN_GROUPS

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = stack[-1]
            frame = [group, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(group, parent, frame, end - start)
                if keep_span:
                    self.spans.append({"name": group, "start": start, "end": end,
                                       "parent": parent[0], "request": self._request})
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrapper(self, group: str, fn, name: str):
        if group == "symbolic.rule":
            def on_call(args, name=name):
                key = (name, args[0])
                if key in self._rule_args:
                    self.rule_repeats += 1
                else:
                    self._rule_args.add(key)
            return self._observed(group, fn, on_call=on_call)
        if group == "terms.witness":
            def on_result(result):
                self.witness_atoms += result.index if result.found else result.bound
            return self._observed(group, fn, on_result=on_result)
        if group.startswith("audit."):
            def on_result(report):
                self.audit_entries += len(report.entries)
            return self._observed(group, fn, on_result=on_result)
        if group == "search.frames":
            def on_result(result):
                self.frame_codes += result[0].raw_count
            return self._observed(group, fn, on_result=on_result)
        if group == "search.structures":
            def on_result(result):
                self.structures_raw += result[0].raw_count
            return self._observed(group, fn, on_result=on_result)
        if group in SPAN_GROUPS:
            return self._observed(group, fn)
        return self._leaf(group, fn)

    # --- installing ---

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function of GROUPS and every audit; restore them all on exit."""
        patches = []  # (owner, key, original); owner is a namespace or a dict
        modules = [m for name, m in sys.modules.items()
                   if name == "tensebench" or name.startswith("tensebench.")]
        audit = importlib.import_module("tensebench.audit")
        targets = []
        for group, (module_name, class_name, names) in GROUPS.items():
            module = importlib.import_module(f"tensebench.{module_name}")
            owner = getattr(module, class_name) if class_name else module
            targets += [(group, owner, name, class_name is not None) for name in names]
        for lemma in LEMMAS:
            fn = audit.AUDITS[lemma]
            targets.append((f"audit.{lemma}", audit, fn.__name__, False))
        try:
            for group, owner, name, is_method in targets:
                original = owner.__dict__[name]
                wrapped = self._wrapper(group, original, name)
                if is_method:
                    setattr(owner, name, wrapped)
                    patches.append((owner, name, original))
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            patches.append((module, attr, original))
                for key, value in audit.AUDITS.items():
                    if value is original:
                        audit.AUDITS[key] = wrapped
                        patches.append((audit.AUDITS, key, original))
            yield self
        finally:
            for owner, key, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    # --- results ---

    def _calls(self, group: str) -> int:
        nested = self._nested.get(group, [0])[0]
        return nested + sum(s[0] for (g, _), s in self._stats.items() if g == group)

    def _self_s(self, group: str) -> float:
        return sum(s[2] for (g, _), s in self._stats.items() if g == group)

    def _inclusive_s(self, group: str) -> float:
        """Inclusive time of the outermost calls, so recursion is counted once."""
        return sum(s[1] for (g, p), s in self._stats.items() if g == group and p != group)

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_ratio; a bypassed layer reads 0."""
        out: dict[str, float] = {}
        for group in _TIMED:
            out[f"{group}.calls"] = self._calls(group)
            out[f"{group}.self_s"] = self._self_s(group)
        rule_calls = out["symbolic.rule.calls"]
        out["symbolic.rule.repeat_ratio"] = self.rule_repeats / rule_calls if rule_calls else 0.0
        out["terms.ast.calls"] = self._calls("terms.ast")
        witness_calls = out["terms.witness.calls"]
        out["terms.witness.atoms_per_call"] = (
            self.witness_atoms / witness_calls if witness_calls else 0.0)
        for lemma in LEMMAS:
            out[f"audit.{lemma}.s"] = self._inclusive_s(f"audit.{lemma}")
        out["audit.self_s"] = sum(self._self_s(f"audit.{lemma}") for lemma in LEMMAS)
        out["audit.entries"] = self.audit_entries
        traced_total = sum(s["end"] - s["start"] for s in self.spans if s["name"] == "request")
        oracle = (out["frames.build.self_s"] + out["frames.oracle.self_s"]
                  + out["symbolic.window.self_s"])
        out["audit.oracle_share"] = oracle / traced_total if out["audit.entries"] else 0.0
        frames_s = self._inclusive_s("search.frames")
        out["search.frames.self_s"] = self._self_s("search.frames")
        out["search.frames.codes_per_s"] = self.frame_codes / frames_s if frames_s else 0.0
        out["search.structures.self_s"] = self._self_s("search.structures")
        axioms = sum(s[0] for (g, p), s in self._stats.items()
                     if g == "relalg.axioms" and p == "search.structures")
        out["search.structures.axioms_per_raw"] = (
            axioms / self.structures_raw if self.structures_raw else 0.0)
        out["cli.self_s"] = self._self_s("cli")
        out["cli.stdout_bytes"] = stdout_bytes
        return out

    def write_spans(self, directory: Path, stem: str) -> str:
        """Write the kept spans and the (group, parent) aggregates as JSON lines."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{stem}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            for (group, parent), (calls, inclusive, self_s) in sorted(self._stats.items()):
                handle.write(json.dumps({"name": group, "parent": parent, "calls": calls,
                                         "inclusive_s": inclusive, "self_s": self_s}) + "\n")
            for group, (calls,) in sorted(self._nested.items()):
                handle.write(json.dumps({"name": group, "parent": group, "calls": calls,
                                         "untimed": True}) + "\n")
        return str(path)
