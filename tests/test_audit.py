"""The audit reports: expected outcomes, determinism, allowlist behaviour,
and self-certification of recorded counterexamples."""

import hashlib
import inspect

import pytest

from conftest import MEMOIZED
from tensebench import audit as au
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.cli import main
from tensebench.parallel import parallel_map
from tensebench.sparam import default_family, parse_sparam


def allow_keys(report):
    return {
        entry.note.split("allow:")[-1]
        for entry in report.counterexamples
        if entry.allowlisted
    }


class TestFg:
    def test_no_failures_outside_allowlist(self, family_param):
        _, s = family_param
        report = au.audit_fg(s)
        assert report.ok, report.failures[:3]

    def test_expected_deviation_families(self):
        report = au.audit_fg(parse_sparam("{3}"))
        assert allow_keys(report) == {"g15-row-start", "g17-index-one"}
        report = au.audit_fg(parse_sparam("O"))
        assert allow_keys(report) == {"g15-row-start", "g17-index-one", "f7-index-one"}
        report = au.audit_fg(parse_sparam("empty"))
        assert allow_keys(report) == {"g15-row-start"}

    def test_clause_13_confirmed(self):
        report = au.audit_fg(parse_sparam("{3}"))
        entries = [e for e in report.entries if e.fields().get("clause") == "13"]
        assert entries and all(e.status == "Confirmed" for e in entries)

    def test_clause_6_confirmed_for_full_odd_set(self):
        report = au.audit_fg(parse_sparam("O"))
        entries = [e for e in report.entries if e.fields().get("clause") == "6"]
        assert entries and all(e.status == "Confirmed" for e in entries)

    def test_clause_17_confirmed_above_one(self):
        report = au.audit_fg(parse_sparam("{3}"))
        entries = [
            e for e in report.entries
            if e.fields().get("clause") == "17" and int(e.fields()["m"]) > 1
        ]
        assert entries and all(e.status == "Confirmed" for e in entries)

    def test_counterexamples_self_certify(self):
        s = parse_sparam("{3}")
        report = au.audit_fg(s)
        checked = 0
        for entry in report.counterexamples:
            fields = entry.fields()
            if fields["clause"] != "15":
                continue
            x = sym.basis_srow(s, int(fields["p"]), int(fields["m"]))
            again = sym.display(sym.apply_g(x))
            assert again == entry.actual
            checked += 1
        assert checked > 0

    def test_oracle_disagreement_is_never_allowlisted(self, monkeypatch):
        # drop A(-1,1) from g(S(0,5)) on {3}: the claims at clause 15 with
        # m = 5 and m = 6 (S(0,5) = S(0,6) on {3}) match the g15-row-start
        # rule by their fields, but the oracle contradicts the engine there
        s = parse_sparam("{3}")
        target = sym.basis_srow(s, 0, 5)
        dropped = sym.complement(sym.basis_a(s, -1, 1))
        apply_g = sym.apply_g

        def mutated(x):
            return sym.intersect(apply_g(x), dropped) if x == target else apply_g(x)

        monkeypatch.setattr(sym, "apply_g", mutated)
        report = au.audit_fg(s)
        assert [e.claim for e in report.failures] == [
            "clause=15 op=g p=0 m=5", "clause=15 op=g p=0 m=6"]
        assert all(e.vs_oracle and not e.allowlisted for e in report.failures)


class TestDesc:
    def test_ok(self, family_param):
        _, s = family_param
        report = au.audit_desc(s)
        assert report.ok, report.failures[:3]
        assert allow_keys(report) == {
            "s-complement-index-one",
            "sbar-complement-index-one",
            "sbar-meet-printed",
        }

    def test_corrected_meet_reading_confirmed(self):
        report = au.audit_desc(parse_sparam("{3}"))
        entries = [
            e for e in report.entries
            if e.fields().get("identity") == "Sbar-meet-Sbar"
        ]
        assert entries and all(e.status == "Confirmed" for e in entries)

    def test_complements_confirmed_above_one(self):
        report = au.audit_desc(parse_sparam("{3,7}"))
        entries = [
            e for e in report.entries
            if e.fields().get("identity") == "S-complement" and int(e.fields()["m"]) > 1
        ]
        assert entries and all(e.status == "Confirmed" for e in entries)


class TestFourOrFive:
    def test_all_cases_confirmed(self, family_param):
        _, s = family_param
        report = au.audit_4or5(s)
        assert report.ok
        assert not allow_keys(report)
        confirmed = [e for e in report.entries if e.status == "Confirmed"]
        skipped = [e for e in report.entries if e.status == "Skipped"]
        assert len(confirmed) + len(skipped) == len(report.entries)
        assert confirmed

    def test_unbounded_elements_skipped(self):
        report = au.audit_4or5(parse_sparam("empty"))
        assert any(
            e.status == "Skipped" and "maximal" in e.note for e in report.entries
        )


class TestSteps:
    def test_proof_reading_confirmed(self, family_param):
        _, s = family_param
        report = au.audit_steps(s)
        assert report.ok
        proof = [e for e in report.entries if e.fields().get("reading") == "proof"]
        assert proof and all(e.status == "Confirmed" for e in proof)
        sigma_entries = [e for e in report.entries if e.fields().get("term") == "sigma"]
        assert sigma_entries and all(e.status == "Confirmed" for e in sigma_entries)

    def test_discrepancies_recorded(self):
        report = au.audit_steps(parse_sparam("{3}"))
        assert allow_keys(report) == {"nu4-proof-line", "statement-reading"}
        nu4 = [e for e in report.entries if e.fields().get("reading") == "proof-line-nu4"]
        assert nu4 and all(e.status == "Counterexample" and e.allowlisted for e in nu4)


class TestBgen:
    def test_every_generator_derived(self, family_param):
        _, s = family_param
        report = au.audit_bgen(s)
        assert report.ok, report.failures[:3]
        for prefix in ("V", "D", "U", "A", "S", "Sbar"):
            entries = [
                e for e in report.entries
                if e.fields().get("term") == prefix and e.status == "Confirmed"
            ]
            assert entries, prefix

    def test_printed_forms_recorded(self):
        report = au.audit_bgen(parse_sparam("empty"))
        assert allow_keys(report) == {
            "lower-row-printed",
            "offrow-printed-index-one",
            "a1-printed-level-mismatch",
        }


class TestTop:
    def test_ok(self, family_param):
        _, s = family_param
        report = au.audit_top(s)
        assert report.ok
        assert not allow_keys(report)


class TestSent:
    def test_ok(self, family_param):
        _, s = family_param
        report = au.audit_sent(s)
        assert report.ok, report.failures[:3]

    def test_tau_truth_exactly_printed(self, family_param):
        # the quantified-sentence claims hold exactly as printed: tau holds
        # iff the step index is in the pattern and the atom has index 1
        _, s = family_param
        report = au.audit_sent(s)
        taus = [e for e in report.entries if e.fields().get("check") == "tau"]
        assert taus and all(e.status == "Confirmed" for e in taus)

    def test_phi_index_one_confirmed(self, family_param):
        _, s = family_param
        report = au.audit_sent(s)
        ones = [
            e for e in report.entries
            if e.fields().get("check") == "phi-printed" and e.fields().get("m") == "1"
        ]
        assert ones and all(e.status == "Confirmed" for e in ones)

    def test_phi_deviations_only_at_pattern_atoms(self):
        s = parse_sparam("{3}")
        report = au.audit_sent(s)
        for e in report.entries:
            f = e.fields()
            if f.get("check") == "phi-printed" and e.status == "Counterexample":
                assert f["pattern"] == "in" and f["m"] != "1"
        derived = [e for e in report.entries if e.fields().get("check") == "phi-derived"]
        assert derived and all(e.status == "Confirmed" for e in derived)

    def test_byte_identical_across_runs_and_jobs(self):
        s = parse_sparam("{3,7}")
        first = au.audit_sent(s).to_records()
        second = au.audit_sent(s).to_records()
        items = [(param, ("sent",), au.DEFAULT_SEED) for param in (s, parse_sparam("{3}"))]

        def records(jobs):
            return [[report.to_records() for report in reports]
                    for reports in parallel_map(au.audit_parameter, items, jobs)]

        serial, pooled = records(1), records(2)
        assert first == second == serial[0][0] == pooled[0][0]
        assert serial == pooled


class TestTermsBuiltOnce:
    # (tm.nu, tm.tau, tm.nu_steps, tm.tau_steps) calls of one lemma call, and
    # the sha256 of its records on {3}.  Each lemma builds its step terms as
    # one recurrence (tau_steps runs nu_steps), and sent reads its witness
    # entries off the same batch, so it builds no tau(n) or nu(n).
    CALLS = {
        "steps": ((0, 0, 1, 0), "2fca17c178725b95ca3cfdbedc0eb6a95b2dfb921396187bfce1bf31fcb25fe3"),
        "bgen": ((0, 0, 1, 0), "c361ac3fffcc363416c0cac8d391f364c973d91f9a89f0e84275051037ed895d"),
        "sent": ((0, 0, 1, 1), "5eca4de763510a2a4c548e5e14630edc9734405a2d2e59edc563621603cd678d"),
    }

    @pytest.mark.parametrize("lemma", sorted(CALLS))
    def test_each_term_is_built_once_per_call(self, monkeypatch, lemma):
        counts = {"nu": 0, "tau": 0, "nu_steps": 0, "tau_steps": 0}

        def counted(name):
            build = getattr(tm, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return build(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(tm, name, counted(name))
        report = au.AUDITS[lemma](parse_sparam("{3}"))
        calls, digest = self.CALLS[lemma]
        assert tuple(counts.values()) == calls
        assert hashlib.sha256(report.to_records().encode()).hexdigest() == digest


class TestOperatorCalls:
    # calls of the five set operators, hits and misses, in one lemma call on
    # {3} from empty memo tables (13600, 26617 and 11073 before the lemmas
    # ran one program per batch and the clause images were memoized).  Each
    # program step runs once per binding, and a memoized clause image skips
    # its unions on a hit, so undoing either sharing raises these counts.
    # ``distinguish`` is one call on a near-miss pair that first differs at
    # n = 41, so one side sweeps tau_41 over all 64 atoms.  A faster set
    # kernel leaves every count as it is: it makes the calls cheaper, not
    # fewer.
    CALLS = {"steps": 920, "sent": 3594, "cross": 6721, "distinguish": 6369}
    OPERATORS = ("union", "intersect", "complement", "apply_f", "apply_g")
    NEAR_MISS = ("{3,7,11,19,23,29,31,37} tail=out bound=41",
                 "{3,7,11,19,23,29,31,37,41} tail=out bound=41")

    def run(self, name):
        if name == "distinguish":
            s, t = map(parse_sparam, self.NEAR_MISS)
            assert tm.distinguish(s, t).verdict == "Separated"
        else:
            au.AUDITS[name](parse_sparam("{3}"))

    @pytest.mark.parametrize("lemma", sorted(CALLS))
    def test_operator_calls_are_pinned(self, monkeypatch, lemma):
        calls = [0]

        def counted(op):
            def wrapper(*args):
                calls[0] += 1
                return op(*args)
            return wrapper

        for op in MEMOIZED:  # before the patch: the counting wrapper has no cache_clear
            op.cache_clear()
        for name in self.OPERATORS:
            monkeypatch.setattr(sym, name, counted(getattr(sym, name)))
        self.run(lemma)
        assert calls[0] == self.CALLS[lemma]


class TestCross:
    def test_ok(self, family_param):
        _, s = family_param
        report = au.cross_validate(s)
        assert report.ok, report.failures[:3]
        assert not report.counterexamples


def toggled(x, p, m):
    """x with the membership of the vertex (p, m) flipped."""
    a = sym.basis(x.sparam, sym.BasisSet("A", p, m))
    return sym.union(sym.intersect(x, sym.complement(a)), sym.intersect(sym.complement(x), a))


class TestOracleLayout:
    """The mask comparison covers exactly the inner window: levels -7..7 and
    indices 1..47 of the 17 x 48 oracle window."""

    INNER_CORNERS = [(-7, 1), (7, 47)]
    OUTSIDE_INNER = [(0, 48), (-7, 48), (7, 48), (-8, 1), (-8, 47), (8, 1), (8, 47)]

    @pytest.mark.parametrize("op", ["f", "g"])
    def test_inner_window_is_compared_and_nothing_else(self, op):
        s = parse_sparam("{3}")
        rule = sym.apply_f if op == "f" else sym.apply_g
        for b in (sym.BasisSet("A", 0, 5), sym.BasisSet("V", 0), sym.BasisSet("S", -2, 4)):
            x = sym.basis(s, b)
            result = rule(x)
            assert au._oracle_agrees(s, x, result, op), b
            for p, m in self.INNER_CORNERS:
                assert not au._oracle_agrees(s, x, toggled(result, p, m), op), (b, p, m)
            for p, m in self.OUTSIDE_INNER:
                assert au._oracle_agrees(s, x, toggled(result, p, m), op), (b, p, m)


def records(capsys, argv):
    assert main([*argv, "--format", "records"]) == 0
    return capsys.readouterr().out


class TestHistoryIndependence:
    """The operator memo never shows in the output: the same records come
    out cold, warm from another lemma on the same parameter, and after a
    different parameter."""

    @pytest.mark.parametrize("argv, same_param, other_param", [
        (("audit", "cross", "--s", "O"), ("audit", "fg", "--s", "O"),
         ("audit", "desc", "--s", "{3}")),
        (("audit", "sent", "--s", "{3}"), ("audit", "steps", "--s", "{3}"),
         ("audit", "top", "--s", "O")),
    ], ids=["cross", "sent"])
    def test_records_do_not_depend_on_the_memo(self, capsys, argv, same_param, other_param):
        for op in MEMOIZED:
            op.cache_clear()
        cold = records(capsys, argv)
        records(capsys, same_param)
        warm = records(capsys, argv)
        records(capsys, other_param)
        after_switch = records(capsys, argv)
        assert cold == warm == after_switch


class TestReportMechanics:
    def test_deterministic_text(self):
        s = parse_sparam("{3}")
        assert au.audit_fg(s).to_text() == au.audit_fg(s).to_text()
        assert au.audit_desc(s).to_text() == au.audit_desc(s).to_text()

    def test_records_parse_back(self):
        report = au.audit_fg(parse_sparam("empty"))
        lines = report.to_records().splitlines()
        assert lines[-1].startswith('lemma=fg param="{} tail=out bound=3" checked=')
        assert all(line.startswith("lemma=fg ") for line in lines)

    def test_seed_changes_samples_not_verdict(self):
        s = parse_sparam("{3}")
        a = au.audit_4or5(s, seed=1)
        b = au.audit_4or5(s, seed=2)
        assert a.ok and b.ok

    def test_allowlist_is_documented(self):
        for rule in au.ALLOWLIST:
            assert rule.lemma in au.AUDITS
            assert rule.reason and rule.key

    def test_every_allowlist_rule_allowlists_a_default_family_entry(self):
        # no rule is dead: each one marks some counterexample of the family
        used = set()
        for lemma in {rule.lemma for rule in au.ALLOWLIST}:
            for _, s in default_family():
                used |= {(lemma, key) for key in allow_keys(au.AUDITS[lemma](s))}
        assert used == {(rule.lemma, rule.key) for rule in au.ALLOWLIST}

    def test_grids_are_fixed_and_only_sampled_lemmas_take_a_seed(self):
        for lemma, fn in au.AUDITS.items():
            expected = ["s", "seed"] if lemma in au._SEEDED else ["s"]
            assert list(inspect.signature(fn).parameters) == expected, lemma
        assert list(inspect.signature(au.sample_element).parameters) == ["rng", "s"]

    def test_entry_eq_rejects_sets_over_different_parameters(self):
        a1 = sym.basis_a(parse_sparam("{3}"), 0, 1)
        b1 = sym.basis_a(parse_sparam("{5}"), 0, 1)
        with pytest.raises(ValueError):
            au._entry_eq("claim=x", "A(0,1)", a1, b1)

    def test_entry_eq_shows_both_values_of_a_failed_claim(self):
        s = parse_sparam("{3}")
        assert au._entry_eq("c=1", "w", True, True) == au.AuditEntry("c=1", "Confirmed")
        assert au._entry_eq("c=1", "w", True, False, note="n") == au.AuditEntry(
            "c=1", "Counterexample", "w", "False", "True", note="n")
        a1, a2 = sym.basis_a(s, 0, 1), sym.basis_a(s, 0, 2)
        assert au._entry_eq("c=2", "w", a1, a1) == au.AuditEntry("c=2", "Confirmed")
        assert au._entry_eq("c=2", "w", a1, a2) == au.AuditEntry(
            "c=2", "Counterexample", "w", sym.display(a2), sym.display(a1))


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the size asked for and
    maps in this process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)
