"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Tolerances are exact equality throughout; the stated wall
clock budgets are asserted where the criterion pins one.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import random_element
from tensebench import audit as au
from tensebench import relalg as ra
from tensebench import search as se
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.frames import (
    TruncationSpec,
    as_finite_algebra,
    build_truncation,
    complex_f,
    complex_g,
)
from tensebench.parallel import parallel_map
from tensebench.sparam import default_family

FAMILY = default_family()
WINDOW = TruncationSpec(-8, 8, 48)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number:2d}: PASS - {description} ({elapsed:.1f}s)")


def all_basis_sets(s):
    for p in range(-3, 4):
        for kind in ("D", "U", "V"):
            yield sym.BasisSet(kind, p)
        for m in range(1, 13):
            for kind in ("A", "S", "Sbar"):
                yield sym.BasisSet(kind, p, m)


def test_criterion_1_dual_path_and_oracle_agreement():
    with criterion(1, "rule path = clause table = truncation oracle on the basis grid"):
        started = time.perf_counter()
        inner = WINDOW.shrink(1)
        for _, s in FAMILY:
            frame = build_truncation(WINDOW, s)
            for b in all_basis_sets(s):
                x = sym.basis(s, b)
                base = frame.mask(sym.restrict_to_window(x, WINDOW))
                for rule, table, oracle in (
                    (sym.apply_f, sym.apply_f_table, complex_f),
                    (sym.apply_g, sym.apply_g_table, complex_g),
                ):
                    got = rule(x)
                    assert sym.is_equal(got, table(x)), b
                    want = {v for v in frame.unmask(oracle(frame, base)) if inner.contains(v)}
                    assert set(sym.restrict_to_window(got, inner)) == want, b
        assert time.perf_counter() - started < 10.0


def test_criterion_2_clause_audit_clean():
    with criterion(2, "17-clause audit: no counterexamples outside the shipped allowlist"):
        started = time.perf_counter()
        expected_keys = {"g15-row-start", "g17-index-one", "f7-index-one"}
        for _, s in FAMILY:
            report = au.audit_fg(s)
            assert report.ok, report.failures[:3]
            seen = {
                e.note.split("allow:")[-1]
                for e in report.counterexamples
                if e.allowlisted
            }
            assert seen <= expected_keys
        assert time.perf_counter() - started < 10.0


def test_criterion_3_algebraic_law_suite():
    with criterion(3, "Boolean, conjugacy, totality, and shift laws on 1000 elements per parameter"):
        started = time.perf_counter()
        for _, s in FAMILY:
            rng = random.Random(au.DEFAULT_SEED)
            full = sym.full_set(s)
            for _ in range(1000):
                x, _ = random_element(rng, s)
                y, _ = random_element(rng, s)
                assert sym.is_equal(
                    sym.complement(sym.union(x, y)),
                    sym.intersect(sym.complement(x), sym.complement(y)),
                )
                assert sym.is_equal(sym.complement(sym.complement(x)), x)
                fx, gy = sym.apply_f(x), sym.apply_g(y)
                assert sym.is_empty(sym.intersect(fx, y)) == sym.is_empty(
                    sym.intersect(x, gy)
                )
                if not sym.is_empty(x):
                    assert sym.is_equal(sym.union(fx, sym.apply_g(x)), full)
                d = rng.randint(-2, 2)
                assert sym.shift(sym.union(x, y), d) == sym.union(
                    sym.shift(x, d), sym.shift(y, d)
                )
                assert sym.shift(fx, d) == sym.apply_f(sym.shift(x, d))
        assert time.perf_counter() - started < 30.0


def test_criterion_4_double_step_rows():
    with criterion(4, "both double-step cases land exactly two rows up, 200 samples each"):
        for _, s in FAMILY:
            report = au.audit_4or5(s)
            assert len(report.entries) == 200
            assert report.ok
            assert not report.counterexamples
            assert report.confirmed > 0


def test_criterion_5_step_terms():
    with criterion(5, "sigma and the step terms reach their indices; the proof-line slip is allowlisted"):
        for _, s in FAMILY:
            report = au.audit_steps(s)
            assert report.ok
            proof = [e for e in report.entries if e.fields().get("reading") == "proof"]
            assert len(proof) == 5 * 22
            assert all(e.status == "Confirmed" for e in proof)
            sigmas = [e for e in report.entries if e.fields().get("term") == "sigma"]
            assert all(e.status == "Confirmed" for e in sigmas)
            slip = [e for e in report.entries if e.fields().get("reading") == "proof-line-nu4"]
            assert slip and all(e.allowlisted for e in slip)


def test_criterion_6_generation_replay():
    with criterion(6, "every basis element in the window derived from the level-0 row"):
        for _, s in FAMILY:
            report = au.audit_bgen(s)
            assert report.ok, report.failures[:3]
            for prefix, count in (("V", 7), ("D", 5), ("U", 5), ("A1", 5)):
                entries = [
                    e for e in report.entries if e.fields().get("term") == prefix
                ]
                assert len(entries) == count and all(
                    e.status == "Confirmed" for e in entries
                ), prefix


def test_criterion_7_separation():
    with criterion(7, "every parameter pair separated with a witness step at most 9"):
        started = time.perf_counter()
        for (la, sa), (lb, sb) in itertools.combinations(FAMILY, 2):
            report = tm.distinguish(sa, sb)
            assert report.verdict == "Separated", (la, lb, report.verdict)
            assert report.witness_n is not None and report.witness_n <= 9
            containing = report.s_result if sa.contains(report.witness_n) else report.t_result
            other = report.t_result if sa.contains(report.witness_n) else report.s_result
            assert containing.found and containing.index == 1
            assert not other.found
        assert time.perf_counter() - started < 60.0


def test_criterion_8_sentence_audit_determinism():
    with criterion(8, "sentence audit byte-identical across runs and worker counts; truth sets exact"):
        items = [(s, ("sent",), au.DEFAULT_SEED) for _, s in FAMILY]
        serial = [reports[0] for reports in parallel_map(au.audit_parameter, items, 1)]
        pooled = [reports[0] for reports in parallel_map(au.audit_parameter, items, 2)]
        for (_, s), second, parallel in zip(FAMILY, serial, pooled, strict=True):
            first = au.audit_sent(s)
            assert first.to_records() == second.to_records() == parallel.to_records()
            assert first.to_text() == second.to_text()
            assert first.ok
            for e in first.entries:
                fields = e.fields()
                if fields.get("check") == "phi-printed" and fields.get("m") == "1":
                    assert e.status == "Confirmed"
                if fields.get("check") == "tau" and fields.get("m") == "1":
                    assert e.status == "Confirmed"
                if fields.get("check") == "exists-tau":
                    assert e.status == "Confirmed"


def test_criterion_9_minimal_relation_algebras():
    with criterion(9, "the three minimal algebras from proper algebras; axiom profiles; triangle dual-path"):
        started = time.perf_counter()
        a1 = ra.minimal_point_algebra(1)
        a2 = ra.minimal_point_algebra(2)
        a3 = ra.minimal_point_algebra(3)
        assert (a1.one + 1, a2.one + 1, a3.one + 1) == (2, 4, 4)
        d2 = a2.one ^ a2.identity
        d3 = a3.one ^ a3.identity
        assert a2.compose(d2, d2) == a2.identity
        assert a3.compose(d3, d3) == a3.one
        r2 = ra.check_axioms(a2)
        r3 = ra.check_axioms(a3)
        assert r3.triangle and r3.associative and r3.symmetric and r3.reflexive
        assert r2.semiassociative and not r2.reflexive
        from test_relalg import all_raw_structures

        for k in (1, 2, 3):
            for structure in all_raw_structures(k):
                alg = ra.expand(structure)
                by_atoms, _ = ra.triangle_by_atoms(structure)
                by_elements, _ = ra.triangle_by_elements(alg)
                assert by_atoms == by_elements
        assert time.perf_counter() - started < 20.0


def test_criterion_10_search():
    with criterion(10, "frame enumeration counts, parallel determinism, discriminator checks"):
        started = time.perf_counter()
        report5, _ = se.enumerate_total_frames(5)
        report_sa, _ = se.enumerate_atom_structures(4, ("sym", "sa"))
        assert (report5.raw_count, report5.iso_count) == (59049, 582)
        assert (report_sa.raw_count, report_sa.iso_count) == (1024, 148)
        assert time.perf_counter() - started < 10.0
        report1, frames1 = se.enumerate_total_frames(1)
        assert report1.iso_count == 1
        alg = as_finite_algebra(frames1[0])
        assert alg.one == 1 and alg.f(1) == 1 and alg.g(1) == 1 and alg.f(0) == 0
        report2, _ = se.enumerate_total_frames(2)
        assert report2.iso_count == 2
        serial, serial_structures = se.enumerate_atom_structures(3, jobs=1)
        parallel, parallel_structures = se.enumerate_atom_structures(3, jobs=2)
        assert serial.to_records() == parallel.to_records()
        assert serial_structures == parallel_structures
        for k in (1, 2, 3):
            _, frames = se.enumerate_total_frames(k)
            for frame in frames:
                assert se.check_discriminator(as_finite_algebra(frame))
