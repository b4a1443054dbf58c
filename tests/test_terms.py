import random

import pytest

from conftest import random_element
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.frames import Frame, TruncationSpec, VertexId, as_finite_algebra, build_truncation
from tensebench.sparam import S_EMPTY, parse_sparam


def atom(s, p, m):
    return sym.basis_a(s, p, m)


def two_element_identity_algebra():
    frame = Frame([VertexId(0, 1)], [(VertexId(0, 1), VertexId(0, 1))])
    return as_finite_algebra(frame)


class TestEvalTerm:
    def test_identity_operator_on_top(self):
        handle = tm.FiniteHandle(two_element_identity_algebra())
        assert tm.eval_term(tm.parse_term("f(x)"), handle, {"x": 1}) == 1

    def test_meet_with_complement_is_zero(self, family_param):
        _, s = family_param
        handle = tm.SymbolicHandle(s)
        rng = random.Random(2)
        term = tm.parse_term("x & ~x")
        for _ in range(10):
            x, _ = random_element(rng, s)
            assert sym.is_empty(tm.eval_term(term, handle, {"x": x}))

    def test_double_step_difference_on_a_union(self):
        # f^4(x) & ~f^2(x) at {a_{0,1}, a_{0,3}} lands exactly two rows up
        handle = tm.SymbolicHandle(S_EMPTY)
        x = sym.union(atom(S_EMPTY, 0, 1), atom(S_EMPTY, 0, 3))
        got = tm.eval_term(tm.beta(), handle, {"x": x})
        assert sym.is_equal(got, sym.basis_vrow(S_EMPTY, 2))

    def test_unbound_variable(self):
        handle = tm.SymbolicHandle(S_EMPTY)
        with pytest.raises(ValueError):
            tm.eval_term(tm.parse_term("x | y"), handle, {"x": sym.empty_set(S_EMPTY)})


class TestStepTerms:
    def test_sigma_steps_right(self, family_param):
        _, s = family_param
        handle = tm.SymbolicHandle(s)
        got = tm.eval_term(tm.sigma(), handle, {"x": atom(s, 0, 1)})
        assert sym.is_equal(got, atom(s, 0, 2))

    def test_nu_reaches_its_index(self, family_param):
        _, s = family_param
        handle = tm.SymbolicHandle(s)
        a1 = atom(s, -1, 1)
        got = tm.eval_term(tm.nu(7), handle, {"x": a1})
        assert sym.is_equal(got, atom(s, -1, 7))

    def test_shifted_double_step_at_non_index_one(self):
        # f^5(x) & ~f^3(x) at an atom away from index 1
        handle = tm.SymbolicHandle(S_EMPTY)
        term = tm.parse_term("f(f(f(f(f(x))))) & ~f(f(f(x)))")
        got = tm.eval_term(term, handle, {"x": atom(S_EMPTY, 0, 2)})
        assert sym.is_equal(got, sym.basis_vrow(S_EMPTY, 2))

    def test_nu_requires_three(self):
        with pytest.raises(ValueError):
            tm.nu(2)

    def test_sigma_contains_the_deep_subterm(self):
        text = tm.format_term(tm.sigma())
        assert "g(g(g(g(g(g(g(g(g(g(" in text  # the 10-fold preimage probe
        assert tm.modal_depth(tm.sigma()) == 18


class TestFormulas:
    def test_phi_at_index_one(self, family_param):
        _, s = family_param
        handle = tm.SymbolicHandle(s)
        assert tm.eval_formula(tm.phi(), handle, {"x": atom(s, 0, 1)})

    def test_phi_false_at_off_pattern_atom(self):
        # derived via the truncation oracle: the operator meet at a_{0,3} has
        # exactly three members for the empty parameter
        s = S_EMPTY
        window = TruncationSpec(-2, 2, 12)
        frame = build_truncation(window, s)
        x = frozenset([VertexId(0, 3)])
        from tensebench.frames import complex_f, complex_g

        meet = complex_f(frame, x) & complex_g(frame, x)
        inner = window.shrink(1)
        assert {v for v in meet if inner.contains(v)} == {
            VertexId(0, 2), VertexId(0, 3), VertexId(0, 4)
        }
        handle = tm.SymbolicHandle(s)
        assert not tm.eval_formula(tm.phi(), handle, {"x": atom(s, 0, 3)})

    def test_phi_false_at_non_atom(self):
        handle = tm.SymbolicHandle(S_EMPTY)
        assert not tm.eval_formula(tm.phi(), handle, {"x": sym.basis_d(S_EMPTY, 0)})

    def test_alpha_is_atomhood(self, family_param):
        _, s = family_param
        handle = tm.SymbolicHandle(s)
        assert tm.eval_formula(tm.alpha(), handle, {"x": atom(s, 1, 4)})
        assert not tm.eval_formula(tm.alpha(), handle, {"x": sym.empty_set(s)})
        assert not tm.eval_formula(tm.alpha(), handle, {"x": sym.basis_srow(s, 0, 1)})

    def test_finite_enumeration_matches_patterns(self):
        s = parse_sparam("{3}")
        frame = build_truncation(TruncationSpec(0, 1, 2), s)
        handle = tm.FiniteHandle(as_finite_algebra(frame))
        # the same carrier, marked symbolic so that quantifiers go to the
        # cardinality classifier instead of enumeration
        classified = type("Classified", (tm.FiniteHandle,), {"kind": "symbolic"})(handle.alg)
        for fm in (tm.alpha(), tm.phi()):
            for x in handle.elements():
                assert tm.eval_formula(fm, handle, {"x": x}) == tm.eval_formula(
                    fm, classified, {"x": x}
                )

    def test_unrestricted_quantifier_rejected_symbolically(self):
        handle = tm.SymbolicHandle(S_EMPTY)
        fm = tm.parse_formula("forall y . x & y = 0 or x & y = x")
        with pytest.raises(tm.UnsupportedQueryError):
            tm.eval_formula(fm, handle, {"x": atom(S_EMPTY, 0, 1)})

    def test_odd_shape_rejected_symbolically(self):
        handle = tm.SymbolicHandle(S_EMPTY)
        fm = tm.parse_formula("exists_atom w . f(w) = w")
        with pytest.raises(tm.UnsupportedQueryError):
            tm.eval_formula(fm, handle, {})


class TestTau:
    def test_member_index_enables_tau(self):
        s = parse_sparam("{3}")
        assert tm.eval_tau(s, 3, atom(s, 0, 1))

    def test_missing_index_disables_tau(self):
        assert not tm.eval_tau(S_EMPTY, 3, atom(S_EMPTY, 0, 1))

    def test_even_index_always_enables_tau(self, family_param):
        _, s = family_param
        assert tm.eval_tau(s, 4, atom(s, 0, 1))

    def test_tau_false_off_atoms(self, family_param):
        _, s = family_param
        assert not tm.eval_tau(s, 4, sym.basis_d(s, 0))
        assert not tm.eval_tau(s, 4, sym.empty_set(s))

    def test_level_invariance(self, family_param):
        _, s = family_param
        for n in (3, 4, 5):
            base = tm.eval_tau(s, n, atom(s, 0, 1))
            for p in range(-2, 3):
                assert tm.eval_tau(s, n, atom(s, p, 1)) == base
                assert tm.eval_tau(s, n, atom(s, p, 3)) == tm.eval_tau(s, n, atom(s, 0, 3))


class TestWitnessSearch:
    def test_found_at_index_one(self):
        s = parse_sparam("{3}")
        result = tm.exists_tau_witness(s, 3)
        assert result.found and result.index == 1

    def test_none_up_to_bound(self):
        result = tm.exists_tau_witness(S_EMPTY, 3)
        assert not result.found and result.bound == 64

    def test_even_always_witnessed(self):
        result = tm.exists_tau_witness(S_EMPTY, 4)
        assert result.found and result.index == 1


class TestDistinguish:
    def test_separates_three_vs_five(self):
        report = tm.distinguish(parse_sparam("{3}"), parse_sparam("{5}"))
        assert report.witness_n == 3
        assert report.s_result.found and not report.t_result.found
        assert report.verdict == "Separated"

    def test_identical(self):
        report = tm.distinguish(parse_sparam("{3}"), parse_sparam("{3}"))
        assert report.verdict == "Identical-below-bound"

    def test_odd_set_vs_empty(self):
        report = tm.distinguish(parse_sparam("O"), parse_sparam("empty"))
        assert report.witness_n == 3 and report.verdict == "Separated"

    def test_records_shape(self):
        report = tm.distinguish(parse_sparam("{3}"), parse_sparam("{5}"))
        lines = report.to_records()
        assert lines[0] == "witness_n=3"
        assert lines[-1] == "verdict=Separated"


class TestSyntax:
    @pytest.mark.parametrize(
        "text",
        ["f(x)", "g(x) & y", "x | y & ~z", "~(x | y)", "0", "1", "f(g(x & 1))"],
    )
    def test_term_roundtrip(self, text):
        term = tm.parse_term(text)
        assert tm.parse_term(tm.format_term(term)) == term

    @pytest.mark.parametrize(
        "text",
        [
            "x = y",
            "x != 0",
            "f(x) = 1 and not g(y) = 0",
            "exists_atom w y z . f(x) & g(x) = w | y | z",
            "forall_atom y . x & y = 0 or x & y = x",
        ],
    )
    def test_formula_roundtrip(self, text):
        fm = tm.parse_formula(text)
        assert tm.parse_formula(tm.format_formula(fm)) == fm

    def test_builders_roundtrip(self):
        for fm in (tm.alpha(), tm.phi(), tm.tau(3)):
            assert tm.parse_formula(tm.format_formula(fm)) == fm

    def test_reserved_names(self):
        with pytest.raises(ValueError):
            tm.parse_term("f & x")


class TestOracleAgreement:
    def test_term_suite_matches_truncation(self, family_param):
        """Symbolic evaluation restricted to the margin window equals the
        finite-algebra evaluation on the truncated frame."""
        _, s = family_param
        suite = [tm.beta(), tm.sigma()] + [tm.nu(n) for n in range(3, 13)]
        depth = max(tm.modal_depth(t) for t in suite)
        window = TruncationSpec(-depth - 2, depth + 2, depth + 10)
        frame = build_truncation(window, s, budget=10000)
        finite = tm.FiniteHandle(as_finite_algebra(frame))
        symbolic = tm.SymbolicHandle(s)
        for m in (1, 2):
            x = atom(s, 0, m)
            mask = 1 << frame.ordinal(VertexId(0, m))
            for term in suite:
                inner = window.shrink(tm.modal_depth(term))
                got = set(sym.restrict_to_window(
                    tm.eval_term(term, symbolic, {"x": x}), inner))
                value = tm.eval_term(term, finite, {"x": mask})
                want = {v for v in frame.vertices
                        if value >> frame.ordinal(v) & 1 and inner.contains(v)}
                assert got == want
