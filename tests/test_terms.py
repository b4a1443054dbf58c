import random

import pytest

from conftest import random_element
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.frames import Frame, TruncationSpec, VertexId, build_truncation
from tensebench.sparam import S_EMPTY, parse_sparam
from test_random_params import PARAMS


def atom(s, p, m):
    return sym.basis_a(s, p, m)


def two_element_identity_algebra():
    return Frame([VertexId(0, 1)], [(VertexId(0, 1), VertexId(0, 1))])


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
        for evaluate in (tm.eval_term, reference_eval):
            with pytest.raises(ValueError, match="unbound variable 'y'"):
                evaluate(tm.parse_term("x | y"), handle, {"x": sym.empty_set(S_EMPTY)})


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
        x = frame.mask([VertexId(0, 3)])
        from tensebench.frames import complex_f, complex_g

        meet = frame.unmask(complex_f(frame, x) & complex_g(frame, x))
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
        frame = build_truncation(TruncationSpec(0, 1, 3), s)
        handle = tm.FiniteHandle(frame)
        # the same carrier, with quantifiers decided by the cardinality
        # classifier instead of by enumeration
        classified = type("Classified", (tm.FiniteHandle,),
                          {"quantify": tm.SymbolicHandle.quantify})(frame)
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


def tau_at(s, n, x):
    """The truth of tau_n at x on the symbolic carrier for s."""
    return tm.eval_formula(tm.tau(n), tm.SymbolicHandle(s), {"x": x})


class TestTau:
    def test_member_index_enables_tau(self):
        s = parse_sparam("{3}")
        assert tau_at(s, 3, atom(s, 0, 1))

    def test_missing_index_disables_tau(self):
        assert not tau_at(S_EMPTY, 3, atom(S_EMPTY, 0, 1))

    def test_even_index_always_enables_tau(self, family_param):
        _, s = family_param
        assert tau_at(s, 4, atom(s, 0, 1))

    def test_tau_false_off_atoms(self, family_param):
        _, s = family_param
        assert not tau_at(s, 4, sym.basis_d(s, 0))
        assert not tau_at(s, 4, sym.empty_set(s))

    def test_level_invariance(self, family_param):
        _, s = family_param
        for n in (3, 4, 5):
            base = tau_at(s, n, atom(s, 0, 1))
            for p in range(-2, 3):
                assert tau_at(s, n, atom(s, p, 1)) == base
                assert tau_at(s, n, atom(s, p, 3)) == tau_at(s, n, atom(s, 0, 3))


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
        assert report.verdict == "Identical"

    def test_odd_set_vs_empty(self):
        report = tm.distinguish(parse_sparam("O"), parse_sparam("empty"))
        assert report.witness_n == 3 and report.verdict == "Separated"

    def test_records_shape(self):
        report = tm.distinguish(parse_sparam("{3}"), parse_sparam("{5}"))
        lines = report.to_records()
        assert lines[0] == "witness_n=3"
        assert lines[-1] == "verdict=Separated"

    def test_tau_is_the_last_of_its_steps_and_starts_at_three(self):
        assert tm.tau(9, "z") == tm.tau_steps(9, "z")[-1]
        for n in (2, 0, -1):
            with pytest.raises(ValueError):
                tm.tau(n)

    def test_each_tau_is_compiled_once(self, monkeypatch):
        # both sides, and later requests with the same witness_n, share
        # one tau_n node and so its one compiled program
        compiles = [0]
        compile_program = tm.compile_program

        def counted(roots):
            compiles[0] += 1
            return compile_program(roots)

        monkeypatch.setattr(tm, "compile_program", counted)
        tm.tau.cache_clear()
        assert tm.tau(7) is tm.tau(7)
        first = tm.distinguish(parse_sparam("{3,7}"), parse_sparam("{3}"))
        assert first.witness_n == 7 and compiles[0] > 0
        once = compiles[0]
        again = tm.distinguish(parse_sparam("{7,9}"), parse_sparam("{9}"))
        assert again.witness_n == 7 and compiles[0] == once


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

    @pytest.mark.parametrize("parse, text", [
        (tm.parse_term, "x | &"),
        (tm.parse_term, "x & )"),
        (tm.parse_term, "="),
        (tm.parse_term, "."),
        (tm.parse_formula, "x = &"),
        (tm.parse_formula, "x != )"),
        (tm.parse_formula, "= = x"),
        (tm.parse_formula, "x = ."),
    ])
    def test_operator_token_is_no_variable(self, parse, text):
        with pytest.raises(ValueError):
            parse(text)

    def test_quantifier_body_runs_to_the_end_of_its_bracket_group(self):
        x, y, w = tm.Var("x"), tm.Var("y"), tm.Var("w")
        assert tm.parse_formula("x = 0 and exists_atom w . x = w or y = 0") == tm.And(
            tm.Eq(x, tm.ZERO), tm.ExistsAtoms(("w",), tm.Or(tm.Eq(x, w), tm.Eq(y, tm.ZERO))))
        assert tm.parse_formula("(exists w . x = w) or y = 0") == tm.Or(
            tm.Exists(("w",), tm.Eq(x, w)), tm.Eq(y, tm.ZERO))
        assert tm.parse_formula("not forall _w . x = _w") == tm.NotF(
            tm.Forall(("_w",), tm.Eq(x, tm.Var("_w"))))

    @pytest.mark.parametrize("parse, text, spine, leaf", [
        (tm.parse_term, "f(" * 1500 + "x" + ")" * 1500, tm.Fop, tm.Var("x")),
        (tm.parse_formula, "not " * 1500 + "x = 0", tm.NotF, tm.Eq(tm.Var("x"), tm.ZERO)),
        (tm.parse_formula, "(" * 1500 + "x = 0" + ")" * 1500, None, tm.Eq(tm.Var("x"), tm.ZERO)),
    ], ids=["term", "formula-not", "formula-parens"])
    def test_too_deep_to_parse(self, parse, text, spine, leaf):
        # deeper than the recursion limit: the parser keeps its own stacks
        node = parse(text)
        for _ in range(1500 if spine else 0):
            assert type(node) is spine
            node = node.arg
        assert node == leaf


class TestQuantifierNames:
    @pytest.mark.parametrize("node", [tm.ExistsAtoms, tm.ForallAtoms, tm.Exists, tm.Forall])
    @pytest.mark.parametrize("names", [(), ("w", "w"), ("w", "y", "w")])
    def test_node_refuses_no_names_or_a_repeated_one(self, node, names):
        with pytest.raises(ValueError, match="distinct names"):
            node(names, tm.Eq(tm.Var("x"), tm.ZERO))

    @pytest.mark.parametrize("text", [
        "exists_atom w w . x = w | w",
        "exists_atom . x = 0",
        "forall y y . x = y",
        "x = 0 and exists_atom w y w . x = w",
    ])
    def test_parser_refuses_no_names_or_a_repeated_one(self, text):
        with pytest.raises(ValueError, match="distinct names"):
            tm.parse_formula(text)

    def test_join_of_two_atoms_agrees_on_both_carriers(self):
        # with the names distinct, the classifier and the enumeration of
        # the truncation agree
        s = S_EMPTY
        fm = tm.parse_formula("exists_atom w y . x = w | y")
        x = sym.union(atom(s, 0, 1), atom(s, 0, 2))
        assert tm.eval_formula(fm, tm.SymbolicHandle(s), {"x": x})
        frame = build_truncation(TruncationSpec(-1, 1, 4), s)
        finite = tm.FiniteHandle(frame)
        assert tm.eval_formula(fm, finite, {"x": frame.mask([VertexId(0, 1), VertexId(0, 2)])})


class TestOracleAgreement:
    def test_term_suite_matches_truncation(self, family_param):
        """Symbolic evaluation restricted to the margin window equals the
        finite-algebra evaluation on the truncated frame."""
        _, s = family_param
        suite = [tm.beta(), tm.sigma()] + [tm.nu(n) for n in range(3, 13)]
        depth = max(tm.modal_depth(t) for t in suite)
        window = TruncationSpec(-depth - 2, depth + 2, depth + 10)
        frame = build_truncation(window, s, budget=10000)
        finite = tm.FiniteHandle(frame)
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


# ---------------------------------------------------------------------------
# the compiled evaluator against a plain tree walk


def reference_eval(t, handle, env):
    """The reference: walk the term as a tree, shared nodes once per path."""
    if isinstance(t, tm.Var):
        if t.name not in env:
            raise ValueError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, tm.Zero):
        return handle.zero()
    if isinstance(t, tm.One):
        return handle.one()
    if isinstance(t, tm.Join):
        return handle.join(reference_eval(t.left, handle, env), reference_eval(t.right, handle, env))
    if isinstance(t, tm.Meet):
        return handle.meet(reference_eval(t.left, handle, env), reference_eval(t.right, handle, env))
    op = {tm.Not: handle.neg, tm.Fop: handle.f, tm.Gop: handle.g}[type(t)]
    return op(reference_eval(t.arg, handle, env))


def random_shared_term(rng, size, names=("x", "y")):
    """A term DAG: each new node takes its children from all earlier nodes,
    so subterms are shared; the last node is returned."""
    pool = [tm.Var(n) for n in names] + [tm.ZERO, tm.ONE]
    for _ in range(size):
        kind = rng.choice([tm.Join, tm.Meet, tm.Not, tm.Fop, tm.Gop, tm.Fop, tm.Gop])
        if kind in (tm.Join, tm.Meet):
            pool.append(kind(rng.choice(pool), rng.choice(pool)))
        else:
            pool.append(kind(rng.choice(pool)))
    return pool[-1]


def random_finite_algebra(rng, k):
    vertices = [VertexId(0, i) for i in range(1, k + 1)]
    edges = [(u, v) for u in vertices for v in vertices if rng.random() < 0.4]
    return Frame(vertices, edges)


class TestCompiledEvaluator:
    def test_equals_reference_on_finite_algebras(self):
        rng = random.Random(2006)
        for _ in range(60):
            handle = tm.FiniteHandle(random_finite_algebra(rng, rng.randint(1, 5)))
            term = random_shared_term(rng, rng.randint(1, 14))
            for _ in range(4):
                env = {"x": rng.randrange(handle.one() + 1), "y": rng.randrange(handle.one() + 1)}
                assert tm.eval_term(term, handle, env) == reference_eval(term, handle, env)

    @pytest.mark.parametrize("s", PARAMS, ids=str)
    def test_equals_reference_on_random_params(self, s):
        rng = random.Random(f"programs {s}")
        handle = tm.SymbolicHandle(s)
        for _ in range(4):
            term = random_shared_term(rng, rng.randint(1, 8))
            x, _ = random_element(rng, s, max_index=s.stable_from + 4)
            y, _ = random_element(rng, s, max_index=s.stable_from + 4)
            env = {"x": x, "y": y}
            assert tm.eval_term(term, handle, env) == reference_eval(term, handle, env)
        a1 = atom(s, 0, 1)
        for term in (tm.sigma(), tm.nu(6)):
            assert tm.eval_term(term, handle, {"x": a1}) == reference_eval(term, handle, {"x": a1})

    def test_program_runs_each_shared_node_once(self):
        x = tm.Var("x")
        shared = tm.Fop(x)
        term = tm.Join(tm.Meet(shared, tm.Not(shared)), shared)
        assert [step[0] for step in term._program.terms] == [
            tm.Var, tm.Fop, tm.Not, tm.Meet, tm.Join]
        assert term._program is term._program  # compiled once, kept on the node
        assert term == tm.Join(tm.Meet(tm.Fop(x), tm.Not(tm.Fop(x))), tm.Fop(x))

    def test_duplicate_nodes_compile_to_the_shared_program(self):
        # separate Var("x") and f(x) objects share the steps of one of each
        shared_f = tm.Fop(tm.Var("x"))
        shared = tm.Join(tm.Meet(shared_f, tm.Not(shared_f)), tm.Gop(shared_f))
        duplicated = tm.Join(tm.Meet(tm.Fop(tm.Var("x")), tm.Not(tm.Fop(tm.Var("x")))),
                             tm.Gop(tm.Fop(tm.Var("x"))))
        assert duplicated == shared
        assert duplicated._program == shared._program
        assert [step[0] for step in shared._program.terms] == [
            tm.Var, tm.Fop, tm.Not, tm.Meet, tm.Gop, tm.Join]
        rng = random.Random(7)
        for _ in range(8):
            handle = tm.FiniteHandle(random_finite_algebra(rng, rng.randint(1, 5)))
            env = {"x": rng.randrange(handle.one() + 1)}
            want = reference_eval(duplicated, handle, env)
            assert tm.eval_term(duplicated, handle, env) == tm.eval_term(shared, handle, env) == want
        for s in PARAMS[:6]:
            handle = tm.SymbolicHandle(s)
            env = {"x": random_element(rng, s, max_index=s.stable_from + 4)[0]}
            want = reference_eval(duplicated, handle, env)
            assert tm.eval_term(duplicated, handle, env) == tm.eval_term(shared, handle, env) == want


class CountingHandle(tm.FiniteHandle):
    def __init__(self, frame):
        super().__init__(frame)
        self.f_calls = 0

    def f(self, a):
        self.f_calls += 1
        return super().f(a)


def old_nu(n, var="x"):
    """nu as built before its steps shared their f nodes: two new f per step."""
    x = tm.Var(var)
    sig = tm.sigma(var)
    prev2 = tm.Meet(tm.Fop(sig), tm.Not(tm.Fop(x)))
    if n == 3:
        return prev2
    prev1 = tm.Meet(tm.Fop(prev2), tm.Not(tm.Fop(sig)))
    for _ in range(5, n + 1):
        prev2, prev1 = prev1, tm.Meet(tm.Fop(prev1), tm.Not(tm.Fop(prev2)))
    return prev1


class TestSharedNuSteps:
    # == walks the DAG as a tree, whose size grows like Fibonacci in n
    @pytest.mark.parametrize("n", range(3, 13))
    def test_same_ast_as_the_old_recurrence(self, n):
        assert tm.nu(n) == old_nu(n)

    def test_one_f_node_per_step(self):
        # sigma has 8 distinct f steps (its f(x) is beta's) and nu_3 adds
        # f(sigma), as its f(x) is the same step; each later step adds one
        handle = CountingHandle(two_element_identity_algebra())
        for n in range(3, 42):
            handle.f_calls = 0
            tm.eval_term(tm.nu(n), handle, {"x": 1})
            assert handle.f_calls == n + 6, n


class TestQuantifierShapes:
    @pytest.mark.parametrize("text", [
        "exists_atom w . f(w) = w",
        "exists_atom w y . x = w",
        "exists_atom w . f(w) = w | x",
        "exists_atom w . x != w",
        "forall_atom y z . x & y = 0 or x & y = x",
        "forall_atom y . x & y = 0",
        "forall_atom y . y & y = 0 or y & y = y",
        "forall_atom y . x & y = 0 or x & y = f(x)",
    ])
    def test_unsupported_shapes_still_rejected(self, text):
        handle = tm.SymbolicHandle(S_EMPTY)
        fm = tm.parse_formula(text)
        for _ in range(2):  # the matched shape is kept on the node; it must reject again
            with pytest.raises(tm.UnsupportedQueryError):
                tm.eval_formula(fm, handle, {"x": atom(S_EMPTY, 0, 1)})

    def test_subject_is_matched_once_per_node(self):
        fm = tm.phi()
        exists = fm.right.arg
        assert isinstance(exists, tm.ExistsAtoms)
        assert exists._subject is exists.body.left  # f(x) & g(x), the node itself
        forall = fm.left.right
        assert forall._subject is forall.body.left.left.left  # x in x & y
        handle = tm.SymbolicHandle(S_EMPTY)
        assert tm.eval_formula(fm, handle, {"x": atom(S_EMPTY, 0, 1)})
        assert exists.__dict__["_subject"] is exists.body.left
