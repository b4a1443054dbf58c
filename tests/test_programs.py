"""Compiled programs: batches of terms and formulas against the recursive
evaluator they replaced, short-circuits inside a batch, and nodes deeper
than Python's recursion limit."""

import itertools
import random

import pytest

from conftest import random_element
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.sparam import S_EMPTY, parse_sparam
from test_random_params import PARAMS
from test_terms import (random_finite_algebra, random_shared_term, reference_eval,
                        two_element_identity_algebra)

QUANTIFIERS = (tm.ExistsAtoms, tm.ForallAtoms, tm.Exists, tm.Forall)


def reference_formula(fm, handle, env):
    """The recursive evaluator that the compiled programs replaced: terms
    walked as trees, connectives left first, quantifiers enumerated one
    name at a time on a finite carrier and classified on the symbolic one."""
    if isinstance(fm, (tm.Eq, tm.Neq)):
        equal = handle.eq(reference_eval(fm.left, handle, env),
                          reference_eval(fm.right, handle, env))
        return equal if isinstance(fm, tm.Eq) else not equal
    if isinstance(fm, tm.And):
        return reference_formula(fm.left, handle, env) and reference_formula(fm.right, handle, env)
    if isinstance(fm, tm.Or):
        return reference_formula(fm.left, handle, env) or reference_formula(fm.right, handle, env)
    if isinstance(fm, tm.NotF):
        return not reference_formula(fm.arg, handle, env)
    if handle.kind == "finite":
        atoms_only = isinstance(fm, (tm.ExistsAtoms, tm.ForallAtoms))
        domain = handle.atoms() if atoms_only else handle.elements()
        existential = isinstance(fm, (tm.ExistsAtoms, tm.Exists))
        name, rest = fm.names[0], fm.names[1:]
        inner = type(fm)(rest, fm.body) if rest else fm.body
        for value in domain:
            result = reference_formula(inner, handle, {**env, name: value})
            if existential and result:
                return True
            if not existential and not result:
                return False
        return not existential
    if isinstance(fm, tm.ExistsAtoms) and fm._subject is not None:
        count = handle.card(reference_eval(fm._subject, handle, env))
        return count is not None and 1 <= count <= len(fm.names)
    if isinstance(fm, tm.ForallAtoms) and fm._subject is not None:
        count = handle.card(reference_eval(fm._subject, handle, env))
        return count is not None and count <= 1
    raise tm.UnsupportedQueryError("no decidable shape")


def reference(node, handle, env):
    if isinstance(node, tm.Term):
        return reference_eval(node, handle, env)
    return reference_formula(node, handle, env)


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (tm.UnsupportedQueryError, ValueError) as exc:
        return type(exc)


def random_shape(rng, names):
    """A quantifier that the symbolic carrier decides: t = w | ... over
    atoms, or the atomhood shape t & y = 0 or t & y = t."""
    t = random_shared_term(rng, rng.randint(0, 4), names)
    if rng.random() < 0.5:
        bound = ("w", "z")[:rng.randint(1, 2)]
        joins = tm.Var(bound[0]) if len(bound) == 1 else tm.Join(tm.Var("w"), tm.Var("z"))
        sides = (t, joins) if rng.random() < 0.5 else (joins, t)
        return tm.ExistsAtoms(bound, tm.Eq(*sides))
    meet = tm.Meet(t, tm.Var("z"))
    return tm.ForallAtoms(("z",), tm.Or(tm.Eq(meet, tm.ZERO), tm.Eq(meet, t)))


def random_formula(rng, depth, names=("x", "y"), quantifiers=QUANTIFIERS):
    """A formula over the free ``names``; its quantifiers bind w or z."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        kind = rng.choice([tm.Eq, tm.Neq])
        return kind(random_shared_term(rng, rng.randint(0, 5), names),
                    random_shared_term(rng, rng.randint(0, 5), names))
    if roll < 0.4:
        return random_shape(rng, names)
    kind = rng.choice([tm.And, tm.Or, tm.NotF, tm.And, tm.Or, *quantifiers])
    if kind in (tm.And, tm.Or):
        return kind(random_formula(rng, depth - 1, names, quantifiers),
                    random_formula(rng, depth - 1, names, quantifiers))
    if kind is tm.NotF:
        return kind(random_formula(rng, depth - 1, names, quantifiers))
    bound = tuple(rng.sample(("w", "z"), rng.randint(1, 2)))
    return kind(bound, random_formula(rng, depth - 1, names + bound, quantifiers))


def random_roots(rng, count, quantifiers=QUANTIFIERS):
    return [random_formula(rng, 3, quantifiers=quantifiers) if rng.random() < 0.6
            else random_shared_term(rng, rng.randint(0, 10)) for _ in range(count)]


class TestBatchAgainstTheReference:
    def test_finite_algebras(self):
        rng = random.Random("batch finite")
        checked = 0
        for _ in range(60):
            handle = tm.FiniteHandle(random_finite_algebra(rng, rng.randint(1, 3)))
            roots = random_roots(rng, rng.randint(1, 6))
            program = tm.compile_program(roots)
            for _ in range(3):
                env = {name: rng.randrange(handle.one() + 1) for name in ("x", "y")}
                want = [reference(root, handle, env) for root in roots]
                assert tm.run(program, handle, env) == want
                for root, value in zip(roots, want):
                    evaluate = tm.eval_term if isinstance(root, tm.Term) else tm.eval_formula
                    assert evaluate(root, handle, env) == value
                checked += len(roots)
        assert checked > 400

    @pytest.mark.parametrize("s", PARAMS[::3], ids=str)
    def test_random_params(self, s):
        rng = random.Random(f"batch symbolic {s}")
        handle = tm.SymbolicHandle(s)
        for _ in range(6):
            roots = random_roots(rng, rng.randint(1, 5), quantifiers=())
            program = tm.compile_program(roots)
            x, _ = random_element(rng, s, max_index=s.stable_from + 4)
            y, _ = random_element(rng, s, max_index=s.stable_from + 4)
            env = {"x": rng.choice([x, sym.basis_a(s, 0, rng.randint(1, 6))]), "y": y}
            assert tm.run(program, handle, env) == [reference(r, handle, env) for r in roots]

    @pytest.mark.parametrize("s", PARAMS[::4], ids=str)
    def test_paper_formulas_at_atoms(self, s):
        handle = tm.SymbolicHandle(s)
        roots = [tm.alpha(), tm.phi()] + [tm.tau(n) for n in (3, 4, 5, 9)] + [tm.nu(5)]
        program = tm.compile_program(roots)
        for m in range(1, 12):
            env = {"x": sym.basis_a(s, 0, m)}
            assert tm.run(program, handle, env) == [reference(r, handle, env) for r in roots]

    def test_undecidable_quantifiers_raise_as_in_the_reference(self):
        rng = random.Random("batch unsupported")
        handle = tm.SymbolicHandle(S_EMPTY)
        seen = set()
        for _ in range(300):
            fm = random_formula(rng, 3)
            env = {"x": sym.basis_a(S_EMPTY, 0, rng.randint(1, 4)), "y": sym.basis_d(S_EMPTY, 0)}
            want = outcome(reference_formula, fm, handle, env)
            assert outcome(tm.eval_formula, fm, handle, env) == want
            seen.add(want if want is tm.UnsupportedQueryError else bool)
        assert seen == {bool, tm.UnsupportedQueryError}


class TestSharing:
    def test_equal_steps_are_shared_across_roots(self):
        single = tm.compile_program([tm.tau(6)])
        batch = tm.compile_program([tm.phi()] + [tm.tau(n) for n in range(3, 7)])
        # phi, and nu_3..nu_5 inside nu_6, are shared; each tau adds its own
        # meet with the probe, its equation and its conjunction
        assert len(batch.terms) == len(single.terms) + 3
        assert len(batch.formulas) == len(single.formulas) + 3 * 2
        steps = tm.compile_program([tm.sigma()] + [tm.nu(n) for n in range(3, 25)])
        assert steps.terms == tm.nu(24)._program.terms

    def test_step_lists_equal_the_single_builders(self):
        assert tm.nu_steps(12) == [tm.nu(n) for n in range(3, 13)]
        assert tm.tau_steps(9) == [tm.tau(n) for n in range(3, 10)]
        # one recurrence: each step is a node of the next, so a batch of
        # them compiles as fast as the last one alone
        steps = tm.nu_steps(8)
        assert all(later.left.arg is earlier for earlier, later in zip(steps, steps[1:]))
        taus = tm.tau_steps(5)
        assert taus[0].left is taus[2].left and taus[0].right.left.right is taus[2].right.left.right

    def test_program_is_kept_on_the_node(self):
        fm = tm.tau(3)
        assert fm._program is fm._program
        assert fm._program.roots == ((True, len(fm._program.formulas) - 1, ()),)


class CountingHandle(tm.SymbolicHandle):
    """Counts the image and preimage steps that a run asks for."""

    def __init__(self, s):
        super().__init__(s)
        self.calls = 0
        f, g = self.f, self.g

        def counted(op):
            def wrapper(x):
                self.calls += 1
                return op(x)
            return wrapper

        self.f, self.g = counted(f), counted(g)


class TestShortCircuit:
    def calls(self, s, roots, x):
        handle = CountingHandle(s)
        tm.run(tm.compile_program(roots), handle, {"x": x})
        return handle.calls

    @pytest.mark.parametrize("text", ["empty", "{3}", "O"])
    def test_nu_runs_only_where_phi_holds(self, text):
        s = parse_sparam(text)
        batch = [tm.phi()] + [tm.tau(n) for n in range(3, 13)]
        for m in range(1, 9):
            x = sym.basis_a(s, 0, m)
            holds = tm.eval_formula(tm.phi(), tm.SymbolicHandle(s), {"x": x})
            assert holds == (m == 1 or s.in_pattern(m))
            only_phi = self.calls(s, [tm.phi()], x)
            if holds:
                # nu_12 alone takes more than twelve f steps
                assert self.calls(s, batch, x) > only_phi + 12
            else:
                assert self.calls(s, batch, x) == only_phi

    def test_or_decides_its_right_operand_only_when_needed(self):
        x = sym.basis_a(S_EMPTY, 0, 1)
        image = tm.Neq(tm.Fop(tm.Var("x")), tm.ZERO)
        for left, want_calls in ((tm.Eq(tm.Var("x"), tm.Var("x")), 0),
                                 (tm.Neq(tm.Var("x"), tm.Var("x")), 1)):
            assert self.calls(S_EMPTY, [tm.Or(left, image)], x) == want_calls


class TestDeepNodes:
    DEPTH = 1500

    def test_deep_term_prints_as_parsed(self):
        text = "f(" * self.DEPTH + "x" + ")" * self.DEPTH
        assert tm.format_term(tm.parse_term(text)) == text

    def test_deep_not_chain_prints_as_parsed_and_is_decided(self):
        text = "not " * self.DEPTH + "x = x"
        fm = tm.parse_formula(text)
        assert tm.format_formula(fm) == text
        x = sym.basis_a(S_EMPTY, 0, 1)
        assert tm.eval_formula(fm, tm.SymbolicHandle(S_EMPTY), {"x": x}) is True
        odd = tm.parse_formula("not " + text)
        assert tm.eval_formula(odd, tm.SymbolicHandle(S_EMPTY), {"x": x}) is False

    @pytest.mark.parametrize("depth", [DEPTH, 100000])
    @pytest.mark.parametrize("kind", ["term", "not-chain"])
    def test_deep_nodes_hash_and_compare(self, kind, depth):
        if kind == "term":
            parse, fmt, text = tm.parse_term, tm.format_term, "f(" * depth + "x" + ")" * depth
        else:
            parse, fmt, text = tm.parse_formula, tm.format_formula, "not " * depth + "x = x"
        node = parse(text)
        again = parse(fmt(node))
        assert again is not node
        assert again == node and hash(again) == hash(node)
        shallower = node.arg  # one f, or one not, fewer
        assert shallower != node and node != shallower

    @pytest.mark.parametrize("kind", ["term", "not-chain"])
    def test_deep_nodes_repr(self, kind):
        if kind == "term":
            node = tm.parse_term("f(" * self.DEPTH + "x" + ")" * self.DEPTH)
            text = tm.format_term(node)
        else:
            node = tm.parse_formula("not " * self.DEPTH + "x = x")
            text = tm.format_formula(node)
        assert repr(node) == f"{type(node).__name__}({text!r})"

    def test_deep_atomhood_subject_is_matched(self):
        # the subject's two copies are separate objects, as the parser builds
        # them; the matcher finds them equal by ==, which compares steps
        text = "f(" * self.DEPTH + "x" + ")" * self.DEPTH
        fm = tm.parse_formula(f"forall_atom y . {text} & y = 0 or {text} & y = {text}")
        assert fm._subject is fm.body.left.left.left
        x = sym.basis_a(S_EMPTY, 0, 1)
        # f^1500 of an atom is a down-set: infinite, so not an atom
        assert not tm.eval_formula(fm, tm.SymbolicHandle(S_EMPTY), {"x": x})
        handle = tm.FiniteHandle(two_element_identity_algebra())
        assert tm.eval_formula(fm, handle, {"x": 1})

    def test_deep_join_of_atoms_is_matched(self):
        names = tuple(f"w{i}" for i in range(self.DEPTH))
        joins = tm.Var(names[0])
        for name in names[1:]:
            joins = tm.Join(joins, tm.Var(name))
        fm = tm.ExistsAtoms(names, tm.Eq(tm.Var("x"), joins))
        assert fm._subject == tm.Var("x")
        handle = tm.SymbolicHandle(S_EMPTY)
        three = sym.union(sym.basis_a(S_EMPTY, 0, 1), sym.basis_a(S_EMPTY, 1, 5))
        assert tm.eval_formula(fm, handle, {"x": three})
        assert not tm.eval_formula(fm, handle, {"x": sym.basis_d(S_EMPTY, 0)})


def test_quantifier_enumerates_the_first_name_slowest():
    # the product order of the finite carrier is the nesting order of the
    # one-name-at-a-time reference
    rng = random.Random(11)
    handle = tm.FiniteHandle(random_finite_algebra(rng, 3))
    seen = []
    handle.quantify(tm.Exists, ("w", "z"), None, lambda values: seen.append(values))
    domain = handle.elements()
    assert seen == list(itertools.product(domain, domain))
