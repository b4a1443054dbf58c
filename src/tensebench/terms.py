"""Term and formula ASTs, evaluation over finite or symbolic carriers, the
derived step terms, and the first-order separation procedure.

Terms are over the operator signature (join, meet, complement, f, g, 0, 1).
Formulas add equations and quantifiers; quantifiers relativized to atoms are
the only quantifier semantics available on the symbolic carrier, where they
are decided exactly through the cardinality classifier (an element is a join
of at most k atoms iff its cardinality is a finite 1..k).  Unrestricted
quantifiers evaluate by enumeration on finite carriers only.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from . import symbolic as sym
from .frames import FiniteTenseAlgebra
from .sparam import SParameter
from .symbolic import SymbolicSet


class UnsupportedQueryError(Exception):
    """The query is not decidable on this carrier (e.g. an unrestricted
    quantifier over an infinite algebra)."""


# ---------------------------------------------------------------------------
# term ASTs


@dataclass(frozen=True)
class Term:
    @functools.cached_property
    def _program(self) -> tuple[tuple, ...]:
        """The term as straight-line steps, compiled on first use and kept
        on the node (not a field, so ``==`` and ``hash`` ignore it)."""
        return _compile(self)


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Term):
    arg: Term


@dataclass(frozen=True)
class Fop(Term):
    arg: Term


@dataclass(frozen=True)
class Gop(Term):
    arg: Term


ZERO = Zero()
ONE = One()


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(a for kind, a, _ in t._program if kind is Var)


def modal_depth(t: Term) -> int:
    """Maximal nesting of f/g along any path; bounds how far one evaluation
    can look in the frame, hence the oracle comparison margin."""
    depths: list[int] = []
    for kind, a, b in t._program:
        if kind in (Var, Zero, One):
            depths.append(0)
        elif kind in (Join, Meet):
            depths.append(max(depths[a], depths[b]))
        elif kind is Not:
            depths.append(depths[a])
        else:
            depths.append(depths[a] + 1)
    return depths[-1]


def _apply_n(ctor, n: int, t: Term) -> Term:
    for _ in range(n):
        t = ctor(t)
    return t


def beta(var: str = "x") -> Term:
    """f^4(x) & ~f^2(x)"""
    x = Var(var)
    f2 = Fop(Fop(x))
    return Meet(Fop(Fop(f2)), Not(f2))


def sigma(var: str = "x") -> Term:
    """f(x) & ~(x | g^2(b) | f^4(g^10(b) & ~g^8(b))) where b = beta(x)."""
    x = Var(var)
    b = beta(var)
    g2b = Gop(Gop(b))
    g8b = _apply_n(Gop, 8, b)
    g10b = Gop(Gop(g8b))
    probe = _apply_n(Fop, 4, Meet(g10b, Not(g8b)))
    return Meet(Fop(x), Not(Join(Join(x, g2b), probe)))


def nu(n: int, var: str = "x") -> Term:
    """The step terms: nu_3 = f(sigma(x)) & ~f(x), then the two-back recurrence
    nu_k = f(nu_{k-1}) & ~f(nu_{k-2}).  Step k reuses the f(nu_{k-2}) node
    that step k-1 built, so each step adds one f node."""
    if n < 3:
        raise ValueError("nu is defined for n >= 3")
    f_prev, f_last = Fop(Var(var)), Fop(sigma(var))
    step = Meet(f_last, Not(f_prev))  # nu_3
    for _ in range(4, n + 1):
        f_prev, f_last = f_last, Fop(step)
        step = Meet(f_last, Not(f_prev))
    return step


# ---------------------------------------------------------------------------
# carriers


class FiniteHandle:
    """Uniform operations over a finite tense algebra; elements are bitmasks."""

    kind = "finite"

    def __init__(self, alg: FiniteTenseAlgebra):
        self.alg = alg

    def zero(self):
        return 0

    def one(self):
        return self.alg.one

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def neg(self, a):
        return self.alg.neg(a)

    def f(self, a):
        return self.alg.f(a)

    def g(self, a):
        return self.alg.g(a)

    def eq(self, a, b):
        return a == b

    def card(self, a) -> int | None:
        return int(a).bit_count()

    def atoms(self):
        return self.alg.atoms()

    def elements(self):
        return self.alg.elements()


class SymbolicHandle:
    """Uniform operations over the generated subalgebra for one parameter."""

    kind = "symbolic"

    def __init__(self, s: SParameter):
        self.sparam = s
        # the operators themselves, so that a program step costs one call;
        # read from sym when the handle is built, so that a wrapper put on
        # sym before then is called
        self.join, self.meet, self.neg = sym.union, sym.intersect, sym.complement
        self.f, self.g = sym.apply_f, sym.apply_g

    def zero(self):
        return sym.empty_set(self.sparam)

    def one(self):
        return sym.full_set(self.sparam)

    def eq(self, a, b):
        return sym.is_equal(a, b)

    def card(self, a) -> int | None:
        return sym.cardinality(a).count

    def atoms(self):
        raise UnsupportedQueryError("cannot enumerate the atoms of an infinite carrier")

    def elements(self):
        raise UnsupportedQueryError("cannot enumerate an infinite carrier")


def _compile(t: Term) -> tuple[tuple, ...]:
    """Steps ``(type, a, b)`` in dependency order, one per distinct
    operation: ``a`` and ``b`` index earlier steps, or ``a`` is a Var's name.
    Nodes that are equal as terms, such as two ``Var("x")`` objects or the
    ``f`` steps above them, share one step.

    The walk keeps its own stack, so a term's depth is bounded by memory,
    not by Python's recursion limit.  A node is visited twice: first to
    stack its children (left on top), then, with their slots known, to
    emit its step; the order is that of a recursive post-order walk."""
    steps: list[tuple] = []
    slot_of_step: dict[tuple, int] = {}
    slots: dict[int, int] = {}  # id(node) -> the slot of its step
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slots:
            continue
        kind = type(node)
        if kind is Var:
            step = (Var, node.name, None)
        elif kind in (Zero, One):
            step = (kind, None, None)
        elif kind in (Join, Meet):
            if not ready:
                stack += [(node, True), (node.right, False), (node.left, False)]
                continue
            step = (kind, slots[id(node.left)], slots[id(node.right)])
        elif kind in (Not, Fop, Gop):
            if not ready:
                stack += [(node, True), (node.arg, False)]
                continue
            step = (kind, slots[id(node.arg)], None)
        else:
            raise TypeError(f"unknown term node {node!r}")
        slot = slot_of_step.get(step)
        if slot is None:
            slot = slot_of_step[step] = len(steps)
            steps.append(step)
        slots[id(node)] = slot
    return tuple(steps)


def eval_term(t: Term, handle, env: dict):
    """Run the term's compiled program: every distinct operation once."""
    f, g, neg, meet, join = handle.f, handle.g, handle.neg, handle.meet, handle.join
    values: list = []
    push = values.append
    for kind, a, b in t._program:
        if kind is Fop:
            push(f(values[a]))
        elif kind is Meet:
            push(meet(values[a], values[b]))
        elif kind is Not:
            push(neg(values[a]))
        elif kind is Gop:
            push(g(values[a]))
        elif kind is Join:
            push(join(values[a], values[b]))
        elif kind is Var:
            if a not in env:
                raise ValueError(f"unbound variable {a!r}")
            push(env[a])
        elif kind is Zero:
            push(handle.zero())
        else:
            push(handle.one())
    return values[-1]


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class NotF(Formula):
    arg: Formula


@dataclass(frozen=True)
class ExistsAtoms(Formula):
    names: tuple[str, ...]
    body: Formula

    @functools.cached_property
    def _subject(self) -> Term | None:
        """t if the body is t = v1 | ... | vk over the quantified names."""
        return _match_join_of_atoms(self.body, self.names) if isinstance(self.body, Eq) else None


@dataclass(frozen=True)
class ForallAtoms(Formula):
    names: tuple[str, ...]
    body: Formula

    @functools.cached_property
    def _subject(self) -> Term | None:
        """t if the body is the atomhood shape t & y = 0 or t & y = t."""
        return _match_atomhood(self.body, self.names[0]) if len(self.names) == 1 else None


@dataclass(frozen=True)
class Exists(Formula):
    names: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    names: tuple[str, ...]
    body: Formula


def _fresh(base: str, avoid: str) -> str:
    return base if base != avoid else base + "0"


def alpha(var: str = "x") -> Formula:
    """Atomhood: x is nonzero and meets every y trivially."""
    x = Var(var)
    yn = _fresh("y", var)
    y = Var(yn)
    meet = Meet(x, y)
    return And(Neq(x, ZERO), ForallAtoms((yn,), Or(Eq(meet, ZERO), Eq(meet, x))))


def phi(var: str = "x") -> Formula:
    """x is an atom whose f-image meets its g-image in no join of three atoms."""
    x = Var(var)
    names = tuple(_fresh(n, var) for n in ("w", "y", "z"))
    w, y, z = (Var(n) for n in names)
    body = Eq(Meet(Fop(x), Gop(x)), Join(Join(w, y), z))
    return And(alpha(var), NotF(ExistsAtoms(names, body)))


def tau(n: int, var: str = "x") -> Formula:
    """phi(x) and the n-th step of x meets f(g^2(x) & ~g(x))."""
    x = Var(var)
    probe = Fop(Meet(Gop(Gop(x)), Not(Gop(x))))
    return And(phi(var), Neq(Meet(nu(n, var), probe), ZERO))


# --- evaluation ---


def eval_formula(fm: Formula, handle, env: dict) -> bool:
    """Exact truth value.

    The propositional cases are the same on every carrier; only quantifiers
    depend on it.  Finite carriers evaluate them by enumeration
    (atom-relativized or unrestricted).  The symbolic carrier decides the
    atom-relativized shapes through the cardinality classifier and rejects
    anything else.
    """
    quantifier = _enumerate if handle.kind == "finite" else _classify

    def go(fm: Formula, env: dict) -> bool:
        if isinstance(fm, Eq):
            return handle.eq(eval_term(fm.left, handle, env), eval_term(fm.right, handle, env))
        if isinstance(fm, Neq):
            return not handle.eq(eval_term(fm.left, handle, env), eval_term(fm.right, handle, env))
        if isinstance(fm, And):
            return go(fm.left, env) and go(fm.right, env)
        if isinstance(fm, Or):
            return go(fm.left, env) or go(fm.right, env)
        if isinstance(fm, NotF):
            return not go(fm.arg, env)
        if isinstance(fm, (ExistsAtoms, Exists, ForallAtoms, Forall)):
            return quantifier(fm, handle, env, go)
        raise TypeError(f"unknown formula node {fm!r}")

    return go(fm, env)


def _enumerate(fm: Formula, handle, env: dict, go) -> bool:
    """A quantifier over a finite carrier, one name at a time."""
    domain = handle.atoms() if isinstance(fm, (ExistsAtoms, ForallAtoms)) else handle.elements()
    existential = isinstance(fm, (ExistsAtoms, Exists))
    name, rest = fm.names[0], fm.names[1:]
    inner = type(fm)(rest, fm.body) if rest else fm.body
    for value in domain:
        sub = dict(env)
        sub[name] = value
        result = go(inner, sub)
        if existential and result:
            return True
        if not existential and not result:
            return False
    return not existential


def _join_leaves(t: Term) -> list[Term] | None:
    """Flatten a join tree; None if any node is not a Join or leaf."""
    if isinstance(t, Join):
        left = _join_leaves(t.left)
        right = _join_leaves(t.right)
        if left is None or right is None:
            return None
        return left + right
    return [t]


def _match_join_of_atoms(fm: Eq, names: tuple[str, ...]) -> Term | None:
    """Match t = v1 | ... | vk (vs exactly the quantified names); return t."""
    for subject, joins in ((fm.left, fm.right), (fm.right, fm.left)):
        leaves = _join_leaves(joins)
        if leaves is None or len(leaves) != len(names):
            continue
        if not all(isinstance(leaf, Var) for leaf in leaves):
            continue
        if sorted(leaf.name for leaf in leaves) != sorted(names):
            continue
        if free_vars(subject) & set(names):
            continue
        return subject
    return None


def _match_atomhood(body: Formula, name: str) -> Term | None:
    """Match (t & y = 0 or t & y = t) with y the quantified name; return t."""
    if not isinstance(body, Or):
        return None
    sides = [body.left, body.right]
    if not all(isinstance(s, Eq) for s in sides):
        return None

    def split(eq: Eq):
        # one side a meet involving Var(name), the other the compared value
        for m, other in ((eq.left, eq.right), (eq.right, eq.left)):
            if isinstance(m, Meet):
                parts = (m.left, m.right)
                for a, b in (parts, parts[::-1]):
                    if isinstance(b, Var) and b.name == name and name not in free_vars(a):
                        return a, other
        return None

    zero_side = None
    self_side = None
    for eq in sides:
        parsed = split(eq)
        if parsed is None:
            return None
        t, other = parsed
        if isinstance(other, Zero):
            zero_side = t
        elif other == t:
            self_side = t
    if zero_side is not None and self_side is not None and zero_side == self_side:
        return zero_side
    return None


def _classify(fm: Formula, handle, env: dict, go) -> bool:
    """Decide an atom-relativized shape on the symbolic carrier through the
    cardinality classifier."""
    if isinstance(fm, ExistsAtoms):
        if fm._subject is not None:
            count = handle.card(eval_term(fm._subject, handle, env))
            return count is not None and 1 <= count <= len(fm.names)
        raise UnsupportedQueryError(
            "existential over atoms is only decidable for join-of-atoms equations"
        )
    if isinstance(fm, ForallAtoms):
        if fm._subject is not None:
            count = handle.card(eval_term(fm._subject, handle, env))
            return count is not None and count <= 1
        raise UnsupportedQueryError(
            "universal over atoms is only decidable for the atomhood shape"
        )
    raise UnsupportedQueryError("unrestricted quantifier on an infinite carrier")


# ---------------------------------------------------------------------------
# the separation procedure


def eval_tau(s: SParameter, n: int, x: SymbolicSet) -> bool:
    return eval_formula(tau(n), SymbolicHandle(s), {"x": x})


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of an atom-witness search up to an index bound."""

    found: bool
    index: int | None
    bound: int

    def __str__(self) -> str:
        if self.found:
            return f"witness A(0,{self.index})"
        return f"none-up-to-{self.bound}"


def exists_tau_witness(s: SParameter, n: int, m_bound: int = 64) -> WitnessResult:
    """Search x over the atoms A(0,m), m <= m_bound, for tau_n.

    The level is fixed to 0: level shifts are automorphisms, so witnesses at
    other levels exist iff one exists at level 0.  The result is exact for
    "exists below the bound"; nothing is claimed beyond it.
    """
    handle = SymbolicHandle(s)
    fm = tau(n)
    for m in range(1, m_bound + 1):
        if eval_formula(fm, handle, {"x": sym.basis_a(s, 0, m)}):
            return WitnessResult(True, m, m_bound)
    return WitnessResult(False, None, m_bound)


@dataclass(frozen=True)
class SeparationReport:
    s_param: SParameter
    t_param: SParameter
    n_bound: int
    m_bound: int
    witness_n: int | None
    s_result: WitnessResult | None
    t_result: WitnessResult | None
    verdict: str  # "Separated" | "Inconclusive" | "Identical"

    def to_records(self) -> list[str]:
        return [
            f"witness_n={self.witness_n if self.witness_n is not None else 'none'}",
            f"S_truth={self.s_result if self.s_result is not None else 'n/a'}",
            f"T_truth={self.t_result if self.t_result is not None else 'n/a'}",
            f"verdict={self.verdict}",
        ]

    def to_text(self) -> str:
        lines = [
            f"S = {self.s_param}",
            f"T = {self.t_param}",
            f"bounds: n <= {self.n_bound}, atom index <= {self.m_bound}",
        ]
        lines += self.to_records()
        return "\n".join(lines)


def distinguish(
    s: SParameter, t: SParameter, n_bound: int = 41, m_bound: int = 64
) -> SeparationReport:
    """Find the least odd n where the parameters disagree and, if n <= n_bound,
    test the sentence "some x satisfies tau_n" on both sides.

    Canonical parameters are equal iff they have the same members, so
    "Identical" is exact.  Two different ones disagree at some odd n <=
    max(s.bound, t.bound) + 2, where both tails have taken over, so the
    first disagreement is found exactly; ``n_bound`` only caps the n whose
    sentence gets evaluated, and above it the verdict is "Inconclusive".
    A negative bound is refused with ValueError.
    """
    for name, bound in (("n_bound", n_bound), ("m_bound", m_bound)):
        if bound < 0:
            raise ValueError(f"{name} must not be negative, got {bound}")
    if s == t:
        return SeparationReport(s, t, n_bound, m_bound, None, None, None, "Identical")
    witness_n = next(
        n for n in range(3, max(s.bound, t.bound) + 3, 2) if s.contains(n) != t.contains(n)
    )
    if witness_n > n_bound:
        return SeparationReport(
            s, t, n_bound, m_bound, witness_n, None, None, "Inconclusive"
        )
    s_result = exists_tau_witness(s, witness_n, m_bound)
    t_result = exists_tau_witness(t, witness_n, m_bound)
    separated = s_result.found != t_result.found
    verdict = "Separated" if separated else "Inconclusive"
    return SeparationReport(
        s, t, n_bound, m_bound, witness_n, s_result, t_result, verdict
    )


# ---------------------------------------------------------------------------
# text syntax


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>!=|[()&|~=.01]))"
)

_KEYWORDS = {"f", "g", "and", "or", "not", "exists_atom", "forall_atom", "exists", "forall"}


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad token at {text[pos:pos + 10]!r}")
        out.append(match.group("name") or match.group("op"))
        pos = match.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    # terms
    def term(self) -> Term:
        t = self.term_meet()
        while self.peek() == "|":
            self.take()
            t = Join(t, self.term_meet())
        return t

    def term_meet(self) -> Term:
        t = self.term_unary()
        while self.peek() == "&":
            self.take()
            t = Meet(t, self.term_unary())
        return t

    def term_unary(self) -> Term:
        if self.peek() == "~":
            self.take()
            return Not(self.term_unary())
        return self.term_prim()

    def term_prim(self) -> Term:
        tok = self.take()
        if tok == "0":
            return ZERO
        if tok == "1":
            return ONE
        if tok == "(":
            t = self.term()
            self.take(")")
            return t
        if tok in ("f", "g"):
            self.take("(")
            t = self.term()
            self.take(")")
            return Fop(t) if tok == "f" else Gop(t)
        if tok in _KEYWORDS:
            raise ValueError(f"{tok!r} is reserved")
        return Var(tok)

    # formulas
    def formula(self) -> Formula:
        if self.peek() in ("exists_atom", "forall_atom", "exists", "forall"):
            kind = self.take()
            names = []
            while self.peek() not in (".",):
                tok = self.take()
                if tok in _KEYWORDS or not tok[0].isalpha():
                    raise ValueError(f"bad quantified variable {tok!r}")
                names.append(tok)
            self.take(".")
            body = self.formula()
            ctor = {
                "exists_atom": ExistsAtoms,
                "forall_atom": ForallAtoms,
                "exists": Exists,
                "forall": Forall,
            }[kind]
            return ctor(tuple(names), body)
        return self.formula_or()

    def formula_or(self) -> Formula:
        fm = self.formula_and()
        while self.peek() == "or":
            self.take()
            fm = Or(fm, self.formula_and())
        return fm

    def formula_and(self) -> Formula:
        fm = self.formula_not()
        while self.peek() == "and":
            self.take()
            fm = And(fm, self.formula_not())
        return fm

    def formula_not(self) -> Formula:
        if self.peek() == "not":
            self.take()
            return NotF(self.formula_not())
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        if self.peek() == "(":
            # could be a parenthesized formula or a term in an equation;
            # try formula first, fall back to equation parsing
            saved = self.pos
            try:
                self.take("(")
                fm = self.formula()
                self.take(")")
                if self.peek() in ("=", "!="):
                    raise ValueError("term context")
                return fm
            except ValueError:
                self.pos = saved
        left = self.term()
        op = self.take()
        if op not in ("=", "!="):
            raise ValueError(f"expected '=' or '!=', got {op!r}")
        right = self.term()
        return Eq(left, right) if op == "=" else Neq(left, right)


def _parse(text: str, start):
    # the parser recurses once per nesting level, so deep input runs out of stack
    parser = _Parser(_tokenize(text))
    try:
        out = start(parser)
    except RecursionError:
        raise ValueError("term nested too deep to parse") from None
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    return out


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def format_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Fop):
        return f"f({format_term(t.arg)})"
    if isinstance(t, Gop):
        return f"g({format_term(t.arg)})"
    if isinstance(t, Not):
        return f"~{format_term(t.arg, 3)}"
    if isinstance(t, Meet):
        body = f"{format_term(t.left, 2)} & {format_term(t.right, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(t, Join):
        body = f"{format_term(t.left, 1)} | {format_term(t.right, 2)}"
        return f"({body})" if prec > 1 else body
    raise TypeError(f"unknown term node {t!r}")


def format_formula(fm: Formula, prec: int = 0) -> str:
    if isinstance(fm, Eq):
        return f"{format_term(fm.left)} = {format_term(fm.right)}"
    if isinstance(fm, Neq):
        return f"{format_term(fm.left)} != {format_term(fm.right)}"
    if isinstance(fm, NotF):
        return f"not {format_formula(fm.arg, 3)}"
    if isinstance(fm, And):
        body = f"{format_formula(fm.left, 2)} and {format_formula(fm.right, 3)}"
        return f"({body})" if prec > 2 else body
    if isinstance(fm, Or):
        body = f"{format_formula(fm.left, 1)} or {format_formula(fm.right, 2)}"
        return f"({body})" if prec > 1 else body
    keyword = {
        ExistsAtoms: "exists_atom",
        ForallAtoms: "forall_atom",
        Exists: "exists",
        Forall: "forall",
    }[type(fm)]
    body = f"{keyword} {' '.join(fm.names)} . {format_formula(fm.body)}"
    return f"({body})" if prec > 0 else body
