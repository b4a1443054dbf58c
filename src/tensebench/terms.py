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

import re
from dataclasses import dataclass
from typing import Iterator

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
    pass


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


def iter_terms(t: Term) -> Iterator[Term]:
    """All subterm objects, each once (the AST may be a shared DAG)."""
    seen: set[int] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        for attr in ("left", "right", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(node.name for node in iter_terms(t) if isinstance(node, Var))


def modal_depth(t: Term) -> int:
    """Maximal nesting of f/g along any path; bounds how far one evaluation
    can look in the frame, hence the oracle comparison margin."""
    depths: dict[int, int] = {}

    def go(node: Term) -> int:
        if id(node) in depths:
            return depths[id(node)]
        if isinstance(node, (Var, Zero, One)):
            d = 0
        elif isinstance(node, (Join, Meet)):
            d = max(go(node.left), go(node.right))
        elif isinstance(node, Not):
            d = go(node.arg)
        else:
            d = 1 + go(node.arg)
        depths[id(node)] = d
        return d

    return go(t)


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
    """The step terms: nu_3 = f(sigma(x)) & ~f(x), then the two-back recurrence."""
    if n < 3:
        raise ValueError("nu is defined for n >= 3")
    x = Var(var)
    sig = sigma(var)
    prev2 = Meet(Fop(sig), Not(Fop(x)))  # nu_3
    if n == 3:
        return prev2
    prev1 = Meet(Fop(prev2), Not(Fop(sig)))  # nu_4
    for _ in range(5, n + 1):
        prev2, prev1 = prev1, Meet(Fop(prev1), Not(Fop(prev2)))
    return prev1


# ---------------------------------------------------------------------------
# carriers


class FiniteHandle:
    """Uniform operations over a finite tense algebra; elements are bitmasks."""

    kind = "finite"

    def __init__(self, alg: FiniteTenseAlgebra):
        self.alg = alg
        self._spot_check()

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

    def atom_test(self, a) -> bool:
        return self.card(a) == 1

    def atoms(self):
        return self.alg.atoms()

    def elements(self):
        return self.alg.elements()

    def _spot_check(self):
        alg = self.alg
        for a in alg.atoms()[:4]:
            for b in alg.atoms()[:4]:
                conj_left = alg.f(a) & b == 0
                conj_right = a & alg.g(b) == 0
                if conj_left != conj_right:
                    raise ValueError("carrier violates conjugacy")
                if alg.neg(a | b) != (alg.neg(a) & alg.neg(b)):
                    raise ValueError("carrier violates De Morgan")


class SymbolicHandle:
    """Uniform operations over the generated subalgebra for one parameter."""

    kind = "symbolic"

    def __init__(self, s: SParameter):
        self.sparam = s
        self._spot_check()

    def zero(self):
        return sym.empty_set(self.sparam)

    def one(self):
        return sym.full_set(self.sparam)

    def join(self, a, b):
        return sym.union(a, b)

    def meet(self, a, b):
        return sym.intersect(a, b)

    def neg(self, a):
        return sym.complement(a)

    def f(self, a):
        return sym.apply_f(a)

    def g(self, a):
        return sym.apply_g(a)

    def eq(self, a, b):
        return sym.is_equal(a, b)

    def card(self, a) -> int | None:
        return sym.cardinality(a).count

    def atom_test(self, a) -> bool:
        return sym.atom_test(a)

    def atoms(self):
        raise UnsupportedQueryError("cannot enumerate the atoms of an infinite carrier")

    def elements(self):
        raise UnsupportedQueryError("cannot enumerate an infinite carrier")

    def _spot_check(self):
        s = self.sparam
        a = sym.basis_a(s, 0, 1)
        b = sym.basis_srow(s, 0, 1)
        if not sym.is_equal(
            sym.complement(sym.union(a, b)),
            sym.intersect(sym.complement(a), sym.complement(b)),
        ):
            raise ValueError("carrier violates De Morgan")
        if sym.is_empty(sym.intersect(sym.apply_f(a), b)) != sym.is_empty(
            sym.intersect(a, sym.apply_g(b))
        ):
            raise ValueError("carrier violates conjugacy")


def handle_for(carrier) -> FiniteHandle | SymbolicHandle:
    if isinstance(carrier, FiniteTenseAlgebra):
        return FiniteHandle(carrier)
    if isinstance(carrier, SParameter):
        return SymbolicHandle(carrier)
    raise TypeError(f"no carrier handle for {carrier!r}")


def eval_term(t: Term, handle, env: dict):
    """Bottom-up evaluation; shared subterms are evaluated once."""
    cache: dict[int, object] = {}

    def go(node: Term):
        if id(node) in cache:
            return cache[id(node)]
        if isinstance(node, Var):
            if node.name not in env:
                raise ValueError(f"unbound variable {node.name!r}")
            out = env[node.name]
        elif isinstance(node, Zero):
            out = handle.zero()
        elif isinstance(node, One):
            out = handle.one()
        elif isinstance(node, Join):
            out = handle.join(go(node.left), go(node.right))
        elif isinstance(node, Meet):
            out = handle.meet(go(node.left), go(node.right))
        elif isinstance(node, Not):
            out = handle.neg(go(node.arg))
        elif isinstance(node, Fop):
            out = handle.f(go(node.arg))
        elif isinstance(node, Gop):
            out = handle.g(go(node.arg))
        else:
            raise TypeError(f"unknown term node {node!r}")
        cache[id(node)] = out
        return out

    return go(t)


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


@dataclass(frozen=True)
class ForallAtoms(Formula):
    names: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    names: tuple[str, ...]
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    names: tuple[str, ...]
    body: Formula


def formula_free_vars(fm: Formula) -> frozenset[str]:
    if isinstance(fm, (Eq, Neq)):
        return free_vars(fm.left) | free_vars(fm.right)
    if isinstance(fm, (And, Or)):
        return formula_free_vars(fm.left) | formula_free_vars(fm.right)
    if isinstance(fm, NotF):
        return formula_free_vars(fm.arg)
    return formula_free_vars(fm.body) - frozenset(fm.names)


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
        if isinstance(fm.body, Eq):
            subject = _match_join_of_atoms(fm.body, fm.names)
            if subject is not None:
                count = handle.card(eval_term(subject, handle, env))
                return count is not None and 1 <= count <= len(fm.names)
        raise UnsupportedQueryError(
            "existential over atoms is only decidable for join-of-atoms equations"
        )
    if isinstance(fm, ForallAtoms):
        if len(fm.names) == 1:
            subject = _match_atomhood(fm.body, fm.names[0])
            if subject is not None:
                count = handle.card(eval_term(subject, handle, env))
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
    verdict: str  # "Separated" | "Inconclusive" | "Identical-below-bound"

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
    """Find the least odd n where the parameters disagree and test the
    sentence "some x satisfies tau_n" on both sides."""
    witness_n = None
    for n in range(3, n_bound + 1, 2):
        if s.contains(n) != t.contains(n):
            witness_n = n
            break
    if witness_n is None:
        return SeparationReport(
            s, t, n_bound, m_bound, None, None, None, "Identical-below-bound"
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


def parse_term(text: str) -> Term:
    parser = _Parser(_tokenize(text))
    t = parser.term()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    return t


def parse_formula(text: str) -> Formula:
    parser = _Parser(_tokenize(text))
    fm = parser.formula()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    return fm


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
