"""Term and formula ASTs, evaluation over finite or symbolic carriers, the
derived step terms, and the first-order separation procedure.

Terms and formulas have one evaluator: a batch of them compiles into one
straight-line program (``compile_program``) that ``run`` executes under a
binding of the free names.

Terms are over the operator signature (join, meet, complement, f, g, 0, 1).
Formulas add equations and quantifiers; quantifiers relativized to atoms are
the only quantifier semantics available on the symbolic carrier, where they
are decided exactly through the cardinality classifier (an element is a join
of at most k atoms iff its cardinality is a finite 1..k).  Unrestricted
quantifiers evaluate by enumeration on finite carriers only.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import symbolic as sym
from .frames import Frame, complex_f, complex_g
from .sparam import SParameter


class UnsupportedQueryError(Exception):
    """The query is not decidable on this carrier (e.g. an unrestricted
    quantifier over an infinite algebra)."""


# ---------------------------------------------------------------------------
# term ASTs


class _Node:
    """A term or formula node.  Nodes compare and hash by their compiled
    steps, which describe the node exactly, and print as their text: no
    recursion, at any depth."""

    @functools.cached_property
    def _program(self) -> Program:
        """The node as a one-root program, compiled on first use and kept
        on the node."""
        return compile_program((self,))

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return self is other or self._program[:2] == other._program[:2]

    def __hash__(self):
        return hash(self._program[:2])

    def __repr__(self):
        return f"{type(self).__name__}({_format(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Term(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Zero(Term):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class One(Term):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Not(Term):
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Fop(Term):
    arg: Term


@dataclass(frozen=True, eq=False, repr=False)
class Gop(Term):
    arg: Term


ZERO = Zero()
ONE = One()


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(a for kind, a, _ in t._program.terms if kind is Var)


def modal_depth(t: Term) -> int:
    """Maximal nesting of f/g along any path; bounds how far one evaluation
    can look in the frame, hence the oracle comparison margin."""
    depths: list[int] = []
    for kind, a, b in t._program.terms:
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
    """The n-th step term; see ``nu_steps``."""
    if n < 3:
        raise ValueError("nu is defined for n >= 3")
    return nu_steps(n, var)[-1]


def nu_steps(n_max: int, var: str = "x") -> list[Term]:
    """The step terms nu_3, ..., nu_{n_max}: nu_3 = f(sigma(x)) & ~f(x), then
    the two-back recurrence nu_k = f(nu_{k-1}) & ~f(nu_{k-2}).  Step k
    reuses the f(nu_{k-2}) node that step k-1 built, so each step adds one
    f node, and each step is a node of the next."""
    f_prev, f_last = Fop(Var(var)), Fop(sigma(var))
    steps = [Meet(f_last, Not(f_prev))]  # nu_3
    for _ in range(4, n_max + 1):
        f_prev, f_last = f_last, Fop(steps[-1])
        steps.append(Meet(f_last, Not(f_prev)))
    return steps


# ---------------------------------------------------------------------------
# carriers


class FiniteHandle:
    """Uniform operations over the complex algebra of a finite frame;
    elements are vertex masks."""

    def __init__(self, frame: Frame):
        self.frame = frame
        self._one = (1 << len(frame)) - 1

    def zero(self):
        return 0

    def one(self):
        return self._one

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def neg(self, a):
        return self._one ^ a

    def f(self, a):
        return complex_f(self.frame, a)

    def g(self, a):
        return complex_g(self.frame, a)

    def eq(self, a, b):
        return a == b

    def card(self, a) -> int | None:
        return int(a).bit_count()

    def atoms(self):
        return tuple(1 << i for i in range(len(self.frame)))

    def elements(self):
        return range(self._one + 1)

    def quantify(self, kind, names, subject, body) -> bool:
        """Enumerate the atoms, or every element, for each name in turn
        (the first name varies slowest); ``body(values)`` is the body's
        truth with the names bound to ``values``."""
        domain = self.atoms() if kind in (ExistsAtoms, ForallAtoms) else self.elements()
        existential = kind in (ExistsAtoms, Exists)
        for values in itertools.product(domain, repeat=len(names)):
            if bool(body(values)) == existential:
                return existential
        return not existential


class SymbolicHandle:
    """Uniform operations over the generated subalgebra for one parameter."""

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

    def quantify(self, kind, names, subject, body) -> bool:
        """Decide an atom-relativized shape through the cardinality
        classifier: ``subject()`` is the value of its subject t, or
        ``subject`` is None when the body has neither shape."""
        if kind is ExistsAtoms:
            if subject is None:
                raise UnsupportedQueryError(
                    "existential over atoms is only decidable for join-of-atoms equations"
                )
            count = self.card(subject())
            return count is not None and 1 <= count <= len(names)
        if kind is ForallAtoms:
            if subject is None:
                raise UnsupportedQueryError(
                    "universal over atoms is only decidable for the atomhood shape"
                )
            count = self.card(subject())
            return count is not None and count <= 1
        raise UnsupportedQueryError("unrestricted quantifier on an infinite carrier")


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True, eq=False, repr=False)
class Formula(_Node):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class NotF(Formula):
    arg: Formula


@dataclass(frozen=True, eq=False, repr=False)
class _Quantifier(Formula):
    names: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.names or len(set(self.names)) != len(self.names):
            raise ValueError(f"a quantifier takes one or more distinct names, got {self.names!r}")


@dataclass(frozen=True, eq=False, repr=False)
class ExistsAtoms(_Quantifier):
    @functools.cached_property
    def _subject(self) -> Term | None:
        """t if the body is t = v1 | ... | vk over the quantified names."""
        return _match_join_of_atoms(self.body, self.names) if isinstance(self.body, Eq) else None


@dataclass(frozen=True, eq=False, repr=False)
class ForallAtoms(_Quantifier):
    @functools.cached_property
    def _subject(self) -> Term | None:
        """t if the body is the atomhood shape t & y = 0 or t & y = t."""
        return _match_atomhood(self.body, self.names[0]) if len(self.names) == 1 else None


@dataclass(frozen=True, eq=False, repr=False)
class Exists(_Quantifier):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Forall(_Quantifier):
    pass


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


@functools.lru_cache(maxsize=64)
def tau(n: int, var: str = "x") -> Formula:
    """The n-th sentence body; see ``tau_steps``.  Equal calls return one
    node, so its program is compiled once."""
    if n < 3:
        raise ValueError("tau is defined for n >= 3")
    return tau_steps(n, var)[-1]


def tau_steps(n_max: int, var: str = "x") -> list[Formula]:
    """tau_3, ..., tau_{n_max}: phi(x) and the n-th step of x meets
    f(g^2(x) & ~g(x)), built on one phi, one probe and one run of
    ``nu_steps``."""
    head, probe = phi(var), _probe(var)
    return [And(head, Neq(Meet(step, probe), ZERO)) for step in nu_steps(n_max, var)]


def _probe(var: str) -> Term:
    """f(g^2(x) & ~g(x))"""
    x = Var(var)
    return Fop(Meet(Gop(Gop(x)), Not(Gop(x))))


# ---------------------------------------------------------------------------
# compiled programs


_QUANTIFIERS = (ExistsAtoms, ForallAtoms, Exists, Forall)
# the node types of each kind, and the kind of operand each inner type takes
_TERMS = frozenset((Var, Zero, One, Join, Meet, Not, Fop, Gop))
_FORMULAS = frozenset((Eq, Neq, And, Or, NotF) + _QUANTIFIERS)
_OPERAND_KINDS = {
    **dict.fromkeys((Join, Meet, Not, Fop, Gop, Eq, Neq), _TERMS),
    **dict.fromkeys((And, Or, NotF) + _QUANTIFIERS, _FORMULAS),
}
_BINARY = frozenset((Join, Meet, Eq, Neq, And, Or))
_UNARY = frozenset((Not, Fop, Gop, NotF))


class Program(NamedTuple):
    """Terms and formulas compiled together into straight-line steps.

    ``terms`` holds term steps ``(type, a, b)`` in dependency order: ``a``
    and ``b`` index earlier term steps, or ``a`` is a Var's name.
    ``formulas`` holds formula steps ``(type, a, b)``, also in dependency
    order: an equation's ``a`` and ``b`` are term slots, a connective's are
    formula slots, and a quantifier's ``a`` is the term slot of the subject
    its body matches (None if it matches none) and ``b`` is ``(names, body
    slot)``.  ``reads[i]`` lists, in order, the term slots that formula step
    i reads.  ``roots`` holds ``(is_formula, slot, reads)``, one per root;
    a term root reads the slots that no earlier term root has read."""

    terms: tuple[tuple, ...]
    formulas: tuple[tuple, ...]
    reads: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[bool, int, tuple[int, ...]], ...]


def compile_program(roots: Sequence[Term | Formula]) -> Program:
    """Compile terms and formulas into one program, with one step per
    distinct operation: nodes that are equal as terms or formulas, such as
    two ``Var("x")`` objects, the ``f`` steps above them or two copies of
    ``phi``, share one step, across roots as well as within one.

    The walk keeps its own stack, so depth is bounded by memory, not by
    Python's recursion limit.  A node is visited twice: first to check and
    stack its operands (left on top), then, with their slots known, to emit
    its step; the order is that of a recursive post-order walk.  A
    quantifier's body is compiled with it, for the finite carriers that
    enumerate it."""
    terms: list[tuple] = []
    formulas: list[tuple] = []
    term_slot: dict[tuple, int] = {}
    formula_slot: dict[tuple, int] = {}
    slots: dict[int, int] = {}  # id(node) -> the slot of its step
    stack: list[tuple[Term | Formula, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slots:
            continue
        kind = type(node)
        if kind is Var:
            step = (Var, node.name, None)
        elif kind is Zero or kind is One:
            step = (kind, None, None)
        elif kind in _BINARY:
            if not ready:
                _check_operands(kind, node.left, node.right)
                stack += [(node, True), (node.right, False), (node.left, False)]
                continue
            step = (kind, slots[id(node.left)], slots[id(node.right)])
        elif kind in _UNARY:
            if not ready:
                _check_operands(kind, node.arg)
                stack += [(node, True), (node.arg, False)]
                continue
            step = (kind, slots[id(node.arg)], None)
        elif kind in _QUANTIFIERS:
            subject = node._subject if kind is ExistsAtoms or kind is ForallAtoms else None
            if not ready:
                _check_operands(kind, node.body)
                stack += [(node, True), (node.body, False)]
                if subject is not None:  # a term inside the body
                    stack.append((subject, False))
                continue
            subject_slot = None if subject is None else slots[id(subject)]
            step = (kind, subject_slot, (node.names, slots[id(node.body)]))
        else:
            raise TypeError(f"unknown term or formula node of type {kind.__name__}")
        table, out = (formula_slot, formulas) if kind in _FORMULAS else (term_slot, terms)
        slot = table.get(step)
        if slot is None:
            slot = table[step] = len(out)
            out.append(step)
        slots[id(node)] = slot
    reads = []
    for kind, a, b in formulas:
        if kind is Eq or kind is Neq:
            direct = (a, b)
        elif kind in _QUANTIFIERS and a is not None:
            direct = (a,)  # the subject
        else:
            direct = ()  # a connective's operands are formula slots
        reads.append(_closure(terms, direct))
    read_already: set[int] = set()
    out_roots = []
    for root in roots:
        slot = slots[id(root)]
        if type(root) in _FORMULAS:
            out_roots.append((True, slot, ()))
        else:
            needed = _closure(terms, (slot,))
            out_roots.append((False, slot, tuple(i for i in needed if i not in read_already)))
            read_already.update(needed)
    return Program(tuple(terms), tuple(formulas), tuple(reads), tuple(out_roots))


def _check_operands(kind: type, *operands) -> None:
    if not all(type(operand) in _OPERAND_KINDS[kind] for operand in operands):
        raise TypeError(f"an operand of {kind.__name__} has the wrong kind")


def _closure(terms: list[tuple], slots: tuple[int, ...]) -> tuple[int, ...]:
    """The given term slots and every slot they depend on, in order."""
    needed = set(slots)
    for i in range(max(slots, default=-1), -1, -1):
        if i in needed:
            kind, a, b = terms[i]
            if kind not in (Var, Zero, One):
                needed.add(a)
                if b is not None:
                    needed.add(b)
    return tuple(sorted(needed))


_UNSET = object()


def run(program: Program, handle, env: dict) -> list:
    """The value of every root of the program under one binding ``env``,
    in order: a term's value, or a formula's truth.  Each distinct step is
    computed at most once, and only when some root needs it: a connective
    decides its left operand first and its right one only when the left
    does not settle it, so in ``tau_n`` the ``nu_n`` part runs only where
    ``phi`` holds."""
    values = [_UNSET] * len(program.terms)
    truths = [None] * len(program.formulas)
    out = []
    for is_formula, slot, reads in program.roots:
        if is_formula:
            out.append(_decide(program, slot, handle, env, values, truths))
        else:
            _compute(program.terms, reads, handle, env, values)
            out.append(values[slot])
    return out


def _compute(terms: tuple[tuple, ...], reads, handle, env: dict, values: list) -> None:
    """Compute the listed term slots that have no value yet, in order."""
    f, g, neg, meet, join = handle.f, handle.g, handle.neg, handle.meet, handle.join
    for i in reads:
        if values[i] is not _UNSET:
            continue
        kind, a, b = terms[i]
        if kind is Fop:
            values[i] = f(values[a])
        elif kind is Meet:
            values[i] = meet(values[a], values[b])
        elif kind is Not:
            values[i] = neg(values[a])
        elif kind is Gop:
            values[i] = g(values[a])
        elif kind is Join:
            values[i] = join(values[a], values[b])
        elif kind is Var:
            if a not in env:
                raise ValueError(f"unbound variable {a!r}")
            values[i] = env[a]
        elif kind is Zero:
            values[i] = handle.zero()
        else:
            values[i] = handle.one()


def _decide(program: Program, root: int, handle, env: dict, values: list, truths: list):
    """The truth of formula slot ``root``, walked with an explicit stack: a
    step whose operands are not decided yet stacks them and is visited
    again.  A quantifier is one step that the carrier decides."""
    terms, formulas, reads = program.terms, program.formulas, program.reads
    stack = [root]
    while stack:
        i = stack[-1]
        if truths[i] is not None:
            stack.pop()
            continue
        kind, a, b = formulas[i]
        if kind is Eq or kind is Neq:
            _compute(terms, reads[i], handle, env, values)
            equal = handle.eq(values[a], values[b])
            truths[i] = equal if kind is Eq else not equal
        elif kind is NotF:
            if truths[a] is None:
                stack.append(a)
                continue
            truths[i] = not truths[a]
        elif kind is And or kind is Or:
            left = truths[a]
            if left is None:
                stack.append(a)
                continue
            if (not left) if kind is And else left:
                truths[i] = left
            elif truths[b] is None:
                stack.append(b)
                continue
            else:
                truths[i] = truths[b]
        else:  # a quantifier: a is its subject's slot or None, b is (names, body slot)
            names, body = b
            subject = None if a is None else _value_of(program, a, reads[i], handle, env, values)
            truths[i] = handle.quantify(kind, names, subject,
                                        _truth_of(program, body, names, handle, env))
        stack.pop()
    return truths[root]


def _value_of(program: Program, slot: int, reads, handle, env: dict, values: list):
    """Term slot's value, computed from ``reads`` when called."""

    def value():
        _compute(program.terms, reads, handle, env, values)
        return values[slot]

    return value


def _truth_of(program: Program, body: int, names: tuple[str, ...], handle, env: dict):
    """Formula slot's truth with ``names`` bound to the given values, in
    fresh value tables."""

    def truth(bound) -> bool:
        inner = {**env, **dict(zip(names, bound))}
        values = [_UNSET] * len(program.terms)
        truths = [None] * len(program.formulas)
        return _decide(program, body, handle, inner, values, truths)

    return truth


def eval_term(t: Term, handle, env: dict):
    """The term's value: its one-root program, every distinct operation once."""
    return run(t._program, handle, env)[0]


def eval_formula(fm: Formula, handle, env: dict) -> bool:
    """Exact truth value.

    The propositional cases are the same on every carrier; only quantifiers
    depend on it.  Finite carriers evaluate them by enumeration
    (atom-relativized or unrestricted).  The symbolic carrier decides the
    atom-relativized shapes through the cardinality classifier and rejects
    anything else.
    """
    return run(fm._program, handle, env)[0]


def _join_leaves(t: Term) -> list[Term]:
    """The leaves of a join tree, left to right, with a stack of its own."""
    leaves: list[Term] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            stack += [node.right, node.left]
        else:
            leaves.append(node)
    return leaves


def _match_join_of_atoms(fm: Eq, names: tuple[str, ...]) -> Term | None:
    """Match t = v1 | ... | vk (vs exactly the quantified names); return t."""
    for subject, joins in ((fm.left, fm.right), (fm.right, fm.left)):
        leaves = _join_leaves(joins)
        if len(leaves) != len(names):
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


# ---------------------------------------------------------------------------
# the separation procedure


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

# The parser's one table: each operator's precedence (a larger one binds
# tighter, and equal ones associate to the left), the node it builds and
# the type of its operands.  A bracket is loosest, and ``f(`` and ``g(``
# are brackets that build a node when they close.  Quantifiers come next,
# so a quantifier's body runs to the end of its bracket group.
_OPERATORS = {
    "(": (0, None, None),
    "f": (0, Fop, Term),
    "g": (0, Gop, Term),
    "exists_atom": (1, ExistsAtoms, Formula),
    "forall_atom": (1, ForallAtoms, Formula),
    "exists": (1, Exists, Formula),
    "forall": (1, Forall, Formula),
    "or": (2, Or, Formula),
    "and": (3, And, Formula),
    "not": (4, NotF, Formula),
    "=": (5, Eq, Term),
    "!=": (5, Neq, Term),
    "|": (6, Join, Term),
    "&": (7, Meet, Term),
    "~": (8, Not, Term),
}
_INFIX = ("or", "and", "=", "!=", "|", "&")


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


def _is_name(tok: str) -> bool:
    """A variable or quantified name: a token the tokenizer matched as a
    name (no operator token is an identifier) that is not a keyword."""
    return tok.isidentifier() and tok not in _OPERATORS


def _parse(text: str, want: type):
    """One pass over the tokens with two explicit stacks, so nesting depth
    is bounded by memory, not by recursion: ``operands`` holds the nodes
    built so far and ``pending`` the operators still waiting for theirs,
    as ``(precedence, token, names)``.  An infix operator first builds
    every pending one that binds at least as tightly, and ``)`` builds
    everything back to its bracket.  Each node checks the type of its
    operands as it is built, so ``(`` need not guess whether it opens a
    term or a formula."""
    tokens = _tokenize(text)
    operands: list = []
    pending: list[tuple] = []

    def build_top() -> None:
        _, tok, names = pending.pop()
        _, node, operand = _OPERATORS[tok]
        if node is None:  # a plain bracket leaves its operand as it is
            return
        arity = 2 if tok in _INFIX else 1
        args = operands[len(operands) - arity:]
        if not all(isinstance(arg, operand) for arg in args):
            raise ValueError(f"{tok!r} takes {operand.__name__.lower()} operands")
        del operands[len(operands) - arity:]
        operands.append(node(*args) if names is None else node(names, *args))

    def build_down_to(prec: int) -> None:
        while pending and pending[-1][0] >= prec:
            build_top()

    expect_operand = True
    pos = 0
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if expect_operand and tok in _OPERATORS and tok not in _INFIX:
            prec, names = _OPERATORS[tok][0], None
            if tok in ("f", "g"):
                if tokens[pos:pos + 1] != ["("]:
                    raise ValueError(f"expected '(' after {tok!r}")
                pos += 1
            elif prec == 1:  # a quantifier: its names, then '.'
                dot = pos
                while dot < len(tokens) and _is_name(tokens[dot]):
                    dot += 1
                if tokens[dot:dot + 1] != ["."]:
                    raise ValueError(f"{tok!r} takes names, then '.'")
                names, pos = tuple(tokens[pos:dot]), dot + 1
            pending.append((prec, tok, names))
        elif expect_operand and (tok in ("0", "1") or _is_name(tok)):
            operands.append(ZERO if tok == "0" else ONE if tok == "1" else Var(tok))
            expect_operand = False
        elif expect_operand:
            raise ValueError(f"expected a term or formula, got {tok!r}")
        elif tok in _INFIX:
            prec = _OPERATORS[tok][0]
            build_down_to(prec)
            pending.append((prec, tok, None))
            expect_operand = True
        elif tok == ")":
            build_down_to(1)
            if not pending:
                raise ValueError("unmatched ')'")
            build_top()
        else:
            raise ValueError(f"expected an operator, got {tok!r}")
    if expect_operand:
        raise ValueError("unexpected end of input")
    build_down_to(1)
    if pending:
        raise ValueError(f"unclosed {pending[-1][1]!r}")
    (out,) = operands
    if not isinstance(out, want):
        got = "formula" if want is Term else "term"
        raise ValueError(f"expected a {want.__name__.lower()}, got a {got}")
    return out


def parse_term(text: str) -> Term:
    return _parse(text, Term)


def parse_formula(text: str) -> Formula:
    return _parse(text, Formula)


# each printed node's token and precedence, read off the parser's table
_PRINTED = {node: (tok, prec) for tok, (prec, node, _) in _OPERATORS.items() if node is not None}


def _format(root: Term | Formula) -> str:
    """Print with the fewest brackets that ``_parse`` needs to build the
    same node: one loop with its own stack of text and ``(node, least
    precedence)`` items.  A node whose operator binds more loosely than its
    place allows is bracketed; an infix operator's left operand may have
    its own precedence and its right one must bind tighter, as equal ones
    associate to the left."""
    out: list[str] = []
    stack: list = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, least = item
        kind = type(node)
        if kind is Var:
            out.append(node.name)
            continue
        if kind in (Zero, One):
            out.append("0" if kind is Zero else "1")
            continue
        if kind not in _PRINTED:
            raise TypeError(f"unknown term or formula node of type {kind.__name__}")
        tok, prec = _PRINTED[kind]
        if prec == 0:  # f( and g( are brackets of their own
            parts = [tok + "(", (node.arg, 0), ")"]
        elif tok in _INFIX:
            parts = [(node.left, prec), f" {tok} ", (node.right, prec + 1)]
        elif prec == 1:  # a quantifier
            parts = [f"{tok} {' '.join(node.names)} . ", (node.body, prec)]
        else:  # ~ and not
            parts = [tok if tok == "~" else tok + " ", (node.arg, prec)]
        if 0 < prec < least:
            parts = ["(", *parts, ")"]
        stack += reversed(parts)
    return "".join(out)


def format_term(t: Term) -> str:
    return _format(t)


def format_formula(fm: Formula) -> str:
    return _format(fm)
