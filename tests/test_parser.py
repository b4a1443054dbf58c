"""The text parser against the recursive-descent parser it replaced.

``_Parser`` below is that parser, unchanged, kept as the reference: on
every string that both accept, the two build the same AST.  Where they
differ, the difference is one of the few that the new syntax rules make
on purpose.  Also round trips ``parse(format(x)) == x`` over random terms
and formulas.
"""

import collections
import dataclasses
import random

import pytest

from tensebench import terms as tm
from tensebench.terms import (
    ONE,
    ZERO,
    And,
    Eq,
    Exists,
    ExistsAtoms,
    Forall,
    ForallAtoms,
    Fop,
    Formula,
    Gop,
    Join,
    Meet,
    Neq,
    Not,
    NotF,
    Or,
    Term,
    Var,
)

_KEYWORDS = {"f", "g", "and", "or", "not", "exists_atom", "forall_atom", "exists", "forall"}


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


def reference_parse(text: str, start):
    parser = _Parser(tm._tokenize(text))
    out = start(parser)
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    return out


# ---------------------------------------------------------------------------
# random terms, formulas and token strings

NAMES = ("x", "y", "w", "_a", "x1", "fx", "nota")
QUANTIFIERS = ("exists_atom", "forall_atom", "exists", "forall")
TOKENS = ("x", "y", "w", "_a", "0", "1", "(", ")", "&", "|", "~", "=", "!=", ".",
          "f", "g", "and", "or", "not") + QUANTIFIERS


def random_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([ZERO, ONE] + [Var(n) for n in NAMES])
    kind = rng.choice([Join, Meet, Not, Fop, Gop])
    if kind in (Join, Meet):
        return kind(random_term(rng, depth - 1), random_term(rng, depth - 1))
    return kind(random_term(rng, depth - 1))


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice([Eq, Neq])
        return kind(random_term(rng, depth), random_term(rng, depth))
    kind = rng.choice([And, Or, NotF, ExistsAtoms, ForallAtoms, Exists, Forall])
    if kind in (And, Or):
        return kind(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if kind is NotF:
        return kind(random_formula(rng, depth - 1))
    names = tuple(rng.sample(NAMES, rng.randint(1, 3)))
    return kind(names, random_formula(rng, depth - 1))


def printed(node) -> str:
    return tm.format_term(node) if isinstance(node, Term) else tm.format_formula(node)


def without_brackets(tokens: list[str]) -> list[str]:
    """The tokens with every bracket pair removed that f or g does not open."""
    opened, dropped = [], set()
    for at, tok in enumerate(tokens):
        if tok == "(":
            opened.append(at)
        elif tok == ")":
            start = opened.pop()
            if tokens[start - 1:start] not in (["f"], ["g"]):
                dropped |= {start, at}
    return [tok for at, tok in enumerate(tokens) if at not in dropped]


def printed_tokens(rng, count: int) -> list[list[str]]:
    """The tokens of ``count`` small random terms and formulas, as printed
    or with their plain brackets removed, of 9 tokens at most."""
    out = []
    while len(out) < count:
        node = random_formula(rng, 2) if rng.random() < 0.5 else random_term(rng, 2)
        tokens = tm._tokenize(printed(node))
        if rng.random() < 0.5:
            tokens = without_brackets(tokens)
        if len(tokens) <= 9:
            out.append(tokens)
    return out


def random_tokens(rng, pool) -> list[str]:
    """1-9 tokens: drawn uniformly, or one of ``pool`` with up to two
    tokens inserted, deleted or replaced."""
    if rng.random() < 0.5:
        return rng.choices(TOKENS, k=rng.randint(1, 9))
    while True:
        tokens = list(rng.choice(pool))
        for _ in range(rng.randint(0, 2) if len(tokens) > 1 else 0):
            at = rng.randrange(len(tokens))
            edit = rng.randrange(3)
            if edit == 0:
                tokens.insert(at, rng.choice(TOKENS))
            elif edit == 1:
                del tokens[at]
            else:
                tokens[at] = rng.choice(TOKENS)
        if 1 <= len(tokens) <= 9:
            return tokens


def children(node) -> list:
    values = (getattr(node, field.name) for field in dataclasses.fields(node))
    return [value for value in values if isinstance(value, (Term, Formula))]


def subnodes(node):
    yield node
    for child in children(node):
        yield from subnodes(child)


def uses_operator_as_name(node) -> bool:
    return any(isinstance(n, Var) and not n.name.isidentifier() for n in subnodes(node))


def bare_quantifier_operand(tokens) -> bool:
    return any(a in ("and", "or", "not") and b in QUANTIFIERS for a, b in zip(tokens, tokens[1:]))


def quantifies_underscore_name(node) -> bool:
    return any(isinstance(n, tm._Quantifier) and any(name.startswith("_") for name in n.names)
               for n in subnodes(node))


def try_parse(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return None


def test_same_ast_as_the_reference_parser():
    rng = random.Random(2025)
    pool = printed_tokens(rng, 5000)
    seen = collections.Counter()
    for _ in range(100_000):
        tokens = random_tokens(rng, pool)
        text = " ".join(tokens)
        for parse, start in ((tm.parse_term, _Parser.term), (tm.parse_formula, _Parser.formula)):
            old = try_parse(reference_parse, text, start)
            new = try_parse(parse, text)
            if old is not None and new is not None:
                assert new == old, text
                seen["both"] += 1
            elif old is not None:
                # the reference makes a Var of any token; it cannot build a
                # quantifier with no names or a repeated one, as the node
                # refuses them
                assert uses_operator_as_name(old), text
                seen["operator as name"] += 1
            elif new is not None:
                bare = bare_quantifier_operand(tokens)
                assert bare or quantifies_underscore_name(new), text
                seen["bare quantifier" if bare else "underscore name"] += 1
    assert seen["both"] > 25_000
    assert min(seen.values()) > 100 and len(seen) == 4, seen


def height(node) -> int:
    return 1 + max(map(height, children(node)), default=0)


@pytest.mark.parametrize("make, parse", [(random_term, tm.parse_term),
                                         (random_formula, tm.parse_formula)],
                         ids=["term", "formula"])
def test_parse_inverts_format(make, parse):
    rng = random.Random(f"round trip {make.__name__}")
    heights = []
    for _ in range(1000):
        node = make(rng, rng.randint(0, 28))
        heights.append(height(node))
        assert parse(printed(node)) == node
    assert 20 <= max(heights) <= 30
