"""Exact canonical representation of the generated subalgebra's elements.

Every element is a finite union of basis sets: singletons A(p,m), row
pattern tails S(p,m), row off-pattern tails Sbar(p,m), full rows V(p),
down-sets D(p) and up-sets U(p).  A ``SymbolicSet`` stores the element as a
canonical function from levels to canonical row descriptions, with constant
behaviour (empty or full) outside a finite level window.  All Boolean
operations, the image/preimage operators, cardinality, and level extrema
are computed exactly; equality is structural equality of canonical forms.

Two independent implementations of the operators are provided:
``apply_f``/``apply_g`` derive the result from the three edge rules of the
frame, level by level; ``apply_f_table``/``apply_g_table`` decompose the
argument into basis sets and apply a per-kind clause table.  The audit
module compares both against the finite truncation oracle.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from .frames import TruncationSpec, VertexId, iter_bits
from .sparam import SParameter

# ---------------------------------------------------------------------------
# canonical rows


class Row(NamedTuple):
    """Canonical description of one level's index set.

    Denotes the indices whose bits are set in the int mask ``prefix`` (bit n
    for index n) together with, from ``start`` on, all pattern indices (if
    ``pat_tail``) and all off-pattern indices (if ``off_tail``).  Canonical
    form: prefix has bits only in [1, start); start is minimal; ``off_tail``
    is set only when the off-pattern tail is infinite.

    A NamedTuple, not a dataclass, so that hashing and equality run in C:
    every operator memo key hashes the rows of its sets, and the row
    operations compare rows on every call.
    """

    prefix: int
    start: int
    pat_tail: bool
    off_tail: bool


EMPTY_ROW = Row(0, 1, False, False)
FULL_ROW = Row(0, 1, True, True)
INDEX_ONE_ROW = Row(0b10, 2, False, False)  # just index 1, for any parameter


def _tails(pat: int, pat_tail: bool, off_tail: bool) -> int:
    """The selected tails as an unbounded mask, given the pattern mask."""
    return (pat if pat_tail else 0) | (~pat if off_tail else 0)


def make_row(s: SParameter, members: int, base: int, pat_tail: bool, off_tail: bool) -> Row:
    """Canonicalize a loose row description.

    Semantics of the input: the indices set in the mask ``members`` (bit n
    for index n >= 1) plus the selected tails from ``base`` on.  ``members``
    may have bits at or above ``base``.

    When the parameter's off-pattern class is finite (all-in tail), the only
    canonical tail forms are (False, False) and (True, True): a pattern tail
    is then cofinite, so it is stored as a full tail with the finitely many
    missing indices pushed into the prefix region.

    From the horizon on (``base``, ``stable_from`` and every member lie
    below it) the input agrees with the canonical tails, so ``start`` is one
    above the highest index where the explicit bits below the horizon
    differ from them.
    """
    if base < 1:
        base = 1
    horizon = s.stable_from
    if base > horizon:
        horizon = base
    if members >> horizon:
        horizon = members.bit_length()
    below = (1 << horizon) - 1
    pat = s.pattern_mask(horizon)
    pat_bits = pat if pat_tail else 0
    tails = pat_bits | ~pat if off_tail else pat_bits
    out_off = pat_tail if s.tail_in else off_tail
    canonical = pat_bits | ~pat if out_off else pat_bits
    explicit = members | (tails & (below >> base << base))
    start = (explicit ^ (canonical & (below ^ 1))).bit_length() or 1
    return Row(explicit & ((1 << start) - 1), start, pat_tail, out_off)


def row_contains(s: SParameter, r: Row, n: int) -> bool:
    if n < 1:
        return False
    if n < r.start:
        return bool(r.prefix >> n & 1)
    return r.pat_tail if s.in_pattern(n) else r.off_tail


def _row_bits(r: Row, pat: int, k: int) -> int:
    """The members of r below k, as a mask, given the pattern mask below k."""
    below = (1 << k) - 1
    tails = _tails(pat, r.pat_tail, r.off_tail) & (below >> r.start << r.start)
    return (r.prefix & below) | tails


def _row_binary(s: SParameter, a: Row, b: Row, op) -> Row:
    base = max(a.start, b.start)
    pat = s.pattern_mask(base)
    members = op(_row_bits(a, pat, base), _row_bits(b, pat, base))
    return make_row(s, members, base, op(a.pat_tail, b.pat_tail), op(a.off_tail, b.off_tail))


# Every stored row is canonical, so the identities below return a canonical
# row without canonicalizing again.


def row_union(s, a, b):
    if a == b or b == EMPTY_ROW or a == FULL_ROW:
        return a
    if a == EMPTY_ROW or b == FULL_ROW:
        return b
    return _row_binary(s, a, b, operator.or_)


def row_intersect(s, a, b):
    if a == b or b == FULL_ROW or a == EMPTY_ROW:
        return a
    if a == FULL_ROW or b == EMPTY_ROW:
        return b
    return _row_binary(s, a, b, operator.and_)


def row_complement(s: SParameter, r: Row) -> Row:
    # flipping the prefix and both tails keeps every index where they differ,
    # so start stays minimal and the row stays canonical
    return Row(r.prefix ^ ((1 << r.start) - 2), r.start, not r.pat_tail, not r.off_tail)


def row_is_infinite(r: Row) -> bool:
    return r.pat_tail or r.off_tail


def row_count(r: Row) -> int | None:
    """Number of members, or None when infinite."""
    return None if row_is_infinite(r) else r.prefix.bit_count()


def row_min(s: SParameter, r: Row) -> int | None:
    if r.prefix:
        return (r.prefix & -r.prefix).bit_length() - 1
    candidates = []
    if r.pat_tail:
        candidates.append(s.pattern_min(r.start))
    if r.off_tail:
        off = s.off_pattern_min(r.start)
        if off is not None:
            candidates.append(off)
    return min(candidates) if candidates else None


def row_meets_pattern(s: SParameter, r: Row) -> bool:
    """Whether the row contains some pattern index."""
    return r.pat_tail or bool(r.prefix & s.pattern_mask(r.start))


def tail_row(s: SParameter, start: int) -> Row:
    """All indices >= start; canonical as built, as index start - 1 is out."""
    return Row(0, max(start, 1), True, True)


# ---------------------------------------------------------------------------
# symbolic sets


class SymbolicSet(NamedTuple):
    """Canonical element of the generated subalgebra for one parameter.

    Levels below ``anchor`` behave as ``below_full``; levels from
    ``anchor + len(rows)`` on behave as ``above_full``; ``rows`` give the
    levels in between.  Canonical form: boundary rows differ from the
    adjacent constant row, and a fully constant set has anchor 0.

    A NamedTuple, like ``Row``, so that comparing a set and hashing its
    rows run in C; the parameter returns a hash it computed once.
    """

    sparam: SParameter
    below_full: bool
    above_full: bool
    anchor: int
    rows: tuple[Row, ...]

    def row_at(self, level: int) -> Row:
        if level < self.anchor:
            return FULL_ROW if self.below_full else EMPTY_ROW
        if level >= self.anchor + len(self.rows):
            return FULL_ROW if self.above_full else EMPTY_ROW
        return self.rows[level - self.anchor]

    def __str__(self) -> str:
        return display(self)


def _make_set(
    s: SParameter, below_full: bool, above_full: bool, lo: int, rows: list[Row]
) -> SymbolicSet:
    below_row = FULL_ROW if below_full else EMPTY_ROW
    above_row = FULL_ROW if above_full else EMPTY_ROW
    rows = list(rows)
    while rows and rows[0] == below_row:
        rows.pop(0)
        lo += 1
    while rows and rows[-1] == above_row:
        rows.pop()
    if not rows and below_full == above_full:
        lo = 0
    return SymbolicSet(s, below_full, above_full, lo, tuple(rows))


def empty_set(s: SParameter) -> SymbolicSet:
    return SymbolicSet(s, False, False, 0, ())


def full_set(s: SParameter) -> SymbolicSet:
    return SymbolicSet(s, True, True, 0, ())


def is_empty(x: SymbolicSet) -> bool:
    return not x.below_full and not x.above_full and not x.rows


def is_equal(x: SymbolicSet, y: SymbolicSet) -> bool:
    _check_same_param(x, y)
    return x == y


def _check_same_param(x: SymbolicSet, y: SymbolicSet):
    if x.sparam is not y.sparam and x.sparam != y.sparam:
        raise ValueError("operands built over different S-parameters")


# union, intersect, complement, apply_f and apply_g are memoized on their
# arguments: canonical forms make structural equality a sound key.  So are
# the basis rows (pattern_row, off_pattern_row) and the clause images
# (_clause_f, _clause_g), which take the parameter itself first.  A key
# hashes its sets in C, as sets and rows are NamedTuples; a set's hash takes
# in its parameter's hash, which the parameter computes once.  The tables
# hold results for the parameter of the latest call only.  The cap was set
# by measurement (2-core Xeon, Python 3.11): 4096 raised the audit
# benchmark's peak RSS by up to 4%, 1024 by about 1%, at the same
# throughput.

MEMO_CAP = 1024
_memo_tables: list[dict] = []
_memo_sparam: list[SParameter | None] = [None]


def _memoized(fn):
    """fn with its own table (``.cache``), emptied with all others when a
    call's parameter (its first argument, or that argument's ``sparam``)
    differs from the cached one and on its own when it reaches MEMO_CAP;
    the uncached fn is ``__wrapped__``."""
    table: dict = {}
    _memo_tables.append(table)

    @functools.wraps(fn)
    def memo(*args):
        s = args[0]
        if s.__class__ is not SParameter:
            s = s.sparam
        if s is not _memo_sparam[0]:
            if s != _memo_sparam[0]:
                for other in _memo_tables:
                    other.clear()
            _memo_sparam[0] = s
        out = table.get(args)
        if out is None:
            out = fn(*args)
            if len(table) >= MEMO_CAP:
                table.clear()
            table[args] = out
        return out

    memo.cache = table
    return memo


def _binary(x: SymbolicSet, y: SymbolicSet, is_union: bool) -> SymbolicSet:
    _check_same_param(x, y)
    s = x.sparam
    if is_union:
        below, above = x.below_full or y.below_full, x.above_full or y.above_full
        row_op = row_union
    else:
        below, above = x.below_full and y.below_full, x.above_full and y.above_full
        row_op = row_intersect
    # a set that is not constant has its own rows on [anchor, anchor + len(rows))
    x_varies = x.rows or x.below_full != x.above_full
    y_varies = y.rows or y.below_full != y.above_full
    if x_varies and y_varies:
        lo = min(x.anchor, y.anchor)
        end = max(x.anchor + len(x.rows), y.anchor + len(y.rows))
    elif x_varies or y_varies:
        z = x if x_varies else y
        lo, end = z.anchor, z.anchor + len(z.rows)
    else:
        return _make_set(s, below, above, 0, [])
    rows = [row_op(s, x.row_at(q), y.row_at(q)) for q in range(lo, end)]
    return _make_set(s, below, above, lo, rows)


@_memoized
def union(x: SymbolicSet, y: SymbolicSet) -> SymbolicSet:
    return _binary(x, y, True)


@_memoized
def intersect(x: SymbolicSet, y: SymbolicSet) -> SymbolicSet:
    return _binary(x, y, False)


@_memoized
def complement(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    rows = [row_complement(s, r) for r in x.rows]
    return _make_set(s, not x.below_full, not x.above_full, x.anchor, rows)


@_memoized
def pattern_row(s: SParameter, start: int = 1) -> Row:
    return make_row(s, 0, start, True, False)


@_memoized
def off_pattern_row(s: SParameter, start: int) -> Row:
    """Off-pattern indices >= max(start, 2); may canonicalize to empty."""
    return make_row(s, 0, max(start, 2), False, True)


def union_all(s: SParameter, parts) -> SymbolicSet:
    out = empty_set(s)
    for part in parts:
        out = union(out, part)
    return out


def member(x: SymbolicSet, v: VertexId) -> bool:
    return row_contains(x.sparam, x.row_at(v.level), v.index)


# ---------------------------------------------------------------------------
# basis sets


@dataclass(frozen=True)
class BasisSet:
    """Named generator: kinds A, S, Sbar (indexed), V, D, U (level only)."""

    kind: str
    level: int
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ("A", "S", "Sbar", "V", "D", "U"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        needs_index = self.kind in ("A", "S", "Sbar")
        if needs_index and (self.index is None or self.index < 1):
            raise ValueError(f"kind {self.kind} needs an index >= 1")
        if not needs_index and self.index is not None:
            raise ValueError(f"kind {self.kind} takes no index")

    def __str__(self) -> str:
        if self.index is None:
            return f"{self.kind}({self.level})"
        return f"{self.kind}({self.level},{self.index})"


def basis(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        return basis_a(s, p, m)
    if b.kind == "S":
        return basis_srow(s, p, m)
    if b.kind == "Sbar":
        return basis_sbar(s, p, m)
    if b.kind == "V":
        return basis_vrow(s, p)
    if b.kind == "D":
        return basis_d(s, p)
    return basis_u(s, p)


# The helpers below take level p and index m >= 1 unchecked; ``basis``
# validates them through ``BasisSet``.


def basis_a(s, p, m):
    """A(p,m); the row is canonical as built, since bit m is its top bit."""
    return SymbolicSet(s, False, False, p, (Row(1 << m, m + 1, False, False),))


def basis_srow(s, p, m):
    """S(p,m); never empty, as the pattern holds every even index."""
    return SymbolicSet(s, False, False, p, (pattern_row(s, m),))


def basis_sbar(s, p, m):
    row = off_pattern_row(s, m)
    if row == EMPTY_ROW:  # a finite off-pattern class may end below m
        return empty_set(s)
    return SymbolicSet(s, False, False, p, (row,))


def basis_vrow(s, p):
    return SymbolicSet(s, False, False, p, (FULL_ROW,))


def basis_d(s, p):
    return SymbolicSet(s, True, False, p + 1, ())


def basis_u(s, p):
    return SymbolicSet(s, False, True, p, ())


# ---------------------------------------------------------------------------
# image and preimage, rule-based

# The three edge rules induce, level by level:
#   image:    any nonempty level strictly above q fills level q; within a row
#             the image is the down-closure plus one successor step; a row's
#             index 1 contributes the pattern tail of the next level up.
#   preimage: any nonempty level strictly below q fills level q; within a row
#             the preimage is the up-closure from min-1; index 1 of the level
#             below sees a row iff the row meets the pattern.


def _f_row_image(s: SParameter, r: Row) -> Row:
    if r == EMPTY_ROW:
        return EMPTY_ROW
    if row_is_infinite(r):
        return FULL_ROW
    top = r.prefix.bit_length() - 1
    # indices 1..top + 1; canonical as built, since bit top + 1 is its top bit
    return Row((1 << (top + 2)) - 2, top + 2, False, False)


def _g_row_image(s: SParameter, r: Row) -> Row:
    if r == EMPTY_ROW:
        return EMPTY_ROW
    lo = max(1, row_min(s, r) - 1)
    return tail_row(s, lo)


@_memoized
def apply_f(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    if is_empty(x):
        return x
    if x.above_full:
        return full_set(s)
    top_level = x.anchor + len(x.rows) - 1 if x.rows else x.anchor - 1
    top = x.row_at(top_level)
    out_top = _f_row_image(s, top)
    if row_contains(s, x.row_at(top_level - 1), 1):
        out_top = row_union(s, out_top, pattern_row(s))
    out_above = pattern_row(s) if row_contains(s, top, 1) else EMPTY_ROW
    return _make_set(s, True, False, top_level, [out_top, out_above])


@_memoized
def apply_g(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    if is_empty(x):
        return x
    if x.below_full:
        return full_set(s)
    low_level = x.anchor
    low = x.row_at(low_level)
    out_low = _g_row_image(s, low)
    if row_meets_pattern(s, x.row_at(low_level + 1)):
        out_low = row_union(s, out_low, INDEX_ONE_ROW)
    out_below = INDEX_ONE_ROW if row_meets_pattern(s, low) else EMPTY_ROW
    return _make_set(s, False, True, low_level - 1, [out_below, out_low])


# ---------------------------------------------------------------------------
# decomposition and the clause-table path


_KIND_RANK = {"D": 0, "A": 1, "V": 2, "S": 3, "Sbar": 4, "U": 5}


def _basis_sort_key(b: BasisSet):
    group = 0 if b.kind == "D" else 2 if b.kind == "U" else 1
    return (group, b.level, _KIND_RANK[b.kind], b.index or 0)


def decompose_to_basis(x: SymbolicSet) -> tuple[BasisSet, ...]:
    """Basis sets whose union is exactly x, in canonical order."""
    s = x.sparam
    parts: list[BasisSet] = []
    if x.below_full:
        parts.append(BasisSet("D", x.anchor - 1))
    for offset, row in enumerate(x.rows):
        p = x.anchor + offset
        for n in iter_bits(row.prefix):
            parts.append(BasisSet("A", p, n))
        if row.pat_tail and row.off_tail:
            if row.start == 1:
                parts.append(BasisSet("V", p))
            else:
                parts.append(BasisSet("S", p, row.start))
                if s.off_pattern_min(row.start) is not None:
                    parts.append(BasisSet("Sbar", p, row.start))
        elif row.pat_tail:
            parts.append(BasisSet("S", p, row.start))
        elif row.off_tail:
            if row.start == 1:
                # the off-pattern tail from 1 contains index 1, which the
                # Sbar basis sets exclude
                parts.append(BasisSet("A", p, 1))
                parts.append(BasisSet("Sbar", p, 2))
            else:
                parts.append(BasisSet("Sbar", p, row.start))
    if x.above_full:
        parts.append(BasisSet("U", x.anchor + len(x.rows)))
    return tuple(sorted(parts, key=_basis_sort_key))


# The clause images are memoized per basis set: the table path stays its own
# code, independent of the rule path, and keeps only its own results.


@_memoized
def _clause_f(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        if m == 1:
            return union_all(
                s, [basis_a(s, p, 1), basis_a(s, p, 2), basis_d(s, p - 1), basis_srow(s, p + 1, 1)]
            )
        parts = [basis_a(s, p, n) for n in range(1, m + 2)]
        return union_all(s, parts + [basis_d(s, p - 1)])
    if b.kind in ("D", "V"):
        return union(basis_d(s, p), basis_srow(s, p + 1, 1))
    if b.kind == "U":
        return full_set(s)
    if b.kind == "S":
        return basis_d(s, p)
    listed, infinite = s.off_pattern_from(max(m, 2))  # Sbar excludes index 1
    if infinite:
        return basis_d(s, p)
    if not listed:
        return empty_set(s)
    parts = [basis_a(s, p, n) for n in range(1, max(listed) + 2)]
    return union_all(s, parts + [basis_d(s, p - 1)])


@_memoized
def _clause_g(s: SParameter, b: BasisSet) -> SymbolicSet:
    p, m = b.level, b.index
    if b.kind == "A":
        if m == 1:
            return basis_u(s, p)
        if m == 2:
            return union(basis_a(s, p - 1, 1), basis_u(s, p))
        out = union_all(
            s, [basis_u(s, p + 1), basis_srow(s, p, m - 1), basis_sbar(s, p, m - 1)]
        )
        if s.in_pattern(m):
            out = union(out, basis_a(s, p - 1, 1))
        return out
    if b.kind in ("U", "V"):
        return union(basis_a(s, p - 1, 1), basis_u(s, p))
    if b.kind == "D":
        return full_set(s)
    if b.kind == "S":
        t = s.pattern_min(m)
        if t <= 2:
            return union(basis_a(s, p - 1, 1), basis_u(s, p))
        return union_all(
            s,
            [
                basis_a(s, p - 1, 1),
                basis_u(s, p + 1),
                basis_srow(s, p, t - 1),
                basis_sbar(s, p, t - 1),
            ],
        )
    mn = s.off_pattern_min(max(m, 2))
    if mn is None:
        return empty_set(s)
    return union_all(
        s, [basis_srow(s, p, mn - 1), basis_sbar(s, p, mn - 1), basis_u(s, p + 1)]
    )


def apply_f_table(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    return union_all(s, (_clause_f(s, b) for b in decompose_to_basis(x)))


def apply_g_table(x: SymbolicSet) -> SymbolicSet:
    s = x.sparam
    return union_all(s, (_clause_g(s, b) for b in decompose_to_basis(x)))


# ---------------------------------------------------------------------------
# cardinality, extrema, shift, restriction


@dataclass(frozen=True)
class Cardinality:
    """Finite count or infinite (count None)."""

    count: int | None

    @property
    def is_finite(self) -> bool:
        return self.count is not None

    def __str__(self) -> str:
        return "infinite" if self.count is None else str(self.count)


INFINITE = Cardinality(None)


def cardinality(x: SymbolicSet) -> Cardinality:
    if x.below_full or x.above_full:
        return INFINITE
    total = 0
    for row in x.rows:
        n = row_count(row)
        if n is None:
            return INFINITE
        total += n
    return Cardinality(total)


@dataclass(frozen=True)
class LevelExtent:
    """Extent of a set's levels: empty set, unbounded, or a concrete level."""

    kind: str  # "empty" | "unbounded" | "level"
    level: int | None = None


NO_LEVELS = LevelExtent("empty")
UNBOUNDED = LevelExtent("unbounded")


def max_level(x: SymbolicSet) -> LevelExtent:
    if is_empty(x):
        return NO_LEVELS
    if x.above_full:
        return UNBOUNDED
    if x.rows:
        return LevelExtent("level", x.anchor + len(x.rows) - 1)
    return LevelExtent("level", x.anchor - 1)  # below_full, transition at anchor


def shift(x: SymbolicSet, delta: int) -> SymbolicSet:
    """Relabel every vertex (p, m) to (p + delta, m)."""
    if not x.rows and x.below_full == x.above_full:
        return x  # constant sets are level-invariant
    return SymbolicSet(x.sparam, x.below_full, x.above_full, x.anchor + delta, x.rows)


def window_mask(x: SymbolicSet, spec: TruncationSpec) -> int:
    """Members inside the window as a mask: bit i for ``spec.vertices()[i]``.

    Level p holds the ``index_max`` bits from (p - level_lo) * index_max.
    The window's levels below the rows are all full or all empty, and so are
    those past the rows, so each of the two runs is one block of bits; only
    the rows inside the window are read index by index."""
    width, lo, end = spec.index_max, spec.level_lo, spec.level_hi + 1
    rows_lo = min(max(x.anchor, lo), end)
    rows_end = max(min(x.anchor + len(x.rows), end), rows_lo)
    out = (1 << (rows_lo - lo) * width) - 1 if x.below_full else 0
    if x.above_full:
        out |= ((1 << (end - rows_end) * width) - 1) << (rows_end - lo) * width
    if rows_end > rows_lo:
        pat = x.sparam.pattern_mask(width + 1)
        for p in range(rows_lo, rows_end):
            out |= _row_bits(x.rows[p - x.anchor], pat, width + 1) >> 1 << (p - lo) * width
    return out


def restrict_to_window(x: SymbolicSet, spec: TruncationSpec) -> tuple[VertexId, ...]:
    """Members inside the window, in canonical order."""
    width = spec.index_max
    return tuple(
        VertexId(spec.level_lo + i // width, i % width + 1)
        for i in iter_bits(window_mask(x, spec))
    )


# ---------------------------------------------------------------------------
# display syntax


def display(x: SymbolicSet) -> str:
    parts = decompose_to_basis(x)
    if not parts:
        return "0"
    return " + ".join(str(b) for b in parts)


_BASIS_RE = re.compile(r"^(A|Sbar|S|D|U|V)\(\s*(-?\d+)\s*(?:,\s*(\d+)\s*)?\)$")


def parse_set(s: SParameter, text: str) -> SymbolicSet:
    """Parse the display syntax (any order of basis terms); '0' is empty."""
    body = text.strip()
    if body in ("0", "empty"):
        return empty_set(s)
    out = empty_set(s)
    for chunk in body.split("+"):
        token = chunk.strip()
        match = _BASIS_RE.match(token)
        if match is None:
            raise ValueError(f"cannot parse basis term {token!r}")
        kind, level, index = match.group(1), int(match.group(2)), match.group(3)
        b = BasisSet(kind, level, int(index) if index is not None else None)
        out = union(out, basis(s, b))
    return out


# ---------------------------------------------------------------------------
# canonical-form validation


def validate_canonical(x: SymbolicSet) -> bool:
    """Assert the structural invariants of the canonical form."""
    s = x.sparam
    below_row = FULL_ROW if x.below_full else EMPTY_ROW
    above_row = FULL_ROW if x.above_full else EMPTY_ROW
    if x.rows:
        if x.rows[0] == below_row or x.rows[-1] == above_row:
            raise ValueError("window not minimal")
    elif x.below_full == x.above_full and x.anchor != 0:
        raise ValueError("constant set must have anchor 0")
    for row in x.rows:
        if row.prefix >> row.start or row.prefix & 1:
            raise ValueError("row prefix outside [1, start)")
        if row.off_tail and not row.pat_tail and not s.off_pattern_infinite():
            raise ValueError("off-pattern tail flag on a finite tail")
        if row.pat_tail != row.off_tail and not s.off_pattern_infinite():
            raise ValueError("mixed tail flags under a finite off-pattern")
        redone = make_row(s, row.prefix, row.start, row.pat_tail, row.off_tail)
        if redone != row:
            raise ValueError(f"row not canonical: {row} vs {redone}")
    return True
