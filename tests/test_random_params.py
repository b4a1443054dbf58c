"""The row layer, window masks and the operators against the oracle, on
seeded random parameters.

The default family stops at bound 7; these parameters reach bound 41, the
default ``--n-bound`` of ``tw distinguish``, with both tails and with
explicit as well as co-finite sets.
"""

import dataclasses
import itertools
import operator
import random

import pytest

from conftest import MEMOIZED, random_element, raw_basis_member
from tensebench import audit as au
from tensebench import symbolic as sym
from tensebench import terms as tm
from tensebench.frames import VertexId, as_finite_algebra
from tensebench.sparam import SParameter

SEED = 20211018


def random_params(count: int) -> list[SParameter]:
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        bound = rng.randrange(3, 42, 2)
        explicit = frozenset(n for n in range(3, bound + 1, 2) if rng.random() < 0.5)
        out.append(SParameter(explicit, bound, rng.random() < 0.5))
    return out


PARAMS = random_params(24)


@pytest.fixture(params=PARAMS, ids=str)
def s(request):
    return request.param


def test_params_cover_both_tails_and_large_bounds():
    assert {s.tail_in for s in PARAMS} == {True, False}
    assert max(s.bound for s in PARAMS) >= 35


def test_pattern_mask_agrees_with_in_pattern(s):
    # the pattern below stable_from is precomputed, off the dataclass fields
    assert [f.name for f in dataclasses.fields(SParameter)] == ["explicit", "bound", "tail_in"]
    assert s == SParameter(s.explicit, s.bound, s.tail_in)
    for k in range(0, s.bound + 41):
        assert s.pattern_mask(k) == sum(1 << n for n in range(1, k) if s.in_pattern(n)), k


def test_member_matches_raw_definition(s):
    rng = random.Random(f"{SEED} {s}")
    window = [VertexId(p, n) for p in range(-4, 5) for n in range(1, s.stable_from + 8)]
    for _ in range(8):
        x, parts = random_element(rng, s, max_index=s.stable_from + 4)
        for v in window:
            want = any(raw_basis_member(s, b, v) for b in parts)
            assert sym.member(x, v) == want, (parts, v)


def test_operations_stay_canonical(s):
    rng = random.Random(f"{SEED} ops {s}")
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        y, _ = random_element(rng, s, max_index=s.stable_from + 4)
        for result in (sym.union(x, y), sym.intersect(x, y), sym.complement(x),
                       sym.apply_f(x), sym.apply_g(x)):
            assert sym.validate_canonical(result)


# Reference set operations, independent of the kernel's row encoding.  They
# read each level through row_at, combine rows as raw member sets below
# stable_from + 10, rebuild each result row with make_row, take a row's least
# member from its raw set and build through the NamedTuple constructors.


def _raw_row(s, r, top):
    return {n for n in range(1, top) if sym.row_contains(s, r, n)}


def _row_of_raw(s, raw, top):
    """The row whose members below top are raw, and which keeps from top on
    the tail of each index class that raw shows at top and top + 1."""
    even, odd = (top, top + 1) if top % 2 == 0 else (top + 1, top)
    row = sym.make_row(s, sum(1 << n for n in raw if n < top), top, even in raw, odd in raw)
    assert _raw_row(s, row, top + 2) == raw
    return row


def ref_top(s):
    """Every tail of a row that the reference operations meet starts below."""
    return s.stable_from + 8


def ref_raw(s, r):
    return _raw_row(s, r, ref_top(s) + 2)


def ref_row(s, raw):
    return _row_of_raw(s, raw, ref_top(s))


def ref_make_set(s, below_full, above_full, lo, rows):
    below_row = sym.FULL_ROW if below_full else sym.EMPTY_ROW
    above_row = sym.FULL_ROW if above_full else sym.EMPTY_ROW
    rows = list(rows)
    while rows and rows[0] == below_row:
        rows.pop(0)
        lo += 1
    while rows and rows[-1] == above_row:
        rows.pop()
    if not rows and below_full == above_full:
        lo = 0
    return sym.SymbolicSet(s, below_full, above_full, lo, tuple(rows))


def ref_binary(x, y, is_union):
    s = x.sparam
    op = operator.or_ if is_union else operator.and_
    below, above = op(x.below_full, y.below_full), op(x.above_full, y.above_full)
    x_varies = x.rows or x.below_full != x.above_full
    y_varies = y.rows or y.below_full != y.above_full
    if x_varies and y_varies:
        lo = min(x.anchor, y.anchor)
        end = max(x.anchor + len(x.rows), y.anchor + len(y.rows))
    elif x_varies or y_varies:
        z = x if x_varies else y
        lo, end = z.anchor, z.anchor + len(z.rows)
    else:
        return ref_make_set(s, below, above, 0, [])
    rows = [ref_row(s, op(ref_raw(s, x.row_at(q)), ref_raw(s, y.row_at(q))))
            for q in range(lo, end)]
    return ref_make_set(s, below, above, lo, rows)


def ref_complement(x):
    s = x.sparam
    every = set(range(1, ref_top(s) + 2))
    rows = [ref_row(s, every - ref_raw(s, r)) for r in x.rows]
    return ref_make_set(s, not x.below_full, not x.above_full, x.anchor, rows)


def ref_apply_f(x):
    s = x.sparam
    if sym.is_empty(x):
        return x
    if x.above_full:
        return sym.full_set(s)
    top_level = x.anchor + len(x.rows) - 1 if x.rows else x.anchor - 1
    top, end = ref_raw(s, x.row_at(top_level)), ref_top(s) + 2
    if not top:
        out_top = set()
    elif max(top) >= end - 2:  # a row with a tail
        out_top = set(range(1, end))
    else:
        out_top = set(range(1, max(top) + 2))
    pattern = {n for n in range(1, end) if s.in_pattern(n)}
    if 1 in ref_raw(s, x.row_at(top_level - 1)):
        out_top |= pattern
    out_above = pattern if 1 in top else set()
    return ref_make_set(s, True, False, top_level, [ref_row(s, out_top), ref_row(s, out_above)])


def ref_row_min(s, r):
    return min(ref_raw(s, r), default=None)


def ref_apply_g(x):
    s = x.sparam
    if sym.is_empty(x):
        return x
    if x.below_full:
        return sym.full_set(s)
    low, over = ref_raw(s, x.row_at(x.anchor)), ref_raw(s, x.row_at(x.anchor + 1))
    out_low = set()
    if low:
        out_low = set(range(max(1, ref_row_min(s, x.row_at(x.anchor)) - 1), ref_top(s) + 2))
    if any(s.in_pattern(n) for n in over):
        out_low.add(1)
    out_below = {1} if any(s.in_pattern(n) for n in low) else set()
    return ref_make_set(s, False, True, x.anchor - 1, [ref_row(s, out_below), ref_row(s, out_low)])


def random_finite_element(rng, s, max_index):
    """Union of up to six random atoms A(p,m): every row is finite."""
    out = sym.empty_set(s)
    for _ in range(rng.randint(1, 6)):
        out = sym.union(out, sym.basis_a(s, rng.randint(-2, 2), rng.randint(1, max_index)))
    return out


def test_set_kernel_equals_the_reference_operations(s):
    rng = random.Random(f"{SEED} kernel {s}")
    top = s.stable_from + 4
    pool = {sym.empty_set(s), sym.full_set(s)}
    for _ in range(6):
        x, _ = random_element(rng, s, max_index=top)
        pool |= {x, random_finite_element(rng, s, top)}
    for x in sorted(pool, key=sym.display)[:8]:
        pool |= {ref_complement(x), ref_apply_f(x), ref_apply_g(x)}
    pool = sorted(pool, key=sym.display)
    # one level of every row kind, and two adjacent levels, with their
    # complements: union and meet see every pair of row kinds on one level,
    # and f and g read each kind as the top or lowest row and as its neighbour
    kinds = [sym.BasisSet("A", 0, 1), sym.BasisSet("A", 0, 3), sym.BasisSet("S", 0, 1),
             sym.BasisSet("S", 0, 4), sym.BasisSet("Sbar", 0, 2), sym.BasisSet("Sbar", 0, 5),
             sym.BasisSet("V", 0)]
    single = sorted({x for b in kinds for x in (sym.basis(s, b), ref_complement(sym.basis(s, b)))},
                    key=sym.display)
    stacked = set()
    for low, high in itertools.product(kinds, repeat=2):
        x = sym.union(sym.basis(s, low), sym.shift(sym.basis(s, high), 1))
        stacked |= {x, ref_complement(x)}
    unary = ((sym.complement, ref_complement), (sym.apply_f, ref_apply_f),
             (sym.apply_g, ref_apply_g))
    binary = ((sym.union, True), (sym.intersect, False))
    for x in pool + sorted(stacked, key=sym.display):
        for op, ref in unary:
            got = op.__wrapped__(x)
            assert got == ref(x), (op.__name__, str(x))
            assert sym.validate_canonical(got)
    for x, y in itertools.chain(itertools.product(pool, repeat=2),
                                itertools.product(single, repeat=2)):
        for op, is_union in binary:
            got = op.__wrapped__(x, y)
            assert got == ref_binary(x, y, is_union), (op.__name__, str(x), str(y))
            assert sym.validate_canonical(got)


def _row_kind(s, r, top):
    raw = _raw_row(s, r, top + 2)
    return ("finite", "one tail", "both tails")[(top in raw) + (top + 1 in raw)]


def test_row_shortcuts_match_raw_operations(s):
    # row_union and row_intersect answer the identities with EMPTY_ROW,
    # FULL_ROW and equal operands without building a row; every result must
    # still be the canonical row of its raw member set
    def canonical(row):
        return sym.validate_canonical(sym._make_set(s, False, False, 0, [row]))

    rng = random.Random(f"{SEED} rows {s}")
    rows = {sym.EMPTY_ROW, sym.FULL_ROW}
    for _ in range(6):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        rows.update(x.rows)
    top = s.stable_from + 8
    # rows of the two plain kinds, so that every pairing of them is drawn
    for _ in range(8):
        members = rng.getrandbits(top) & ~1
        rows.add(sym.make_row(s, members, 1, False, False))
        rows.add(sym.make_row(s, members, rng.randrange(1, top), True, True))
    rows = sorted(rows)
    every = set(range(1, top + 2))
    raw = {r: _raw_row(s, r, top + 2) for r in rows}
    pairs = {}
    for a in rows:
        assert _raw_row(s, sym.row_complement(s, a), top + 2) == every - raw[a]
        for b in rows:
            kinds = (_row_kind(s, a, top), _row_kind(s, b, top))
            pairs[kinds] = pairs.get(kinds, 0) + 1
            union, meet = sym.row_union(s, a, b), sym.row_intersect(s, a, b)
            assert _raw_row(s, union, top + 2) == raw[a] | raw[b], (a, b)
            assert _raw_row(s, meet, top + 2) == raw[a] & raw[b], (a, b)
            assert union == _row_of_raw(s, raw[a] | raw[b], top), (a, b)
            assert meet == _row_of_raw(s, raw[a] & raw[b], top), (a, b)
            assert canonical(union) and canonical(meet), (a, b)
    for kinds in (("finite", "finite"), ("finite", "both tails"), ("both tails", "finite")):
        assert pairs[kinds] >= 50, kinds


def test_rows_built_directly_equal_the_make_row_construction(s):
    # row_complement, _f_row_image and INDEX_ONE_ROW build their rows without
    # make_row; each must be the row make_row builds from its raw member set
    def canonical(row):
        return sym.validate_canonical(sym._make_set(s, False, False, 0, [row]))

    rng = random.Random(f"{SEED} direct rows {s}")
    rows = {sym.EMPTY_ROW, sym.FULL_ROW}
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        rows.update(x.rows)
    top = s.stable_from + 64
    every = set(range(1, top + 2))
    for r in sorted(rows):
        raw = _raw_row(s, r, top + 2)
        complement = sym.row_complement(s, r)
        assert complement == _row_of_raw(s, every - raw, top), r
        assert canonical(complement)
        image = sym._f_row_image(s, r)
        if raw and max(raw) < top:
            assert image == _row_of_raw(s, set(range(1, max(raw) + 2)), top), r
        assert canonical(image)
    for k in range(1, 61):
        assert sym.tail_row(s, k) == _row_of_raw(s, set(range(k, top + 2)), top), k
        assert canonical(sym.tail_row(s, k))
    assert sym.INDEX_ONE_ROW == _row_of_raw(s, {1}, top)


def test_basis_helpers_equal_the_make_row_construction(s):
    # the construction the helpers had before they built their sets directly
    def old(kind, p, m=None):
        if kind == "D":
            return sym.SymbolicSet(s, True, False, p + 1, ())
        if kind == "U":
            return sym.SymbolicSet(s, False, True, p, ())
        row = {
            "A": lambda: sym.make_row(s, 1 << m, m + 1, False, False),
            "S": lambda: sym.make_row(s, 0, m, True, False),
            "Sbar": lambda: sym.make_row(s, 0, max(m, 2), False, True),
            "V": lambda: sym.FULL_ROW,
        }[kind]()
        return sym._make_set(s, False, False, p, [row])

    indexed = {"A": sym.basis_a, "S": sym.basis_srow, "Sbar": sym.basis_sbar}
    level_only = {"V": sym.basis_vrow, "D": sym.basis_d, "U": sym.basis_u}
    for p in range(-3, 4):
        cases = [(kind, helper, (p, m)) for kind, helper in indexed.items()
                 for m in range(1, s.stable_from + 5)]
        cases += [(kind, helper, (p,)) for kind, helper in level_only.items()]
        for kind, helper, args in cases:
            got = helper(s, *args)
            assert got == old(kind, *args), (kind, args)
            assert got == sym.basis(s, sym.BasisSet(kind, *args)), (kind, args)
            assert sym.validate_canonical(got)


def _window_mask_loop(x, spec):
    """The per-level construction window_mask had before it read the levels
    below and past the rows as two blocks."""
    width = spec.index_max
    pat = x.sparam.pattern_mask(width + 1)
    out = 0
    for p in range(spec.level_hi, spec.level_lo - 1, -1):
        out = out << width | sym._row_bits(x.row_at(p), pat, width + 1) >> 1
    return out


WINDOWS = (au.ORACLE_WINDOW, au.ORACLE_WINDOW.shrink(1), au.ORACLE_WINDOW.shrink(2))


def test_window_mask_equals_the_per_level_loop(s):
    rng = random.Random(f"{SEED} window {s}")
    sets = [random_element(rng, s, max_index=s.stable_from + 4)[0] for _ in range(8)]
    # rows wholly below, across the lower edge, inside, across the upper
    # edge, wholly above and across the whole of each window, under every
    # pair of constant behaviours outside them
    rows = (sym.INDEX_ONE_ROW, sym.pattern_row(s, 3), sym.basis_a(s, 0, 5).rows[0])
    for spec in WINDOWS:
        lo, hi = spec.level_lo, spec.level_hi
        for anchor in (lo - 5, lo - 3, lo - 2, lo - 1, lo, 0, hi - 1, hi, hi + 1, hi + 3):
            for length in (0, 1, 3):
                for below_full in (False, True):
                    for above_full in (False, True):
                        sets.append(sym.SymbolicSet(
                            s, below_full, above_full, anchor, rows[:length]))
        sets.append(sym.SymbolicSet(s, True, True, lo - 2, rows * (hi - lo + 2)))
    for x in sets:
        for spec in WINDOWS:
            assert sym.window_mask(x, spec) == _window_mask_loop(x, spec), (x, spec)


def test_single_operations_agree_with_the_oracle(s):
    # the rule path against the truncation, through the audit's comparison
    rng = random.Random(f"{SEED} oracle {s}")
    for _ in range(10):
        x, parts = random_element(rng, s, max_index=s.stable_from + 4)
        assert au._oracle_agrees(s, x, sym.apply_f(x), "f"), parts
        assert au._oracle_agrees(s, x, sym.apply_g(x), "g"), parts


def random_term(rng, height):
    """A random term tree over x and y, at most ``height`` nodes deep."""
    if height <= 1 or rng.random() < 0.25:
        return rng.choice([tm.Var("x"), tm.Var("y"), tm.Var("x"), tm.ZERO, tm.ONE])
    kind = rng.choice([tm.Join, tm.Meet, tm.Not, tm.Fop, tm.Gop, tm.Fop, tm.Gop])
    if kind in (tm.Join, tm.Meet):
        return kind(random_term(rng, height - 1), random_term(rng, height - 1))
    return kind(random_term(rng, height - 1))


def window_bits(spec):
    """The vertices of a window inside ORACLE_WINDOW, as a mask in the
    oracle frame's vertex order."""
    outer = au.ORACLE_WINDOW
    return sum(((1 << spec.index_max) - 1) << (p - outer.level_lo) * outer.index_max
               for p in range(spec.level_lo, spec.level_hi + 1))


def test_whole_terms_agree_with_the_oracle(s):
    # ROADMAP item 5(a): a whole term on the symbolic carrier against the
    # same term on the truncation's algebra, with the inputs cut to the
    # window, compared where modal_depth(t) steps cannot see past its edge
    rng = random.Random(f"{SEED} whole terms {s}")
    outer = au.ORACLE_WINDOW
    finite = tm.FiniteHandle(as_finite_algebra(au._oracle_frame(s)))
    symbolic = tm.SymbolicHandle(s)
    edge_atoms = [sym.basis_a(s, p, m) for p in (-8, 8) for m in (1, 2, 46, 47, 48)]
    edge_atoms += [sym.basis_a(s, rng.randint(-8, 8), m) for m in (46, 47, 48)]
    cases = [(tm.Fop(tm.Fop(tm.Var("x"))), a) for a in edge_atoms]
    cases += [(tm.Gop(tm.Gop(tm.Var("x"))), a) for a in edge_atoms]
    for _ in range(12):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        cases.append((random_term(rng, 7), rng.choice([x, x, rng.choice(edge_atoms)])))
    at_the_edge = 0
    for term, x in cases:
        y, _ = random_element(rng, s, max_index=s.stable_from + 4)
        got = tm.eval_term(term, symbolic, {"x": x, "y": y})
        want = tm.eval_term(term, finite, {"x": sym.window_mask(x, outer),
                                           "y": sym.window_mask(y, outer)})
        inner = window_bits(outer.shrink(tm.modal_depth(term)))
        assert (sym.window_mask(got, outer) ^ want) & inner == 0, (term, x, y)
        at_the_edge += (sym.window_mask(got, outer) ^ want) != 0
    # the truncation is wrong at its edge, so the margin is what makes these pass
    assert at_the_edge > 0


def test_rule_path_equals_clause_table(s):
    rng = random.Random(f"{SEED} table {s}")
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        assert sym.apply_f(x) == sym.apply_f_table(x)
        assert sym.apply_g(x) == sym.apply_g_table(x)


def test_de_morgan(s):
    rng = random.Random(f"{SEED} de morgan {s}")
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        y, _ = random_element(rng, s, max_index=s.stable_from + 4)
        assert sym.complement(sym.union(x, y)) == sym.intersect(
            sym.complement(x), sym.complement(y))


def test_conjugacy(s):
    # f(x) & y = 0 iff x & g(y) = 0, with x or y an atom of a window, so that
    # each side decides the other operator's value on that window exactly
    rng = random.Random(f"{SEED} conjugacy {s}")
    atoms = [sym.basis_a(s, p, m) for p in range(-2, 3) for m in range(1, s.stable_from + 4)]
    for _ in range(4):
        y, _ = random_element(rng, s, max_index=s.stable_from + 4)
        for a in atoms:
            assert (sym.is_empty(sym.intersect(sym.apply_f(a), y))
                    == sym.is_empty(sym.intersect(a, sym.apply_g(y)))), (a, y)
            assert (sym.is_empty(sym.intersect(sym.apply_f(y), a))
                    == sym.is_empty(sym.intersect(y, sym.apply_g(a)))), (y, a)


def test_first_disagreement_is_exact(s):
    # n_bound=0 reports the first disagreement without evaluating a sentence
    for t in PARAMS:
        want = next((n for n in range(3, 101, 2) if s.contains(n) != t.contains(n)), None)
        report = tm.distinguish(s, t, n_bound=0)
        assert report.witness_n == want, t
        assert report.verdict == ("Identical" if want is None else "Inconclusive")


def test_sent_witnesses_equal_the_witness_search(s):
    # audit_sent reads its exists-tau results off the truths its batch
    # decided at A(0,m), m <= 24; the search decides each tau_n on its own.
    # A confirmed entry shows the result as its note, a counterexample as
    # its witness.
    printed = {e.fields()["n"]: e.witness or e.note
               for e in au.audit_sent(s).entries if e.claim.startswith("check=exists-tau ")}
    assert printed == {str(n): str(tm.exists_tau_witness(s, n, 24)) for n in range(3, 13)}


def memoized_calls(s, x, y, b):
    """A call of each memoized function: sets x and y, a basis set b."""
    return ((sym.union, (x, y)), (sym.intersect, (x, y)), (sym.complement, (x,)),
            (sym.apply_f, (x,)), (sym.apply_g, (x,)), (sym.pattern_row, (s, b.index or 1)),
            (sym.off_pattern_row, (s, b.index or 1)), (sym._clause_f, (s, b)),
            (sym._clause_g, (s, b)))


def assert_canonical(s, got):
    if isinstance(got, sym.Row):
        got = sym._make_set(s, False, False, 0, [got])
    assert sym.validate_canonical(got)


def test_memoized_operators_equal_the_uncached_ones(s):
    rng = random.Random(f"{SEED} memo {s}")
    for _ in range(8):
        x, parts = random_element(rng, s, max_index=s.stable_from + 4)
        y, _ = random_element(rng, s, max_index=s.stable_from + 4)
        b = rng.choice(parts or [sym.BasisSet("A", 0, s.stable_from + 2)])
        calls = memoized_calls(s, x, y, b)
        assert [op for op, _ in calls] == list(MEMOIZED)
        for op, args in calls:
            want = op.__wrapped__(*args)
            for _ in range(2):  # a miss or a hit, then a hit
                hits = op.cache_info().hits
                got = op(*args)
                assert got == want
                assert_canonical(s, got)
            assert op.cache_info().hits == hits + 1


def test_memo_serves_interleaved_parameters():
    # one table holds several parameters at once; an equal copy of a
    # parameter is an equal key, and a hit is still the exact result
    s, t = PARAMS[0], PARAMS[2]
    s_copy = SParameter(s.explicit, s.bound, s.tail_in)
    assert s != t and s_copy == s and s_copy is not s
    rng = random.Random(f"{SEED} interleaved")
    for _ in range(6):
        for u in (s, t, s_copy):
            x, parts = random_element(rng, u, max_index=u.stable_from + 4)
            y, _ = random_element(rng, u, max_index=u.stable_from + 4)
            b = rng.choice(parts or [sym.BasisSet("A", 0, u.stable_from + 2)])
            for op, args in memoized_calls(u, x, y, b):
                got = op(*args)
                assert got == op.__wrapped__(*args)
                assert_canonical(u, got)


def test_memoized_functions_are_the_listed_caches():
    cached = {name for name, value in vars(sym).items() if hasattr(value, "cache_info")}
    assert cached == {op.__name__ for op in MEMOIZED}
    assert all(op.cache_info().maxsize == sym.MEMO_CAP for op in MEMOIZED)


def test_mixed_parameter_union_still_raises():
    s, t = PARAMS[0], PARAMS[1]
    assert s != t
    x, y = sym.basis(s, sym.BasisSet("V", 0)), sym.basis(t, sym.BasisSet("V", 0))
    assert sym.union(x, x) == x
    for op, args in ((sym.union, (x, y)), (sym.union, (y, x)), (sym.intersect, (x, y))):
        with pytest.raises(ValueError):
            op(*args)


def test_set_equality_compares_the_parameter():
    s, t = PARAMS[0], PARAMS[1]
    x, y = sym.basis(s, sym.BasisSet("V", 0)), sym.basis(t, sym.BasisSet("V", 0))
    assert x.rows == y.rows
    assert x != y
    # a copy over an equal parameter object is an equal key
    copy_of_x = sym.SymbolicSet(SParameter(s.explicit, s.bound, s.tail_in), *x[1:])
    assert copy_of_x.sparam is not s
    assert copy_of_x == x and hash(copy_of_x) == hash(x)
    assert sym.complement(x).sparam is s and sym.complement(y).sparam is t


def test_no_cache_exceeds_the_cap():
    s = PARAMS[0]
    x = sym.basis(s, sym.BasisSet("D", 0))
    for m in range(1, sym.MEMO_CAP + 40):
        b = sym.BasisSet("A", m % 7, m)
        a = sym.basis(s, b)
        for op, args in memoized_calls(s, a, x, b):
            op(*args)
        assert all(op.cache_info().currsize <= sym.MEMO_CAP for op in MEMOIZED)
    # every table is full, and the least recently used results went first
    assert all(op.cache_info().currsize == sym.MEMO_CAP for op in MEMOIZED)
    for m, hit in ((sym.MEMO_CAP + 39, True), (1, False)):
        hits = sym.complement.cache_info().hits
        sym.complement(sym.basis(s, sym.BasisSet("A", m % 7, m)))
        assert sym.complement.cache_info().hits == hits + hit


def test_clause_images_of_one_parameter_are_never_read_for_another():
    s, t = PARAMS[0], PARAMS[1]
    b = sym.BasisSet("Sbar", 0, 2)
    for op in (sym._clause_f, sym._clause_g):
        assert op(s, b) == op.__wrapped__(s, b)
        assert op(t, b) == op.__wrapped__(t, b)
        assert op(s, b).sparam == s and op(t, b).sparam == t
