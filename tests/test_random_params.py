"""The row layer, window masks and the operators against the oracle, on
seeded random parameters.

The default family stops at bound 7; these parameters reach bound 41, the
default ``--n-bound`` of ``tw distinguish``, with both tails and with
explicit as well as co-finite sets.
"""

import dataclasses
import operator
import random

import pytest

from conftest import random_element, raw_basis_member
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


def _raw_row(s, r, top):
    return {n for n in range(1, top) if sym.row_contains(s, r, n)}


def _row_kind(r):
    if r.pat_tail and r.off_tail:
        return "both tails"
    return "finite" if not (r.pat_tail or r.off_tail) else "one tail"


def test_row_shortcuts_match_raw_operations(s):
    # row_union and row_intersect answer the identities with EMPTY_ROW,
    # FULL_ROW and equal operands without canonicalizing; every result must
    # still be the canonical row _row_binary builds
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
    every = set(range(1, top))
    raw = {r: _raw_row(s, r, top) for r in rows}
    pairs = {}
    for a in rows:
        assert _raw_row(s, sym.row_complement(s, a), top) == every - raw[a]
        for b in rows:
            kinds = (_row_kind(a), _row_kind(b))
            pairs[kinds] = pairs.get(kinds, 0) + 1
            union, meet = sym.row_union(s, a, b), sym.row_intersect(s, a, b)
            assert _raw_row(s, union, top) == raw[a] | raw[b], (a, b)
            assert _raw_row(s, meet, top) == raw[a] & raw[b], (a, b)
            assert union == sym._row_binary(s, a, b, operator.or_), (a, b)
            assert meet == sym._row_binary(s, a, b, operator.and_), (a, b)
            assert canonical(union) and canonical(meet), (a, b)
    for kinds in (("finite", "finite"), ("finite", "both tails"), ("both tails", "finite")):
        assert pairs[kinds] >= 50, kinds


def test_rows_built_directly_equal_the_make_row_construction(s):
    # row_complement, tail_row, _f_row_image and INDEX_ONE_ROW build their
    # rows without make_row; each must be the row make_row builds
    def canonical(row):
        return sym.validate_canonical(sym._make_set(s, False, False, 0, [row]))

    rng = random.Random(f"{SEED} direct rows {s}")
    rows = {sym.EMPTY_ROW, sym.FULL_ROW}
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        rows.update(x.rows)
    for r in sorted(rows):
        complement = sym.row_complement(s, r)
        flipped = r.prefix ^ ((1 << r.start) - 2)
        assert complement == sym.make_row(s, flipped, r.start, not r.pat_tail, not r.off_tail), r
        assert canonical(complement)
        image = sym._f_row_image(s, r)
        if r != sym.EMPTY_ROW and not sym.row_is_infinite(r):
            top = r.prefix.bit_length() - 1
            assert image == sym.make_row(s, (1 << (top + 2)) - 2, top + 2, False, False), r
        assert canonical(image)
    for k in range(1, 61):
        assert sym.tail_row(s, k) == sym.make_row(s, 0, k, True, True), k
        assert canonical(sym.tail_row(s, k))
    assert sym.INDEX_ONE_ROW == sym.make_row(s, 0b10, 2, False, False)


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


MEMOIZED = (sym.union, sym.intersect, sym.complement, sym.apply_f, sym.apply_g,
            sym.pattern_row, sym.off_pattern_row, sym._clause_f, sym._clause_g)


def memoized_calls(s, x, y, b):
    """A call of each memoized function: sets x and y, a basis set b."""
    return ((sym.union, (x, y)), (sym.intersect, (x, y)), (sym.complement, (x,)),
            (sym.apply_f, (x,)), (sym.apply_g, (x,)), (sym.pattern_row, (s, b.index or 1)),
            (sym.off_pattern_row, (s, b.index or 1)), (sym._clause_f, (s, b)),
            (sym._clause_g, (s, b)))


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
                got = op(*args)
                assert got == want
                if isinstance(got, sym.SymbolicSet):
                    assert sym.validate_canonical(got)
                else:
                    assert got == sym.make_row(s, got.prefix, got.start, got.pat_tail,
                                               got.off_tail)
            assert op.cache[args] == want


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
        assert all(len(op.cache) <= sym.MEMO_CAP for op in MEMOIZED)
    assert 0 < len(sym.complement.cache) < 40
    # each new table was emptied on reaching the cap; the row tables also
    # hold the rows from index 1 that apply_f and the clause images ask for
    assert all(0 < len(op.cache) <= 41 for op in MEMOIZED[5:])


def test_parameter_switch_empties_every_cache():
    s, t = PARAMS[0], PARAMS[1]
    x, y = sym.basis(s, sym.BasisSet("V", 0)), sym.basis(s, sym.BasisSet("A", 1, 3))
    for op, args in memoized_calls(s, x, y, sym.BasisSet("S", 1, 3)):
        op(*args)
    assert all(op.cache for op in MEMOIZED)
    sym.apply_g(sym.basis(t, sym.BasisSet("V", 0)))
    assert [len(op.cache) for op in MEMOIZED] == [0, 0, 0, 0, 1, 0, 0, 0, 0]
    # a parameter passed first, as the row and clause builders take it, switches too
    sym.apply_f(x)
    assert sym.pattern_row(t, 3) == sym.make_row(t, 0, 3, True, False)
    assert [len(op.cache) for op in MEMOIZED] == [0, 0, 0, 0, 0, 1, 0, 0, 0]
    # the clause images of one parameter are never read for another
    b = sym.BasisSet("Sbar", 0, 2)
    for op in (sym._clause_f, sym._clause_g):
        assert op(s, b) == op.__wrapped__(s, b)
        assert op(t, b) == op.__wrapped__(t, b)
        assert op(t, b).sparam is t and op.cache == {(t, b): op(t, b)}
