"""The row layer on seeded random parameters.

The default family stops at bound 7; these parameters reach bound 41, the
default ``--n-bound`` of ``tw distinguish``, with both tails and with
explicit as well as co-finite sets.
"""

import random

import pytest

from conftest import random_element, raw_basis_member
from tensebench import symbolic as sym
from tensebench.frames import VertexId
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
    for k in range(0, s.stable_from + 12):
        mask = s.pattern_mask(k)
        assert mask >> k == 0
        for n in range(0, k):
            assert bool(mask >> n & 1) == s.in_pattern(n), (k, n)


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


def test_rule_path_equals_clause_table(s):
    rng = random.Random(f"{SEED} table {s}")
    for _ in range(8):
        x, _ = random_element(rng, s, max_index=s.stable_from + 4)
        assert sym.apply_f(x) == sym.apply_f_table(x)
        assert sym.apply_g(x) == sym.apply_g_table(x)
