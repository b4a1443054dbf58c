import random

import pytest

from tensebench import symbolic as sym
from tensebench.frames import VertexId
from tensebench.sparam import default_family


@pytest.fixture(params=default_family(), ids=lambda pair: pair[0])
def family_param(request):
    """One (label, SParameter) pair per suite parameter."""
    return request.param


def raw_basis_member(s, b: sym.BasisSet, v: VertexId) -> bool:
    """Membership straight from the defining conditions, independent of the
    engine's canonical representation."""
    if b.kind == "A":
        return v.level == b.level and v.index == b.index
    if b.kind == "S":
        return v.level == b.level and s.in_pattern(v.index) and v.index >= b.index
    if b.kind == "Sbar":
        return (
            v.level == b.level
            and not s.in_pattern(v.index)
            and v.index > 1
            and v.index >= b.index
        )
    if b.kind == "V":
        return v.level == b.level
    if b.kind == "D":
        return v.level <= b.level
    return v.level >= b.level  # U


def random_element(rng: random.Random, s, max_parts: int = 6, max_index: int = 12):
    """Union of up to max_parts random basis sets, returned with its parts."""
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        kind = rng.choice(["A", "A", "S", "Sbar", "V", "D", "U"])
        level = rng.randint(-3, 3)
        index = rng.randint(1, max_index) if kind in ("A", "S", "Sbar") else None
        parts.append(sym.BasisSet(kind, level, index))
    out = sym.empty_set(s)
    for b in parts:
        out = sym.union(out, sym.basis(s, b))
    return out, parts
