import itertools
import operator
import random

import pytest

from tensebench import symbolic as sym
from tensebench.frames import VertexId
from tensebench.sparam import default_family


# the functions under the operator memo, each a functools.lru_cache
MEMOIZED = (sym.union, sym.intersect, sym.complement, sym.apply_f, sym.apply_g,
            sym.pattern_row, sym.off_pattern_row, sym._clause_f, sym._clause_g)


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


def seeded_structure(k: int, seed: int, mode: str, p: float):
    """A seeded atom structure over k atoms with identity atom 0.

    ``raw``: each of the k^3 triples is a cycle with probability p, nothing
    forced.  ``closed``: the forced identity cycles plus random diversity
    triples, closed under the six Peirce transforms.  ``dropped``: a closed
    set with one diversity cycle removed.  Only ``Random.random`` and
    ``Random.randrange`` are drawn, so the structures repeat across Python
    versions."""
    from tensebench.relalg import AtomStructure

    rng = random.Random(seed)
    converse = list(range(k))
    free = list(range(1, k))
    while len(free) >= 2 and rng.random() < 0.5:
        a = free.pop(rng.randrange(len(free)))
        b = free.pop(rng.randrange(len(free)))
        converse[a], converse[b] = b, a
    atoms = range(k) if mode == "raw" else range(1, k)
    cycles = {t for t in itertools.product(atoms, repeat=3) if rng.random() < p}
    if mode != "raw":
        for a in range(k):
            cycles |= {(0, a, a), (a, 0, a), (a, converse[a], 0)}
        frontier = set(cycles)
        while frontier:
            images = set()
            for a, b, c in frontier:
                ca, cb, cc = converse[a], converse[b], converse[c]
                images |= {(ca, c, b), (c, cb, a), (b, cc, ca), (cc, a, cb), (cb, ca, cc)}
            frontier = images - cycles
            cycles |= frontier
    if mode == "dropped":
        diversity = sorted(t for t in cycles if 0 not in t)
        if diversity:
            cycles.remove(diversity[rng.randrange(len(diversity))])
    return AtomStructure(k, tuple(converse), frozenset({0}), frozenset(cycles))


def twelve_atom_structure(name: str):
    """A structure at the 12-atom cap, with identity atom 0 and every atom its
    own converse.  ``dense``: all 1728 triples are cycles.  ``sparse``: the
    forced identity cycles and (1, 2, 3).  ``subadditive``: the triples
    (a, b, c) with c in {a, b}, so every a;b lies below a | b and
    subadditivity holds."""
    from tensebench.relalg import AtomStructure

    k = 12
    triples = itertools.product(range(k), repeat=3)
    if name == "dense":
        cycles = set(triples)
    elif name == "sparse":
        cycles = {(1, 2, 3)}
        for a in range(k):
            cycles |= {(0, a, a), (a, 0, a), (a, a, 0)}
    else:
        cycles = {(a, b, c) for a, b, c in triples if c in (a, b)}
    return AtomStructure(k, tuple(range(k)), frozenset({0}), frozenset(cycles))


TWELVE_ATOM_NAMES = ("dense", "sparse", "subadditive")


def reference_closure(seeds, unary=(), binary=()):
    """Round-based fixpoint: every round applies each operation to every
    element, and to every ordered pair, found by the round before."""
    closed = set(seeds)
    frontier = True
    while frontier:
        frontier = False
        current = list(closed)
        values = [op(x) for x in current for op in unary]
        values += [op(x, y) for x in current for y in current for op in binary]
        for value in values:
            if value not in closed:
                closed.add(value)
                frontier = True
    return closed


def reference_generated(seeds, one, unary=(), binary=()):
    """Every element of the subalgebra that ``seeds`` generate in the powerset
    of ``one``: the closure of 0, 1 and the seeds under complement, join,
    meet and the given operations."""
    return reference_closure(
        {0, one, *seeds},
        (lambda x: one ^ x, *unary),
        (operator.or_, operator.and_, *binary),
    )


def block_unions(blocks):
    """Every union of some of the blocks."""
    unions = {0}
    for block in blocks:
        unions |= {union | block for union in unions}
    return unions
