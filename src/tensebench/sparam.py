"""Eventually-constant sets of odd integers >= 3, the construction's parameter.

An ``SParameter`` stores a finite set of explicit odd members up to ``bound``
and a tail rule (all odd n > bound in, or all out).  The induced *pattern*
is the member set together with every even integer; row-pattern sets and the
upward edges of the layered frames are driven by pattern membership, so all
the decision helpers here (pattern minima, off-pattern enumeration) are what
the symbolic engine needs to stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class SParameter:
    """Decidable set of odd integers >= 3 with an eventually-constant tail.

    ``explicit`` lists the odd members in [3, bound]; odd integers above
    ``bound`` are members iff ``tail_in``.  Construction normalizes ``bound``
    downward so equal sets compare equal structurally.
    """

    explicit: frozenset[int]
    bound: int
    tail_in: bool

    def __post_init__(self):
        if self.bound < 3:
            raise ValueError("bound must be >= 3")
        for n in self.explicit:
            if n % 2 == 0 or n < 3 or n > self.bound:
                raise ValueError(f"explicit member {n} must be odd, >= 3, <= bound")
        # canonicalize: shrink bound while the top odd slot matches the tail
        explicit = set(self.explicit)
        if self.tail_in:
            bound = self.bound if self.bound % 2 == 1 else self.bound - 1
        else:
            # every slot above the largest member matches the absent tail
            bound = max(explicit, default=3)
        while bound > 3 and (bound in explicit) == self.tail_in:
            explicit.discard(bound)
            bound -= 2
        object.__setattr__(self, "explicit", frozenset(explicit))
        object.__setattr__(self, "bound", bound)
        # kept off the fields, so == and repr ignore them: the pattern below
        # stable_from, and the fields' hash, which every operator memo key
        # takes in
        low = _every_other((bound - 1) // 2) << 2 | sum(1 << n for n in explicit)
        object.__setattr__(self, "_low_pattern", low)
        object.__setattr__(self, "_hash", hash((self.explicit, bound, self.tail_in)))

    def __hash__(self) -> int:
        return self._hash

    def contains(self, n: int) -> bool:
        """Membership of n in the odd set itself."""
        if n % 2 == 0 or n < 3:
            return False
        if n <= self.bound:
            return n in self.explicit
        return self.tail_in

    def in_pattern(self, n: int) -> bool:
        """Membership of n in the pattern set (members plus all evens)."""
        if n < 1:
            return False
        return n % 2 == 0 or self.contains(n)

    def pattern_mask(self, k: int) -> int:
        """The pattern indices below k as a mask: bit n set iff in_pattern(n)."""
        top = self.stable_from
        if k <= top:
            return self._low_pattern & ((1 << max(k, 0)) - 1)
        # from stable_from (even) on: every index if the tail is in, else the evens
        tail = (1 << k) - (1 << top) if self.tail_in else _every_other((k - top + 1) // 2) << top
        return self._low_pattern | tail

    @property
    def stable_from(self) -> int:
        """Index from which pattern membership is decided by parity + tail."""
        return self.bound + 1

    def pattern_min(self, m: int) -> int:
        """Least n >= m with n in the pattern.  Always exists (evens)."""
        n = max(m, 1)
        while not self.in_pattern(n):
            n += 1
        return n

    def off_pattern_infinite(self) -> bool:
        """Whether {n : n not in pattern} is infinite (iff the tail is out)."""
        return not self.tail_in

    def off_pattern_from(self, m: int) -> tuple[tuple[int, ...], bool]:
        """Off-pattern members >= m: explicit ones up to stability, plus a flag.

        Returns ``(members, infinite)``.  When ``infinite`` is true the listed
        members are exactly those below ``stable_from``; every odd n >=
        stable_from is also off-pattern.  When false the list is complete.
        """
        lo = max(m, 1)
        members = tuple(
            n for n in range(lo, self.stable_from) if not self.in_pattern(n)
        )
        return members, self.off_pattern_infinite()

    def off_pattern_min(self, m: int) -> int | None:
        """Least off-pattern n >= m, or None if there is none."""
        members, infinite = self.off_pattern_from(m)
        if members:
            return members[0]
        if infinite:
            n = max(m, self.stable_from)
            while self.in_pattern(n):
                n += 1
            return n
        return None

    def __str__(self) -> str:
        members = ",".join(str(n) for n in sorted(self.explicit))
        tail = "in" if self.tail_in else "out"
        return f"{{{members}}} tail={tail} bound={self.bound}"


def _every_other(count: int) -> int:
    """Bits 0, 2, ..., 2(count - 1); no bits when count <= 0."""
    return ((1 << 2 * count) - 1) // 3 if count > 0 else 0


S_EMPTY = SParameter(frozenset(), 3, False)
S_ALL_ODD = SParameter(frozenset({3}), 3, True)


def odds_without(excluded: set[int]) -> SParameter:
    """All odd integers >= 3 except the given ones."""
    for n in excluded:
        if n % 2 == 0 or n < 3:
            raise ValueError(f"can only exclude odd integers >= 3, got {n}")
    bound = max(excluded, default=3)
    explicit = frozenset(n for n in range(3, bound + 1, 2) if n not in excluded)
    if not excluded:
        return S_ALL_ODD
    return SParameter(explicit, bound, True)


_SET_RE = re.compile(r"^\{\s*(\d+(\s*,\s*\d+)*)?\s*\}$")


def parse_sparam(text: str) -> SParameter:
    """Parse the parameter syntax, e.g. ``{3,7} tail=out bound=9``, ``O``,
    ``O\\{5}``, ``empty``.  A leading ``S =`` is accepted and ignored."""
    body = text.strip()
    if body.startswith("S"):
        rest = body[1:].lstrip()
        if rest.startswith("="):
            body = rest[1:].strip()
    tail_in = None
    bound = None
    parts = body.split()
    kept = []
    for part in parts:
        if part.startswith("tail="):
            value = part[5:]
            if value not in ("in", "out"):
                raise ValueError(f"tail must be 'in' or 'out', got {value!r}")
            tail_in = value == "in"
        elif part.startswith("bound="):
            bound = int(part[6:])
        else:
            kept.append(part)
    core = " ".join(kept)
    if core in ("empty", "{}", ""):
        explicit: frozenset[int] = frozenset()
        tail_in = False if tail_in is None else tail_in
        bound = 3 if bound is None else bound
        return SParameter(explicit, bound, tail_in)
    if core == "O":
        return S_ALL_ODD
    minus = re.match(r"^O\s*[\\-]\s*\{\s*(\d+(\s*,\s*\d+)*)?\s*\}$", core)
    if minus:
        excluded = {int(t) for t in minus.group(1).split(",")} if minus.group(1) else set()
        return odds_without(excluded)
    match = _SET_RE.match(core)
    if match is None:
        raise ValueError(f"cannot parse S-parameter: {text!r}")
    members = (
        frozenset(int(t) for t in match.group(1).split(",")) if match.group(1) else frozenset()
    )
    if bound is None:
        bound = max(members, default=3)
    if tail_in is None:
        tail_in = False
    return SParameter(members, max(bound, 3), tail_in)


def default_family() -> tuple[tuple[str, SParameter], ...]:
    """The suite's standard parameters, spanning both tail kinds."""
    return (
        ("empty", S_EMPTY),
        ("{3}", SParameter(frozenset({3}), 3, False)),
        ("{3,7}", SParameter(frozenset({3, 7}), 7, False)),
        ("O", S_ALL_ODD),
        ("O\\{5}", odds_without({5})),
    )
