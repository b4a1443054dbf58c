"""Mechanical verification of the construction's combinatorial claims.

Each audit replays one family of claims about the symbolic engine on a
parameter grid, adjudicating the *printed* form of every claim against the
rule-based engine and (where margins allow) against the finite truncation
oracle.  Known-wrong printed forms are not silently corrected: the audit
reports them as counterexamples and a shipped allowlist marks the documented
deviation families so they do not fail a run.  Each lemma has one fixed
grid, kept next to it, and its report is a pure function of the parameter
and, for the sampled lemmas, the seed; reports are byte-identical across
runs and worker counts.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from . import symbolic as sym
from . import terms as tm
from .frames import TruncationSpec, build_truncation, complex_f, complex_g
from .sparam import SParameter
from .symbolic import SymbolicSet

DEFAULT_SEED = 0xB5
ORACLE_WINDOW = TruncationSpec(-8, 8, 48)
_ORACLE_INNER = ORACLE_WINDOW.shrink(1)
# the inner window's vertices as a mask in ORACLE_WINDOW.vertices() order
_ORACLE_INNER_MASK = sum(
    ((1 << _ORACLE_INNER.index_max) - 1)
    << (p - ORACLE_WINDOW.level_lo) * ORACLE_WINDOW.index_max
    for p in range(_ORACLE_INNER.level_lo, _ORACLE_INNER.level_hi + 1)
)


# ---------------------------------------------------------------------------
# reports and the allowlist


@dataclass(frozen=True)
class AuditEntry:
    claim: str  # canonical "key=value key=value" string
    status: str  # "Confirmed" | "Counterexample" | "Skipped"
    witness: str = ""
    expected: str = ""
    actual: str = ""
    allowlisted: bool = False
    note: str = ""
    # an engine result that the truncation oracle contradicts: a fault of the
    # engine, never the printed deviation that an allowlist rule names
    vs_oracle: bool = False

    def fields(self) -> dict[str, str]:
        return dict(token.split("=", 1) for token in self.claim.split())


@dataclass(frozen=True)
class AllowRule:
    lemma: str
    key: str
    reason: str
    matches: Callable[[dict[str, str]], bool]


def _is(f, key, value):
    return f.get(key) == value


ALLOWLIST: tuple[AllowRule, ...] = (
    AllowRule(
        "fg",
        "g15-row-start",
        "printed preimage of a pattern tail claims the whole row; the row part "
        "starts at min(pattern tail)-1, so the claim fails for every m >= 3",
        lambda f: _is(f, "clause", "15") and int(f.get("m", 0)) >= 3,
    ),
    AllowRule(
        "fg",
        "g17-index-one",
        "printed guard set T includes index 1 at m=1, but the off-pattern row "
        "set itself excludes 1",
        lambda f: _is(f, "clause", "17") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "fg",
        "f7-index-one",
        "same T-versus-member mismatch at m=1 on the image side",
        lambda f: _is(f, "clause", "7") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "desc",
        "s-complement-index-one",
        "printed complement of a pattern tail misses the index-1 singleton at m=1",
        lambda f: _is(f, "identity", "S-complement") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "desc",
        "sbar-complement-index-one",
        "printed complement of an off-pattern tail misses the index-1 singleton at m=1",
        lambda f: _is(f, "identity", "Sbar-complement") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "desc",
        "sbar-meet-printed",
        "printed intersection of two off-pattern tails names a pattern tail",
        lambda f: _is(f, "identity", "Sbar-meet-Sbar-printed"),
    ),
    AllowRule(
        "steps",
        "nu4-proof-line",
        "printed proof line ends one index short of the recurrence value",
        lambda f: _is(f, "reading", "proof-line-nu4"),
    ),
    AllowRule(
        "steps",
        "statement-reading",
        "the statement's composed reading gives 0; the proof's direct reading "
        "is the one that holds",
        lambda f: _is(f, "reading", "statement"),
    ),
    AllowRule(
        "bgen",
        "lower-row-printed",
        "printed extraction complements the wrong factor and denotes 0",
        lambda f: _is(f, "term", "lower-row-printed"),
    ),
    AllowRule(
        "bgen",
        "offrow-printed-index-one",
        "printed complement union misses the index-1 singleton at m=1",
        lambda f: _is(f, "term", "Sbar-printed") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "bgen",
        "a1-printed-level-mismatch",
        "printed extraction is claimed for all levels at once; it yields the "
        "index-1 atom of the level it names, not a fixed one",
        lambda f: _is(f, "term", "A1-printed"),
    ),
    AllowRule(
        "sent",
        "meet-printed-level",
        "printed meet for index 1 names the pattern tail one level low",
        lambda f: _is(f, "check", "meet-printed") and int(f.get("m", 0)) == 1,
    ),
    AllowRule(
        "sent",
        "meet-printed-fourth-atom",
        "at pattern indices the meet holds a fourth atom (the index-1 atom of "
        "the level below)",
        lambda f: _is(f, "check", "meet-printed") and f.get("pattern") == "in",
    ),
    AllowRule(
        "sent",
        "phi-only-if",
        "the atom formula holds at every pattern-index atom, not only at index 1",
        lambda f: _is(f, "check", "phi-printed") and f.get("pattern") == "in",
    ),
)


def _allowlist_key(lemma: str, entry: AuditEntry) -> str | None:
    f = entry.fields()
    for rule in ALLOWLIST:
        if rule.lemma == lemma and rule.matches(f):
            return rule.key
    return None


@dataclass(frozen=True)
class AuditReport:
    lemma: str
    param_label: str
    grid: str
    entries: tuple[AuditEntry, ...]

    @property
    def confirmed(self) -> int:
        return sum(e.status == "Confirmed" for e in self.entries)

    @property
    def skipped(self) -> int:
        return sum(e.status == "Skipped" for e in self.entries)

    @property
    def counterexamples(self) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.status == "Counterexample")

    @property
    def failures(self) -> tuple[AuditEntry, ...]:
        """Counterexamples outside the allowlist; nonempty fails the run."""
        return tuple(e for e in self.counterexamples if not e.allowlisted)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _totals(self) -> str:
        n_cx = len(self.counterexamples)
        n_allowed = sum(e.allowlisted for e in self.counterexamples)
        return (
            f"checked={len(self.entries)} confirmed={self.confirmed} "
            f"counterexamples={n_cx} allowlisted={n_allowed} skipped={self.skipped} "
            f"failures={len(self.failures)}"
        )

    def to_text(self) -> str:
        lines = [f"audit {self.lemma}", f"param: {self.param_label}", f"grid: {self.grid}"]
        for e in self.entries:
            line = f"{e.claim}: {e.status}"
            if e.status == "Counterexample":
                tag = " [allowlisted]" if e.allowlisted else " [FAILURE]"
                line += f"{tag} expected={e.expected!r} actual={e.actual!r}"
                if e.witness:
                    line += f" witness={e.witness!r}"
            if e.note:
                line += f" note={e.note!r}"
            lines.append(line)
        lines.append(f"totals: {self._totals()}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        lines = []
        for e in self.entries:
            parts = [
                f"lemma={self.lemma}",
                f'param="{self.param_label}"',
                f'claim="{e.claim}"',
                f"status={e.status}",
            ]
            if e.status == "Counterexample":
                parts.append(f"allowlisted={'yes' if e.allowlisted else 'no'}")
                parts.append(f'witness="{e.witness}"')
                parts.append(f'expected="{e.expected}"')
                parts.append(f'actual="{e.actual}"')
            lines.append(" ".join(parts))
        lines.append(f'lemma={self.lemma} param="{self.param_label}" {self._totals()}')
        return "\n".join(lines) + "\n"


def _finish(lemma: str, s: SParameter, grid: str, raw: Iterable[AuditEntry]) -> AuditReport:
    entries = []
    for e in raw:
        if e.status == "Counterexample" and not e.allowlisted and not e.vs_oracle:
            key = _allowlist_key(lemma, e)
            if key is not None:
                e = replace(e, allowlisted=True,
                            note=(e.note + "; " if e.note else "") + f"allow:{key}")
        entries.append(e)
    return AuditReport(lemma, str(s), grid, tuple(entries))


# ---------------------------------------------------------------------------
# shared helpers


def _span(values: range) -> str:
    """The first and last value of a range as "[lo,hi]"."""
    return f"[{values[0]},{values[-1]}]"


def _power(op: Callable[[SymbolicSet], SymbolicSet], x: SymbolicSet, k: int) -> SymbolicSet:
    """op applied k times to x."""
    for _ in range(k):
        x = op(x)
    return x


def _entry_eq(
    claim: str, witness: str, actual: SymbolicSet | bool, expected: SymbolicSet | bool,
    note: str = "",
) -> AuditEntry:
    """Confirmed when the computed value equals the claimed one, else a
    counterexample that shows both and carries the note.  Sets are compared
    by `sym.is_equal`, which raises ValueError on sets over different
    parameters, and shown by `sym.display`; truth values by == and `str`."""
    if isinstance(actual, bool):
        equal, show = actual == expected, str
    else:
        equal, show = sym.is_equal(actual, expected), sym.display
    if equal:
        return AuditEntry(claim, "Confirmed")
    return AuditEntry(claim, "Counterexample", witness, show(expected), show(actual), note=note)


def sample_element(rng: random.Random, s: SParameter) -> SymbolicSet:
    """Random union of up to 6 basis sets with |level| <= 3, index <= 12."""
    out = sym.empty_set(s)
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(["A", "A", "S", "Sbar", "V", "D", "U"])
        level = rng.randint(-3, 3)
        index = rng.randint(1, 12) if kind in ("A", "S", "Sbar") else None
        out = sym.union(out, sym.basis(s, sym.BasisSet(kind, level, index)))
    return out


@functools.cache  # one frame per parameter, kept for the life of the process
def _oracle_frame(s: SParameter):
    return build_truncation(ORACLE_WINDOW, s)


def _oracle_agrees(s: SParameter, x: SymbolicSet, result: SymbolicSet, op: str) -> bool:
    """Compare a symbolic image/preimage against the truncation oracle on the
    window shrunk by one step.  Both sides are vertex masks in the frame's
    vertex order, which is ``ORACLE_WINDOW.vertices()`` order."""
    fn = complex_f if op == "f" else complex_g
    want = fn(_oracle_frame(s), sym.window_mask(x, ORACLE_WINDOW))
    got = sym.window_mask(result, ORACLE_WINDOW)
    return (want ^ got) & _ORACLE_INNER_MASK == 0


def _oracle_disagreement(claim: str, b: sym.BasisSet, result: SymbolicSet) -> AuditEntry:
    """The entry for an engine image/preimage of basis set b that fails `_oracle_agrees`."""
    return AuditEntry(claim, "Counterexample", str(b), "oracle image", sym.display(result),
                      note="engine disagrees with oracle", vs_oracle=True)


# ---------------------------------------------------------------------------
# the image/preimage clause audit


# compared against the oracle, so kept well inside its inner window
# (levels -7..7, indices 1..47)
_FG_LEVELS = range(-3, 4)
_FG_M_MAX = 12


def _fg_rhs_printed(s: SParameter, clause: int, p: int, m: int) -> SymbolicSet | None:
    """The printed right-hand side, or None when the clause's guard is off."""
    # the printed guard set T = {n >= m : n off-pattern}, which includes 1 at m=1
    listed, infinite = s.off_pattern_from(m)
    u = lambda *parts: sym.union_all(s, parts)
    a, srow, sbar = sym.basis_a, sym.basis_srow, sym.basis_sbar
    d, uu = sym.basis_d, sym.basis_u
    if clause == 1:
        return u(a(s, p, 1), a(s, p, 2), d(s, p - 1), srow(s, p + 1, 1)) if m == 1 else None
    if clause == 2:
        if m == 1:
            return None
        return u(*[a(s, p, n) for n in range(1, m + 2)], d(s, p - 1))
    if clause == 3:
        return u(d(s, p), srow(s, p + 1, 1))
    if clause == 4:
        return sym.full_set(s)
    if clause == 5:
        return d(s, p)
    if clause == 6:
        return sym.empty_set(s) if not listed and not infinite else None
    if clause == 7:
        if not listed or infinite:
            return None
        return u(*[a(s, p, n) for n in range(1, max(listed) + 2)], d(s, p - 1))
    if clause == 8:
        return d(s, p) if infinite else None
    if clause == 9:
        return uu(s, p) if m == 1 else None
    if clause == 10:
        return u(a(s, p - 1, 1), uu(s, p)) if m == 2 else None
    if clause == 11:
        if m > 1 and not s.in_pattern(m):
            return u(uu(s, p + 1), srow(s, p, m - 1), sbar(s, p, m - 1))
        return None
    if clause == 12:
        if m > 2 and s.in_pattern(m):
            return u(a(s, p - 1, 1), uu(s, p + 1), srow(s, p, m - 1), sbar(s, p, m - 1))
        return None
    if clause == 13:
        return sym.full_set(s)
    if clause == 14:
        return u(a(s, p - 1, 1), uu(s, p))
    if clause == 15:
        return u(a(s, p - 1, 1), uu(s, p))
    if clause == 16:
        return sym.empty_set(s) if not listed and not infinite else None
    if clause == 17:
        if not listed and not infinite:
            return None
        mn = listed[0] if listed else s.off_pattern_min(m)
        lo = max(1, mn - 1)  # an index-0 tail denotes the same set as index 1
        return u(srow(s, p, lo), sbar(s, p, lo), uu(s, p + 1))
    raise ValueError(f"no clause {clause}")


_CLAUSE_SUBJECT = {
    1: ("A", "f"), 2: ("A", "f"), 3: ("D", "f"), 4: ("U", "f"), 5: ("S", "f"),
    6: ("Sbar", "f"), 7: ("Sbar", "f"), 8: ("Sbar", "f"),
    9: ("A", "g"), 10: ("A", "g"), 11: ("A", "g"), 12: ("A", "g"),
    13: ("D", "g"), 14: ("U", "g"), 15: ("S", "g"), 16: ("Sbar", "g"), 17: ("Sbar", "g"),
}


def _fg_point(s: SParameter, p: int) -> list[AuditEntry]:
    entries = []
    for clause in range(1, 18):
        kind, op = _CLAUSE_SUBJECT[clause]
        ms = [None] if kind in ("D", "U") else list(range(1, _FG_M_MAX + 1))
        for m in ms:
            rhs = _fg_rhs_printed(s, clause, p, m if m is not None else 1)
            if rhs is None:
                continue
            b = sym.BasisSet(kind, p, m)
            x = sym.basis(s, b)
            lhs = sym.apply_f(x) if op == "f" else sym.apply_g(x)
            claim = f"clause={clause} op={op} p={p}" + (f" m={m}" if m is not None else "")
            if _oracle_agrees(s, x, lhs, op):
                entries.append(_entry_eq(claim, f"{op}({b})", lhs, rhs))
            else:
                entries.append(_oracle_disagreement(claim, b, lhs))
    return entries


def audit_fg(s: SParameter) -> AuditReport:
    """Check all 17 printed image/preimage clauses on the grid, against the
    rule engine and the truncation oracle."""
    entries = [e for p in _FG_LEVELS for e in _fg_point(s, p)]
    return _finish("fg", s, f"p in {_span(_FG_LEVELS)}, m <= {_FG_M_MAX}", entries)


# ---------------------------------------------------------------------------
# the closure-identity audit

_DESC_LEVELS = range(-2, 3)
_DESC_INDICES = range(1, 7)
_DESC_SAMPLES = 50


def audit_desc(s: SParameter, seed: int = DEFAULT_SEED) -> AuditReport:
    """The printed complement/intersection identities plus random closure probes."""
    entries: list[AuditEntry] = []
    a, srow, sbar = sym.basis_a, sym.basis_srow, sym.basis_sbar
    d, uu, vrow = sym.basis_d, sym.basis_u, sym.basis_vrow
    u = lambda *parts: sym.union_all(s, parts)
    for p in _DESC_LEVELS:
        for q in _DESC_LEVELS:
            entries.append(_entry_eq(
                f"identity=U-meet-U p={p} q={q}", f"U({p}) & U({q})",
                sym.intersect(uu(s, p), uu(s, q)), uu(s, max(p, q))))
            entries.append(_entry_eq(
                f"identity=D-meet-D p={p} q={q}", f"D({p}) & D({q})",
                sym.intersect(d(s, p), d(s, q)), d(s, min(p, q))))
            entries.append(_entry_eq(
                f"identity=U-meet-D p={p} q={q}", f"U({p}) & D({q})",
                sym.intersect(uu(s, p), d(s, q)),
                u(*[vrow(s, r) for r in range(p, q + 1)])))
            for kind in ("S", "Sbar"):
                x = sym.basis(s, sym.BasisSet(kind, q, 2))
                entries.append(_entry_eq(
                    f"identity=U-meet-{kind} p={p} q={q}", f"U({p}) & {kind}({q},2)",
                    sym.intersect(uu(s, p), x),
                    x if q >= p else sym.empty_set(s)))
                entries.append(_entry_eq(
                    f"identity=D-meet-{kind} p={p} q={q}", f"D({p}) & {kind}({q},2)",
                    sym.intersect(d(s, p), x),
                    x if q <= p else sym.empty_set(s)))
    # a singleton meets any generator in the empty set or itself
    singleton_grid = [
        sym.basis(s, sym.BasisSet(k, q, 3 if k in ("A", "S", "Sbar") else None))
        for k in ("A", "S", "Sbar", "V", "D", "U")
        for q in (-1, 0, 1)
    ]
    for p in (-1, 0, 1):
        for m in (1, 2, 3):
            atom = a(s, p, m)
            for i, x in enumerate(singleton_grid):
                got = sym.intersect(atom, x)
                claim = f"identity=A-meet p={p} m={m} other={i}"
                if sym.is_empty(got) or sym.is_equal(got, atom):
                    entries.append(AuditEntry(claim, "Confirmed"))
                else:
                    entries.append(AuditEntry(
                        claim, "Counterexample", f"A({p},{m})",
                        "empty or the singleton", sym.display(got)))
    for p in _DESC_LEVELS:
        for m in _DESC_INDICES:
            for n in _DESC_INDICES:
                entries.append(_entry_eq(
                    f"identity=S-meet-S p={p} m={m} n={n}", f"S({p},{m}) & S({p},{n})",
                    sym.intersect(srow(s, p, m), srow(s, p, n)), srow(s, p, max(m, n))))
                entries.append(_entry_eq(
                    f"identity=S-meet-Sbar p={p} m={m} n={n}", f"S({p},{m}) & Sbar({p},{n})",
                    sym.intersect(srow(s, p, m), sbar(s, p, n)), sym.empty_set(s)))
                entries.append(_entry_eq(
                    f"identity=Sbar-meet-Sbar p={p} m={m} n={n}",
                    f"Sbar({p},{m}) & Sbar({p},{n})",
                    sym.intersect(sbar(s, p, m), sbar(s, p, n)), sbar(s, p, max(m, n))))
                entries.append(_entry_eq(
                    f"identity=Sbar-meet-Sbar-printed p={p} m={m} n={n}",
                    f"Sbar({p},{m}) & Sbar({p},{n})",
                    sym.intersect(sbar(s, p, m), sbar(s, p, n)), srow(s, p, max(m, n))))
    for p in _DESC_LEVELS:
        entries.append(_entry_eq(
            f"identity=U-complement p={p}", f"~U({p})",
            sym.complement(uu(s, p)), d(s, p - 1)))
        entries.append(_entry_eq(
            f"identity=D-complement p={p}", f"~D({p})",
            sym.complement(d(s, p)), uu(s, p + 1)))
        for m in _DESC_INDICES:
            entries.append(_entry_eq(
                f"identity=A-complement p={p} m={m}", f"~A({p},{m})",
                sym.complement(a(s, p, m)),
                u(*[a(s, p, n) for n in range(1, m)], uu(s, p + 1), d(s, p - 1),
                  srow(s, p, m + 1), sbar(s, p, m + 1))))
            entries.append(_entry_eq(
                f"identity=S-complement p={p} m={m}", f"~S({p},{m})",
                sym.complement(srow(s, p, m)),
                u(*[a(s, p, n) for n in range(1, m)], sbar(s, p, m),
                  uu(s, p + 1), d(s, p - 1))))
            entries.append(_entry_eq(
                f"identity=Sbar-complement p={p} m={m}", f"~Sbar({p},{m})",
                sym.complement(sbar(s, p, m)),
                u(*[a(s, p, n) for n in range(1, m)], srow(s, p, m),
                  uu(s, p + 1), d(s, p - 1))))
    rng = random.Random(seed)
    for i in range(_DESC_SAMPLES):
        x = sample_element(rng, s)
        y = sample_element(rng, s)
        claim = f"identity=closure sample={i}"
        try:
            for value in (
                sym.union(x, y), sym.intersect(x, y), sym.complement(x),
                sym.apply_f(x), sym.apply_g(x), sym.apply_f_table(x), sym.apply_g_table(x),
            ):
                sym.validate_canonical(value)
            entries.append(AuditEntry(claim, "Confirmed"))
        except ValueError as exc:
            entries.append(AuditEntry(claim, "Counterexample", sym.display(x), "canonical", str(exc)))
    grid = (f"p,q in {_span(_DESC_LEVELS)}, m,n <= {_DESC_INDICES[-1]}, "
            "plus random closure probes")
    return _finish("desc", s, grid, entries)


# ---------------------------------------------------------------------------
# the double-step window audit


_4OR5_SAMPLES = 200


def audit_4or5(s: SParameter, seed: int = DEFAULT_SEED) -> AuditReport:
    """For sampled elements with a maximal nonempty level q, the fourth/second
    (or fifth/third) image difference is exactly the row at q+2."""
    entries = []
    rng = random.Random(seed)
    for i in range(_4OR5_SAMPLES):
        x = sample_element(rng, s)
        extent = sym.max_level(x)
        if extent.kind != "level":
            reason = "empty" if extent.kind == "empty" else "no maximal level"
            entries.append(AuditEntry(f"case=skip sample={i}", "Skipped", note=reason))
            continue
        q = extent.level
        # case 1 (index 1 in the top row) takes f^4 minus f^2, case 2 f^5 minus f^3
        case = 1 if sym.row_contains(s, x.row_at(q), 1) else 2
        low = _power(sym.apply_f, x, case + 1)
        got = sym.intersect(_power(sym.apply_f, low, 2), sym.complement(low))
        entries.append(_entry_eq(f"case={case} sample={i} q={q}", sym.display(x), got,
                                 sym.basis_vrow(s, q + 2)))
    grid = f"{_4OR5_SAMPLES} random elements, seed={seed:#x}"
    return _finish("4or5", s, grid, entries)


# ---------------------------------------------------------------------------
# the step-term audit


_STEPS_LEVELS = range(-2, 3)
_STEPS_N_MAX = 24


def audit_steps(s: SParameter) -> AuditReport:
    """sigma on index-1 atoms, and both readings of the step-term claim."""
    entries = []
    handle = tm.SymbolicHandle(s)
    # one program for sigma and every nu_n, run once per binding
    ns = range(3, _STEPS_N_MAX + 1)
    batch = tm.compile_program([tm.sigma()] + tm.nu_steps(_STEPS_N_MAX))
    for p in _STEPS_LEVELS:
        a1 = sym.basis_a(s, p, 1)
        sig_val, *direct = tm.run(batch, handle, {"x": a1})
        _, *composed = tm.run(batch, handle, {"x": sig_val})
        entries.append(_entry_eq(f"term=sigma p={p}", f"sigma(A({p},1))", sig_val,
                                 sym.basis_a(s, p, 2)))
        for n, at_a1, at_sigma in zip(ns, direct, composed):
            entries.append(_entry_eq(
                f"term=nu n={n} p={p} reading=proof", f"nu_{n}(A({p},1))",
                at_a1, sym.basis_a(s, p, n)))
            entries.append(_entry_eq(
                f"term=nu n={n} p={p} reading=statement", f"nu_{n}(sigma(A({p},1)))",
                at_sigma, sym.basis_a(s, p, n)))
        # the printed proof line ends at index 3 instead of 4
        entries.append(_entry_eq(
            f"term=nu n=4 p={p} reading=proof-line-nu4", f"nu_4(A({p},1))",
            direct[ns.index(4)], sym.basis_a(s, p, 3)))
    grid = f"p in {_span(_STEPS_LEVELS)}, 3 <= n <= {_STEPS_N_MAX}"
    return _finish("steps", s, grid, entries)


# ---------------------------------------------------------------------------
# the generation-replay audit


# D(q) and U(q) are derived from the rows q - 1 and q + 1, and the row tower
# below is written out for levels -3..3, so the levels stay within -2..2
_BGEN_LEVELS = range(-2, 3)
_BGEN_M_MAX = 8


def audit_bgen(s: SParameter) -> AuditReport:
    """Derive every basis element in the window from the level-0 row using the
    generation script's explicit terms."""
    entries = []
    handle = tm.SymbolicHandle(s)
    f, g, comp, inter = sym.apply_f, sym.apply_g, sym.complement, sym.intersect
    v0 = sym.basis_vrow(s, 0)
    for k in range(1, 5):
        entries.append(_entry_eq(f"term=f-tower m={k}", f"f^{2 * k}(V(0))",
                                 _power(f, v0, 2 * k), sym.basis_d(s, k)))
        entries.append(_entry_eq(f"term=g-tower m={k}", f"g^{2 * k}(V(0))",
                                 _power(g, v0, 2 * k), sym.basis_u(s, -k)))
    # rows: upward differences from V(0), then downward via the preimage route
    rows: dict[int, SymbolicSet] = {0: v0}
    for q in (2, 3):
        rows[q] = inter(_power(f, v0, 2 * q), comp(_power(f, v0, 2 * (q - 1))))
    rows[1] = inter(_power(g, rows[3], 4), comp(_power(g, rows[3], 2)))
    rows[-1] = inter(_power(g, rows[1], 4), comp(_power(g, rows[1], 2)))
    rows[-2] = inter(_power(g, v0, 4), comp(_power(g, v0, 2)))
    rows[-3] = inter(_power(g, rows[-1], 4), comp(_power(g, rows[-1], 2)))
    for q in sorted(rows):
        entries.append(_entry_eq(f"term=V q={q}", f"row tower at {q}", rows[q],
                                 sym.basis_vrow(s, q)))
    # the printed lower-row extraction complements the wrong factor
    entries.append(_entry_eq(
        "term=lower-row-printed q=-2", "g^4(V(0))' & g^2(V(0))",
        inter(comp(_power(g, v0, 4)), _power(g, v0, 2)), sym.basis_vrow(s, -2)))
    ds = {q: f(f(rows[q - 1])) for q in _BGEN_LEVELS}
    us = {q: g(g(rows[q + 1])) for q in _BGEN_LEVELS}
    for q in _BGEN_LEVELS:
        entries.append(_entry_eq(f"term=D q={q}", f"f^2(V({q - 1}))", ds[q], sym.basis_d(s, q)))
        entries.append(_entry_eq(f"term=U q={q}", f"g^2(V({q + 1}))", us[q], sym.basis_u(s, q)))
    atoms: dict[tuple[int, int], SymbolicSet] = {}
    # one program for sigma and nu_3..nu_8, run once per level
    batch = tm.compile_program([tm.sigma()] + tm.nu_steps(_BGEN_M_MAX))
    for q in _BGEN_LEVELS:
        uq1 = us[q + 1] if q + 1 in us else sym.basis_u(s, q + 1)
        a1 = inter(g(uq1), comp(uq1))
        atoms[(q, 1)] = a1
        entries.append(_entry_eq(f"term=A1 q={q}", f"g(U({q + 1})) & ~U({q + 1})",
                                 a1, sym.basis_a(s, q, 1)))
        for m, val in enumerate(tm.run(batch, handle, {"x": a1}), start=2):
            atoms[(q, m)] = val
            shown = f"sigma(A({q},1))" if m == 2 else f"nu_{m}(A({q},1))"
            entries.append(_entry_eq(f"term=A q={q} m={m}", shown, val, sym.basis_a(s, q, m)))
    # the printed index-1 extraction names one level for all of them
    entries.append(_entry_eq(
        "term=A1-printed q=1", "g(U(2)) & ~U(2) vs A(0,1)",
        inter(g(sym.basis_u(s, 2)), comp(sym.basis_u(s, 2))), sym.basis_a(s, 0, 1)))
    for q in _BGEN_LEVELS:
        for m in range(1, _BGEN_M_MAX + 1):
            prior = sym.union_all(s, [atoms[(q, n)] for n in range(1, m)])
            got = inter(f(ds[q - 1] if q - 1 in ds else sym.basis_d(s, q - 1)),
                        comp(sym.union(prior, sym.basis_d(s, q - 1))))
            entries.append(_entry_eq(
                f"term=S q={q} m={m}", f"f(D({q - 1})) & ~(A-prefix | D({q - 1}))",
                got, sym.basis_srow(s, q, m)))
            blocked = sym.union_all(
                s,
                [atoms[(q, n)] for n in range(1, max(m, 2))]
                + [sym.basis_d(s, q - 1), sym.basis_u(s, q + 1), sym.basis_srow(s, q, m)],
            )
            entries.append(_entry_eq(
                f"term=Sbar q={q} m={m}", "complement of the other generators",
                comp(blocked), sym.basis_sbar(s, q, m)))
            if m == 1:
                printed = sym.union_all(
                    s, [sym.basis_d(s, q - 1), sym.basis_u(s, q + 1), sym.basis_srow(s, q, 1)]
                )
                entries.append(_entry_eq(
                    f"term=Sbar-printed q={q} m=1", "printed complement union",
                    comp(printed), sym.basis_sbar(s, q, 1)))
    grid = f"p in {_span(_BGEN_LEVELS)}, m <= {_BGEN_M_MAX}, derived from V(0)"
    return _finish("bgen", s, grid, entries)


# ---------------------------------------------------------------------------
# the image-of-complement and maximal-level audit


_TOP_SAMPLES = 100


def audit_top(s: SParameter, seed: int = DEFAULT_SEED) -> AuditReport:
    """At most one of f(X), f(X') is everything; and a nonempty X with
    f(X) != V has a maximal nonempty level."""
    entries = []
    rng = random.Random(seed)
    full = sym.full_set(s)
    for i in range(_TOP_SAMPLES):
        x = sample_element(rng, s)
        fx = sym.apply_f(x)
        fxc = sym.apply_f(sym.complement(x))
        claim = f"check=XorXc sample={i}"
        if sym.is_equal(fx, full) and sym.is_equal(fxc, full):
            entries.append(AuditEntry(claim, "Counterexample", sym.display(x),
                                      "one image below top", "both images are top"))
        else:
            entries.append(AuditEntry(claim, "Confirmed"))
        claim = f"check=max sample={i}"
        if sym.is_empty(x):
            entries.append(AuditEntry(claim, "Confirmed", note="vacuous: empty"))
        elif sym.is_equal(fx, full):
            entries.append(AuditEntry(claim, "Skipped", note="f(X) is top"))
        elif sym.max_level(x).kind == "level":
            entries.append(AuditEntry(claim, "Confirmed"))
        else:
            entries.append(AuditEntry(claim, "Counterexample", sym.display(x),
                                      "a maximal level", sym.max_level(x).kind))
    return _finish("top", s, f"{_TOP_SAMPLES} random elements, seed={seed:#x}", entries)


# ---------------------------------------------------------------------------
# the sentence audit


# the tau_n witness search runs to the same index bound as the atom grid
_SENT_LEVELS = range(-1, 2)
_SENT_M_MAX = 24
_SENT_N_MAX = 12


def _sent_point(
    s: SParameter, p: int, handle: tm.SymbolicHandle, batch: tm.Program
) -> tuple[list[AuditEntry], list[list[bool]]]:
    """The entries at level p, and per m the truth of tau_3..tau_12 at A(p,m)."""
    entries = []
    tau_truths = []
    for m in range(1, _SENT_M_MAX + 1):
        atom = sym.basis_a(s, p, m)
        world = "in" if s.in_pattern(m) else "out"
        got, *taus = tm.run(batch, handle, {"x": atom})
        tau_truths.append(taus)
        entries.append(_entry_eq(f"check=phi-printed p={p} m={m} pattern={world}",
                                 f"A({p},{m})", got, m == 1))
        entries.append(_entry_eq(f"check=phi-derived p={p} m={m}",
                                 f"A({p},{m})", got, m == 1 or s.in_pattern(m)))
        # the meet of the two operator images, printed vs derived
        meet = sym.intersect(sym.apply_f(atom), sym.apply_g(atom))
        if m == 1:
            printed_val = sym.union_all(
                s, [sym.basis_a(s, p, 1), sym.basis_a(s, p, 2), sym.basis_srow(s, p, 1)]
            )
            derived_val = sym.union_all(
                s, [sym.basis_a(s, p, 1), sym.basis_a(s, p, 2), sym.basis_srow(s, p + 1, 1)]
            )
        else:
            printed_val = sym.union_all(
                s, [sym.basis_a(s, p, m - 1), sym.basis_a(s, p, m), sym.basis_a(s, p, m + 1)]
            )
            derived_val = printed_val
            if s.in_pattern(m):
                derived_val = sym.union(printed_val, sym.basis_a(s, p - 1, 1))
        entries.append(_entry_eq(
            f"check=meet-printed p={p} m={m} pattern={world}",
            f"f(A({p},{m})) & g(A({p},{m}))", meet, printed_val))
        entries.append(_entry_eq(
            f"check=meet-derived p={p} m={m}",
            f"f(A({p},{m})) & g(A({p},{m}))", meet, derived_val))
    for k, n in enumerate(range(3, _SENT_N_MAX + 1)):
        for m, taus in enumerate(tau_truths, start=1):
            entries.append(_entry_eq(f"check=tau n={n} p={p} m={m}", f"A({p},{m})", taus[k],
                                     s.in_pattern(n) and m == 1))
    return entries, tau_truths


def audit_sent(s: SParameter) -> AuditReport:
    """Exact phi- and tau-truth sets over the atom window, plus the printed
    operator-meet formulas, and the existence of tau witnesses.

    A witness entry reads the batch's truths at the atoms A(0,m), m <= 24:
    its result is the least such m where tau_n holds, which is what
    ``tm.exists_tau_witness(s, n, 24)`` finds."""
    handle = tm.SymbolicHandle(s)
    # one program for phi and every tau_n, run once per atom
    batch = tm.compile_program([tm.phi()] + tm.tau_steps(_SENT_N_MAX))
    points = {p: _sent_point(s, p, handle, batch) for p in _SENT_LEVELS}
    entries = [e for point, _ in points.values() for e in point]
    level0 = points[0][1]
    for k, n in enumerate(range(3, _SENT_N_MAX + 1)):
        m = next((m for m, taus in enumerate(level0, start=1) if taus[k]), None)
        result = tm.WitnessResult(m is not None, m, _SENT_M_MAX)
        entry = _entry_eq(f"check=exists-tau n={n}", str(result), result.found, s.in_pattern(n))
        # a confirmed entry prints no witness, so the result goes in its note
        if entry.status == "Confirmed":
            entry = replace(entry, note=str(result))
        entries.append(entry)
    grid = f"p in {_span(_SENT_LEVELS)}, m <= {_SENT_M_MAX}, n <= {_SENT_N_MAX}"
    return _finish("sent", s, grid, entries)


# ---------------------------------------------------------------------------
# dual-path and oracle cross-validation


def _cross_point(s: SParameter, b: sym.BasisSet) -> list[AuditEntry]:
    entries = []
    x = sym.basis(s, b)
    for op, rule, table in (
        ("f", sym.apply_f, sym.apply_f_table),
        ("g", sym.apply_g, sym.apply_g_table),
    ):
        claim = f"path={op} basis={b}"
        lhs = rule(x)
        entry = _entry_eq(claim, str(b), lhs, table(x), note="rule path vs clause table")
        if entry.status == "Confirmed" and not _oracle_agrees(s, x, lhs, op):
            entry = _oracle_disagreement(claim, b, lhs)
        entries.append(entry)
    return entries


# the basis grid is compared against the oracle, as in fg
_CROSS_LEVELS = range(-3, 4)
_CROSS_M_MAX = 12
_CROSS_SAMPLES = 500


def cross_validate(s: SParameter, seed: int = DEFAULT_SEED) -> AuditReport:
    """Rule path = clause table = truncation oracle on the basis grid, and
    rule path = clause table on random unions."""
    entries = []
    for p in _CROSS_LEVELS:
        for kind in ("D", "U", "V"):
            entries += _cross_point(s, sym.BasisSet(kind, p))
        for m in range(1, _CROSS_M_MAX + 1):
            for kind in ("A", "S", "Sbar"):
                entries += _cross_point(s, sym.BasisSet(kind, p, m))
    rng = random.Random(seed)
    for i in range(_CROSS_SAMPLES):
        x = sample_element(rng, s)
        ok_f = sym.is_equal(sym.apply_f(x), sym.apply_f_table(x))
        ok_g = sym.is_equal(sym.apply_g(x), sym.apply_g_table(x))
        claim = f"path=union sample={i}"
        if ok_f and ok_g:
            entries.append(AuditEntry(claim, "Confirmed"))
        else:
            entries.append(AuditEntry(claim, "Counterexample", sym.display(x),
                                      "dual-path equality", f"f:{ok_f} g:{ok_g}"))
    grid = f"basis p in {_span(_CROSS_LEVELS)}, m <= {_CROSS_M_MAX}; {_CROSS_SAMPLES} random unions"
    return _finish("cross", s, grid, entries)


AUDITS = {
    "fg": audit_fg,
    "desc": audit_desc,
    "4or5": audit_4or5,
    "steps": audit_steps,
    "bgen": audit_bgen,
    "top": audit_top,
    "sent": audit_sent,
    "cross": cross_validate,
}

# the lemmas whose samples are drawn from a seed
_SEEDED = ("desc", "4or5", "top", "cross")


def audit_parameter(args: tuple[SParameter, tuple[str, ...], int]) -> list[AuditReport]:
    """The reports of the given lemmas on one parameter, in order: one work
    item of ``tw audit``.  Running a parameter's lemmas together keeps the
    operator memo, whose tables keep their latest-used results, warm.  Each
    lemma is looked up in `AUDITS` when called, so a patched entry is the
    one run."""
    s, lemmas, seed = args
    return [
        AUDITS[lemma](s, seed=seed) if lemma in _SEEDED else AUDITS[lemma](s)
        for lemma in lemmas
    ]
