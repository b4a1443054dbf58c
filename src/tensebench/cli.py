"""The ``tw`` command line: construction, evaluation, audits, separation,
search and finite relation-type algebras as subcommands with stable text
output.

Every run echoes its effective configuration first, once its input is
validated, so a run refused for its input leaves stdout empty.  Output for
identical invocations is byte-identical; timing goes to stderr.  Only
``audit`` and ``distinguish`` print differently under ``--format records``;
``search`` accepts the option and prints records either way, and ``search
frames`` accepts ``--jobs`` and runs in one process.  Exit codes: 0 on
success or all-confirmed, 1 on a counterexample outside the allowlist or a
non-separated outcome, 2 on usage errors, malformed input, exhausted
capacity or a term too deep to evaluate.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys

from . import audit as au
from . import relalg as ra
from . import search as se
from . import symbolic as sym
from . import terms as tm
from .frames import (
    CapacityError,
    TruncationSpec,
    build_truncation,
    export_dot,
    frame_to_text,
    is_reflexive,
    is_total,
    iter_bits,
    parse_frame,
)
from .parallel import parallel_map
from .sparam import default_family, parse_sparam


def _echo(args: argparse.Namespace, **extra):
    fields = dict(extra)
    for key in ("s", "t", "format", "jobs", "seed", "k"):
        value = getattr(args, key, None)
        if value is not None and key not in fields:
            fields[key] = value
    body = " ".join(f"{k}={v}" for k, v in fields.items())
    print(f"# tw {args.command}{' ' + args.sub if getattr(args, 'sub', None) else ''} {body}".rstrip())


def _family(args) -> list:
    if getattr(args, "s", None):
        return [(args.s, parse_sparam(args.s))]
    return list(default_family())


_NAMED_TERM = re.compile(r"^(beta|sigma|nu(\d+))$")


def _resolve_term(text: str) -> tm.Term:
    match = _NAMED_TERM.match(text.strip())
    if match is None:
        return tm.parse_term(text)
    if match.group(1) == "beta":
        return tm.beta()
    if match.group(1) == "sigma":
        return tm.sigma()
    return tm.nu(int(match.group(2)))


# --- subcommand handlers ---


def _check_writable(path: str) -> None:
    """Raise the OSError that opening path for writing would raise, without
    creating or truncating anything."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _cmd_frame(args) -> int:
    if args.sub == "check":
        with open(args.infile, encoding="utf-8") as handle:
            text = handle.read()
        _echo(args, infile=args.infile)
        try:
            frame = parse_frame(text)
        except ValueError as exc:
            print(f"invalid: {exc}")
            return 1
        print(
            f"vertices={len(frame)} edges={len(frame.edges())} "
            f"total={'yes' if is_total(frame) else 'no'} "
            f"reflexive={'yes' if is_reflexive(frame) else 'no'}"
        )
        return 0
    s = parse_sparam(args.s)
    if args.out:
        _check_writable(args.out)
    spec = TruncationSpec(args.lo, args.hi, args.imax)
    frame = build_truncation(spec, s, budget=args.budget)
    if args.sub == "build":
        text = frame_to_text(frame)
    else:
        text = export_dot(frame, suppress_loops=args.suppress_loops)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        text = f"wrote {args.out}\n"
    _echo(args, lo=args.lo, hi=args.hi, imax=args.imax)
    print(text, end="")
    return 0


def _cmd_eval(args) -> int:
    s = parse_sparam(args.s)
    term = _resolve_term(args.term)
    env = {"x": sym.parse_set(s, args.at)}
    for binding in args.env or ():
        name, _, value = binding.partition("=")
        env[name.strip()] = sym.parse_set(s, value)
    result = tm.eval_term(term, tm.SymbolicHandle(s), env)
    _echo(args, term=repr(args.term), at=repr(args.at))
    print(sym.display(result))
    return 0


def _cmd_audit(args) -> int:
    lemmas = tuple(au.AUDITS) if args.lemma == "all" else (args.lemma,)
    items = [(s, lemmas, args.seed) for _, s in _family(args)]
    _echo(args, lemma=args.lemma, params=args.s or "default-family")
    ok = True
    for reports in parallel_map(au.audit_parameter, items, args.jobs):
        for report in reports:
            ok = ok and report.ok
            output = report.to_records() if args.format == "records" else report.to_text()
            print(output, end="")
    return 0 if ok else 1


def _cmd_distinguish(args) -> int:
    s = parse_sparam(args.s)
    t = parse_sparam(args.t)
    report = tm.distinguish(s, t, n_bound=args.n_bound, m_bound=args.m_bound)
    _echo(args, n_bound=args.n_bound, m_bound=args.m_bound)
    if args.format == "records":
        print("\n".join(report.to_records()))
    else:
        print(report.to_text())
    return 0 if report.verdict == "Separated" else 1


def _cmd_search(args) -> int:
    if args.sub == "frames":
        report, frames = se.enumerate_total_frames(args.k)
        texts = map(frame_to_text, frames) if args.emit == "frames" else ()
    else:
        constraints = tuple(c for c in (args.constraints or "").split(",") if c)
        report, structures = se.enumerate_atom_structures(args.k, constraints, jobs=args.jobs)
        texts = (s.to_text() for s in structures) if args.emit == "structures" else ()
    _echo(args, constraints=getattr(args, "constraints", None) or "none", emit=args.emit)
    print(report.to_records(), end="")
    for text in texts:
        print(text, end="")
    print(f"elapsed_ms={report.elapsed_ms:.1f}", file=sys.stderr)
    return 0


def _load_structure(path: str) -> ra.AtomStructure:
    with open(path, encoding="utf-8") as handle:
        return ra.parse_atom_structure(handle.read())


def _cmd_relalg(args) -> int:
    structure = _load_structure(args.infile)
    _echo(args, infile=args.infile)
    alg = ra.expand(structure)
    if args.sub == "expand":
        print(f"atoms={alg.atom_count} elements={alg.one + 1}")
        for a in range(alg.atom_count):
            for b in range(alg.atom_count):
                atoms = ",".join(map(str, iter_bits(alg.comp_atom[a][b])))
                print(f"comp {a} {b} = {{{atoms}}}")
        for a in range(alg.atom_count):
            print(f"conv {a} = {alg.conv_atom[a].bit_length() - 1}")
        identity = ",".join(map(str, iter_bits(alg.identity)))
        print(f"id = {{{identity}}}")
        return 0
    if args.sub == "axioms":
        print(ra.check_axioms(alg).to_records(), end="")
        return 0
    # minsub
    mini = ra.minimal_subalgebra(alg)
    print(ra.structure_of(mini).to_text(), end="")
    return 0


def _jobs_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process; every parse fills a fresh
    Namespace."""
    parser = argparse.ArgumentParser(
        prog="tw",
        description="workbench for layered frames, their symbolic algebras, audits and searches",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, jobs=False):
        p.add_argument("--format", choices=("text", "records"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=au.DEFAULT_SEED)
        if jobs:
            p.add_argument("--jobs", type=_jobs_count, default=1)

    p_frame = subs.add_parser("frame", help="build, render, or validate finite frames")
    frame_subs = p_frame.add_subparsers(dest="sub", required=True)
    for name in ("build", "dot"):
        q = frame_subs.add_parser(name)
        q.add_argument("--s", required=True, help="S-parameter, e.g. '{3}' or 'O'")
        q.add_argument("--lo", type=int, default=-8)
        q.add_argument("--hi", type=int, default=8)
        q.add_argument("--imax", type=int, default=48)
        q.add_argument("--budget", type=int, default=4096)
        q.add_argument("--out")
        if name == "dot":
            q.add_argument("--suppress-loops", action="store_true")
        q.set_defaults(handler=_cmd_frame)
    q = frame_subs.add_parser("check")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(handler=_cmd_frame)

    p_eval = subs.add_parser("eval", help="evaluate a term over the symbolic carrier")
    p_eval.add_argument("--s", required=True)
    p_eval.add_argument("--term", required=True, help="beta | sigma | nu<k> | term syntax")
    p_eval.add_argument("--at", required=True, help="value for x, e.g. 'A(0,1)'")
    p_eval.add_argument("--env", action="append", help="extra binding name=SET")
    p_eval.set_defaults(handler=_cmd_eval)

    p_audit = subs.add_parser("audit", help="replay one claim family against the engine")
    p_audit.add_argument("lemma", choices=tuple(au.AUDITS) + ("all",))
    p_audit.add_argument("--s", help="single S-parameter (default: the whole family)")
    common(p_audit, seed=True, jobs=True)
    p_audit.set_defaults(handler=_cmd_audit)

    p_dist = subs.add_parser("distinguish", help="separate two parameters by a sentence")
    p_dist.add_argument("--s", required=True)
    p_dist.add_argument("--t", required=True)
    p_dist.add_argument("--n-bound", type=int, default=41)
    p_dist.add_argument("--m-bound", type=int, default=64)
    common(p_dist)
    p_dist.set_defaults(handler=_cmd_distinguish)

    p_search = subs.add_parser("search", help="exhaustive enumeration up to isomorphism")
    search_subs = p_search.add_subparsers(dest="sub", required=True)
    q = search_subs.add_parser("frames")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--emit", choices=("report", "frames"), default="report")
    # one work item: --jobs is only echoed, kept because the benchmark sends it
    common(q, jobs=True)
    q.set_defaults(handler=_cmd_search)
    q = search_subs.add_parser("structures")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--constraints", help="comma list: sym,refl,subadd,sa,assoc")
    q.add_argument("--emit", choices=("report", "structures"), default="report")
    common(q, jobs=True)
    q.set_defaults(handler=_cmd_search)

    p_rel = subs.add_parser("relalg", help="atom structures, their expansion and axiom suite")
    rel_subs = p_rel.add_subparsers(dest="sub", required=True)
    for name in ("expand", "axioms", "minsub"):
        q = rel_subs.add_parser(name)
        q.add_argument("--in", dest="infile", required=True)
        q.set_defaults(handler=_cmd_relalg)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term too deep to evaluate (Python recursion limit reached)",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
