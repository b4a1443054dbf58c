import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import TWELVE_ATOM_NAMES, twelve_atom_structure
from tensebench import cli
from tensebench import terms as tm
from tensebench.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_sigma_at_index_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--s", "empty", "--term", "sigma", "--at", "A(0,1)")
        assert code == 0
        assert out.splitlines()[-1] == "A(0,2)"

    def test_raw_term_syntax(self, capsys):
        code, out, _ = run(capsys, "eval", "--s", "{3}", "--term", "f(x) & ~x",
                           "--at", "D(0)")
        assert code == 0
        assert out.splitlines()[-1] == "S(1,1)"

    def test_extra_bindings(self, capsys):
        code, out, _ = run(capsys, "eval", "--s", "empty", "--term", "x | y",
                           "--at", "A(0,1)", "--env", "y=A(0,2)")
        assert code == 0
        assert out.splitlines()[-1] == "A(0,1) + A(0,2)"

    # composition over the symbolic carrier: the user supplies the term in x, y
    @pytest.mark.parametrize("y, want", [("A(0,1)", "A(0,1)"), ("A(1,1)", "0")],
                             ids=["equal-atoms", "disjoint-atoms"])
    def test_composition_term_via_env(self, capsys, y, want):
        code, out, _ = run(capsys, "eval", "--s", "empty", "--term", "x & y",
                           "--at", "A(0,1)", "--env", f"y={y}")
        assert code == 0
        assert out.splitlines()[-1] == want

    def test_config_echo(self, capsys):
        _, out, _ = run(capsys, "eval", "--s", "empty", "--term", "beta", "--at", "A(0,1)")
        assert out.startswith("# tw eval ")

    def test_too_deep_to_parse_prints_nothing(self, capsys):
        # nested deeper than the recursion limit, yet it parses and evaluates
        term = "f(" * 1500 + "x" + ")" * 1500
        code, out, err = run(capsys, "eval", "--s", "empty", "--term", term, "--at", "A(0,1)")
        assert code == 0
        assert out.splitlines()[-1] == "D(750)"
        assert err == ""


class TestAudit:
    def test_fg_single_param_exit_zero(self, capsys):
        code, out, _ = run(capsys, "audit", "fg", "--s", "{3}")
        assert code == 0
        assert "totals:" in out and "failures=0" in out

    def test_records_format(self, capsys):
        code, out, _ = run(capsys, "audit", "steps", "--s", "empty", "--format", "records")
        assert code == 0
        assert any(line.startswith("lemma=steps ") for line in out.splitlines())

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "audit", "fg", "--s", "{3}", "--format", "records")
        _, second, _ = run(capsys, "audit", "fg", "--s", "{3}", "--format", "records")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "audit", "sent", "--s", "{3}", "--format", "records")
        _, parallel, _ = run(capsys, "audit", "sent", "--s", "{3}",
                             "--format", "records", "--jobs", "2")
        assert serial.replace("jobs=1", "jobs=2") == parallel
        _, default_seed, _ = run(capsys, "audit", "4or5", "--format", "records")
        outputs = []
        for jobs in ("1", "2", "3"):
            code, out, _ = run(capsys, "audit", "4or5", "--seed", "7",
                               "--format", "records", "--jobs", jobs)
            assert code == 0
            outputs.append(out.replace(f"jobs={jobs}", "jobs=N"))
        assert outputs[0] == outputs[1] == outputs[2]
        # the samples depend on the seed, so a worker without it would differ
        assert outputs[0].split("\n", 1)[1] != default_seed.split("\n", 1)[1]


class TestDistinguish:
    def test_separated_records(self, capsys):
        code, out, _ = run(capsys, "distinguish", "--s", "{3}", "--t", "{5}",
                           "--format", "records")
        assert code == 0
        lines = out.splitlines()
        assert "witness_n=3" in lines
        assert "verdict=Separated" in lines

    def test_identical_exit_one(self, capsys):
        code, out, _ = run(capsys, "distinguish", "--s", "{3}", "--t", "{3}")
        assert code == 1
        assert "verdict=Identical" in out.splitlines()

    @pytest.mark.parametrize("s, t, extra, code, records", [
        ("{43}", "empty", (), 1,
         ["witness_n=43", "S_truth=n/a", "T_truth=n/a", "verdict=Inconclusive"]),
        ("{43}", "empty", ("--n-bound", "43"), 0,
         ["witness_n=43", "S_truth=witness A(0,1)", "T_truth=none-up-to-64",
          "verdict=Separated"]),
        ("{3}", "{3} tail=out bound=9", (), 1,
         ["witness_n=none", "S_truth=n/a", "T_truth=n/a", "verdict=Identical"]),
    ], ids=["above-n-bound", "at-n-bound", "same-set-other-bound"])
    def test_first_disagreement_is_exact(self, capsys, s, t, extra, code, records):
        got, out, _ = run(capsys, "distinguish", "--s", s, "--t", t, *extra,
                          "--format", "records")
        assert got == code
        assert out.splitlines()[1:] == records


class TestFrame:
    def test_build_and_check(self, capsys, tmp_path):
        path = tmp_path / "frame.txt"
        code, _, _ = run(capsys, "frame", "build", "--s", "{3}", "--lo", "0",
                         "--hi", "1", "--imax", "3", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "frame", "check", "--in", str(path))
        assert code == 0
        assert "total=yes" in out and "reflexive=yes" in out

    def test_check_rejects_invalid(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("frame 2\nv 0 1\nv 0 1\n")
        code, out, _ = run(capsys, "frame", "check", "--in", str(path))
        assert code == 1
        assert "invalid" in out

    @pytest.mark.parametrize("sub", ["build", "dot"])
    def test_unwritable_out_refused_before_building(self, capsys, monkeypatch, tmp_path, sub):
        def never(*args, **kwargs):
            raise AssertionError("built the truncation before checking --out")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_truncation", never)
        code, out, err = run(capsys, "frame", sub, "--s", "{3}", "--out", "missing/f.txt")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_refused_run_leaves_an_existing_out_file(self, capsys, tmp_path):
        path = tmp_path / "frame.txt"
        path.write_text("kept\n")
        code, out, _ = run(capsys, "frame", "build", "--s", "{3}", "--budget", "1",
                           "--out", str(path))
        assert code == 2
        assert out == ""
        assert path.read_text() == "kept\n"

    def test_dot_loop_suppression(self, capsys):
        code, out, _ = run(capsys, "frame", "dot", "--s", "empty", "--lo", "0",
                           "--hi", "0", "--imax", "1", "--suppress-loops")
        assert code == 0
        assert "->" not in out.split("# tw")[-1].split("digraph")[-1]


class TestSearch:
    def test_frames_counts(self, capsys):
        code, out, _ = run(capsys, "search", "frames", "--k", "2")
        assert code == 0
        assert "raw=3 iso=2" in out

    def test_structures_with_constraints(self, capsys):
        code, out, _ = run(capsys, "search", "structures", "--k", "2",
                           "--constraints", "sym")
        assert code == 0
        assert "iso=2" in out

    def test_emit_frames(self, capsys):
        code, out, _ = run(capsys, "search", "frames", "--k", "1", "--emit", "frames")
        assert code == 0
        assert "frame 1" in out

    @pytest.mark.parametrize("constraints", ["bogus", "sym,witnesses", "triangle"])
    def test_unknown_constraint_exit_two(self, capsys, constraints):
        code, out, err = run(capsys, "search", "structures", "--k", "2",
                             "--constraints", constraints)
        assert code == 2
        assert err.startswith("error: unknown constraint")
        assert "search=" not in out

    def test_emit_structures_same_for_any_jobs(self, capsys):
        cases = [(("--emit", "structures"), "atoms 4"),
                 (("--constraints", "sym,sa"), "raw=1024 iso=148")]
        for extra, marker in cases:
            outputs = []
            for jobs in ("1", "2", "3"):
                code, out, _ = run(capsys, "search", "structures", "--k", "4", *extra,
                                   "--jobs", jobs)
                assert code == 0
                outputs.append(out.replace(f"jobs={jobs}", "jobs=N"))
            assert marker in outputs[0]
            assert outputs[0] == outputs[1] == outputs[2]

    def test_timing_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "search", "frames", "--k", "2")
        assert "elapsed_ms" not in out
        assert "elapsed_ms" in err


class TestRelalg:
    def test_axioms_from_file(self, capsys, tmp_path):
        path = tmp_path / "structure.txt"
        path.write_text("atoms 2\nconv 1 1\nid 0\ncycle 0 0 0\ncycle 0 1 1\n"
                        "cycle 1 0 1\ncycle 1 1 0\n")
        code, out, _ = run(capsys, "relalg", "axioms", "--in", str(path))
        assert code == 0
        assert "semiassociative=pass" in out
        assert "reflexive=fail" in out

    def test_element_triangle_witness(self, capsys, tmp_path):
        # the forced cycles of three symmetric atoms, plus 1 1 2 without its
        # Peirce images
        forced = ["0 0 0", "0 1 1", "0 2 2", "1 0 1", "1 1 0", "2 0 2", "2 2 0"]
        path = tmp_path / "structure.txt"
        path.write_text("atoms 3\nid 0\n" + "".join(
            f"cycle {c}\n" for c in forced + ["1 1 2"]))
        code, out, _ = run(capsys, "relalg", "axioms", "--in", str(path))
        assert code == 0
        assert ('witness law=triangle-elements value="elements 2,2,4: False/True/True"'
                in out.splitlines())

    def test_minsub_of_full_two_point(self, capsys, tmp_path):
        # full algebra on a 2-element base, written as an atom structure
        from tensebench import relalg as ra

        structure = ra.structure_of(ra.proper_algebra(2))
        path = tmp_path / "full2.txt"
        path.write_text(structure.to_text())
        code, out, _ = run(capsys, "relalg", "minsub", "--in", str(path))
        assert code == 0
        assert "atoms 2" in out

    def test_minsub_of_no_atoms(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("atoms 0\n")
        code, out, _ = run(capsys, "relalg", "minsub", "--in", str(path))
        assert code == 0
        assert out.splitlines()[1:] == ["atoms 0"]


# Lines with too few fields, one file per case.
SHORT_LINES = [
    ("relalg", "axioms", "atoms\n"),
    ("relalg", "expand", "atoms 2\nconv 1\n"),
    ("relalg", "minsub", "atoms 2\ncycle 0 0\n"),
    ("relalg", "axioms", "atoms 2\nid\n"),
    ("frame", "check", "frame \n"),
]


@pytest.mark.parametrize("command, sub, text", SHORT_LINES,
                         ids=[text.splitlines()[-1].strip() for _, _, text in SHORT_LINES])
def test_short_lines_give_a_message(capsys, tmp_path, command, sub, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, err = run(capsys, command, sub, "--in", str(path))
    if command == "frame":
        assert code == 1
        assert out.splitlines()[-1].startswith("invalid:")
    else:
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize("sub", ["axioms", "expand", "minsub"])
def test_negative_atom_count_rejected(capsys, tmp_path, sub):
    path = tmp_path / "input.txt"
    path.write_text("atoms -1\n")
    code, _, err = run(capsys, "relalg", sub, "--in", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("sub", ["axioms", "expand", "minsub"])
@pytest.mark.parametrize("count", [13, 10**12])
def test_atom_count_over_the_cap_rejected_while_parsing(capsys, tmp_path, sub, count):
    # refused before any atom is built, so even 10^12 atoms exits at once
    path = tmp_path / "input.txt"
    path.write_text(f"atoms {count}\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "relalg", sub, "--in", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: {count} atoms exceeds the 12-atom cap\n"


@pytest.mark.parametrize("name", TWELVE_ATOM_NAMES)
def test_twelve_atom_axioms_within_a_second(capsys, tmp_path, name):
    # the laws are decided on atoms: no law builds a table over the 2^12
    # elements, even when it holds and every case is scanned
    path = tmp_path / "structure.txt"
    path.write_text(twelve_atom_structure(name).to_text())
    started = time.perf_counter()
    code, out, _ = run(capsys, "relalg", "axioms", "--in", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert "boolean=pass" in out


class TestUsageErrors:
    def test_subcommand_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--format" in out and "--jobs" in out

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "fg", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [("audit", "fg"), ("search", "frames", "--k", "2"),
                                      ("search", "structures", "--k", "4")])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_rejected(self, capsys, argv, jobs):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--jobs", jobs])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "error: argument --jobs" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ("search", "structures", "--k", "3", "--constraints", "foo"),
        ("search", "structures", "--k", "5"),
        ("search", "frames", "--k", "6"),
        ("audit", "fg", "--s", "{4}"),
        ("eval", "--s", "{3}", "--term", "x", "--at", "A(0,0)"),
        ("eval", "--s", "empty", "--term", "x | &", "--at", "A(0,1)", "--env", "&=A(0,2)"),
        ("eval", "--s", "empty", "--term", "x & )", "--at", "A(0,1)", "--env", ")=A(0,2)"),
        ("eval", "--s", "empty", "--term", "x | =", "--at", "A(0,1)", "--env", "==A(0,2)"),
        ("eval", "--s", "empty", "--term", "x | .", "--at", "A(0,1)", "--env", ".=A(0,2)"),
        ("frame", "check", "--in", "missing.txt"),
        ("frame", "build", "--s", "{3}", "--imax", "8", "--out", "missing/f.txt"),
        ("frame", "dot", "--s", "{3}", "--imax", "8", "--out", "missing/f.txt"),
        ("distinguish", "--s", "{3}", "--t", "{5}", "--n-bound", "-1"),
        ("distinguish", "--s", "{3}", "--t", "{5}", "--m-bound", "-5"),
    ], ids=" ".join)
    def test_rejected_input_prints_nothing(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_bad_sparam(self, capsys):
        code, _, err = run(capsys, "eval", "--s", "{4}", "--term", "sigma",
                           "--at", "A(0,1)")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv, answer, evaluator", [
        (("eval", "--s", "empty", "--term", "nu600", "--at", "A(0,1)"),
         "A(0,600)", "eval_term"),
        (("distinguish", "--s", "{501}", "--t", "empty", "--n-bound", "501"),
         "verdict=Separated", "distinguish"),
    ], ids=["eval", "distinguish"])
    def test_too_deep_term_exit_two(self, capsys, monkeypatch, argv, answer, evaluator):
        # terms compile with their own stack, so these depths evaluate
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == answer

        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(tm, evaluator, too_deep)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: term too deep")
        assert "Traceback" not in err
        assert answer not in out

    @pytest.mark.parametrize("argv", [
        ("eval", "--s", "empty", "--term", "sigma", "--at", "A(0,1)", "--format", "text"),
        ("frame", "check", "--in", "frame.txt", "--format", "text"),
        ("relalg", "axioms", "--in", "structure.txt", "--format", "text"),
        ("relalg", "compose", "--s", "empty", "--x", "A(0,1)", "--y", "A(0,1)"),
    ], ids=["eval-format", "frame-check-format", "relalg-axioms-format", "relalg-compose"])
    def test_removed_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


# Every option of every leaf subcommand.  An option added or removed must be
# added or removed here too.
OPTIONS = {
    ("frame", "build"): ["--budget", "--hi", "--imax", "--lo", "--out", "--s"],
    ("frame", "dot"): ["--budget", "--hi", "--imax", "--lo", "--out", "--s",
                       "--suppress-loops"],
    ("frame", "check"): ["--in"],
    ("eval",): ["--at", "--env", "--s", "--term"],
    ("audit",): ["--format", "--jobs", "--s", "--seed"],
    ("distinguish",): ["--format", "--m-bound", "--n-bound", "--s", "--t"],
    ("search", "frames"): ["--emit", "--format", "--jobs", "--k"],
    ("search", "structures"): ["--constraints", "--emit", "--format", "--jobs", "--k"],
    ("relalg", "expand"): ["--in"],
    ("relalg", "axioms"): ["--in"],
    ("relalg", "minsub"): ["--in"],
}


def leaf_options(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, sorted(s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                           for s in a.option_strings)
        return
    for name, sub in subparsers[0].choices.items():
        yield from leaf_options(sub, path + (name,))


def test_option_surface():
    assert dict(leaf_options(build_parser())) == OPTIONS


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_requests_in_one_process_print_what_separate_processes_print(capsys):
    # the parser is shared between calls of main; every call parses afresh
    requests = [
        ("distinguish", "--s", "{3}", "--t", "{5}", "--format", "records"),
        ("audit", "fg", "--s", "{3}", "--format", "records"),
        ("distinguish", "--s", "{3}", "--t", "{5}"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in requests:
        separate = subprocess.run([sys.executable, "-m", "tensebench.cli", *argv],
                                  capture_output=True, text=True, env=env, check=False)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (separate.returncode, separate.stdout), argv
