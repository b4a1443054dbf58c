import pytest

from tensebench.cli import main


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

    def test_config_echo(self, capsys):
        _, out, _ = run(capsys, "eval", "--s", "empty", "--term", "beta", "--at", "A(0,1)")
        assert out.startswith("# tw eval ")


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
        assert "Identical-below-bound" in out


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

    def test_minsub_of_full_two_point(self, capsys, tmp_path):
        # full algebra on a 2-element base, written as an atom structure
        from tensebench import relalg as ra

        structure = ra.structure_of(ra.proper_algebra(2))
        path = tmp_path / "full2.txt"
        path.write_text(structure.to_text())
        code, out, _ = run(capsys, "relalg", "minsub", "--in", str(path))
        assert code == 0
        assert "atoms 2" in out

    def test_compose_requires_scheme(self, capsys):
        code, _, err = run(capsys, "relalg", "compose", "--s", "empty",
                           "--x", "A(0,1)", "--y", "A(1,1)")
        assert code == 2
        assert "scheme" in err

    def test_compose_with_scheme(self, capsys, tmp_path):
        path = tmp_path / "scheme.txt"
        path.write_text("comp: x & y\nconv: x\n")
        code, out, _ = run(capsys, "relalg", "compose", "--s", "empty",
                           "--scheme", str(path), "--x", "A(0,1)", "--y", "A(0,1)")
        assert code == 0
        assert out.splitlines()[-1] == "A(0,1)"

    def test_probe_with_scheme(self, capsys, tmp_path):
        path = tmp_path / "scheme.txt"
        path.write_text("comp: x & y\n")
        code, out, _ = run(capsys, "relalg", "compose", "--s", "empty",
                           "--scheme", str(path), "--x", "A(0,1)", "--y", "A(0,1)",
                           "--z", "A(1,1)")
        assert code == 0
        assert "distinct=no" in out  # meet is associative


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

    def test_bad_sparam(self, capsys):
        code, _, err = run(capsys, "eval", "--s", "{4}", "--term", "sigma",
                           "--at", "A(0,1)")
        assert code == 2
        assert "error:" in err
