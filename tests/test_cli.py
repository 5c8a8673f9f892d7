from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from lochroma import cli, pipeline
from lochroma.cli import build_parser, main
from lochroma.combround import ResampleBudgetExceeded
from lochroma.formats import FormatError
from lochroma.hypercore import NotTwoLOColorable
from lochroma.instances import GenerationError
from lochroma.pipeline import PipelineError
from lochroma.sdp import SolverStalled

README = Path(__file__).resolve().parent.parent / "README.md"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def one_stderr_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1, err
    return err


@pytest.fixture()
def planted_file(tmp_path):
    out = tmp_path / "a.h3"
    assert run("--seed", 7, "gen", "--kind", "planted", "--n", 30, "--m", 40, "-o", out) == 0
    return out


class TestGen:
    def test_planted_writes_sidecar(self, planted_file):
        assert planted_file.exists()
        assert planted_file.with_suffix(".planted").exists()

    def test_balanced_writes_cert(self, tmp_path):
        out = tmp_path / "b.h3"
        code = run("--seed", 1, "gen", "--kind", "balanced", "--n", 30, "--m", 25, "-o", out)
        assert code == 0
        assert out.with_suffix(".cert").exists()

    def test_infeasible_family_exit_2(self, tmp_path):
        out = tmp_path / "bad.h3"
        code = run("gen", "--kind", "planted", "--n", 4, "--m", 4, "-o", out)
        assert code == 2


class TestColorVerify:
    @pytest.mark.parametrize("strategy", ["n15", "logn"])
    def test_color_then_verify(self, planted_file, tmp_path, capsys, strategy):
        coloring = tmp_path / f"{strategy}.coloring"
        code = run(
            "--seed", 1, "color", planted_file, "--strategy", strategy, "-o", coloring
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema=1\n")
        assert run("verify", planted_file, coloring) == 0

    def test_color_timings_on_stderr(self, planted_file, tmp_path, capsys):
        assert run("color", planted_file, "--timings", "-o", tmp_path / "t.coloring") == 0
        assert "total" in json.loads(capsys.readouterr().err)["timings"]

    def test_missing_instance_exit_1(self, tmp_path):
        assert run("color", tmp_path / "missing.h3") == 1

    def test_invalid_instance_exit_1(self, tmp_path, capsys):
        path = tmp_path / "zero.h3"
        path.write_text("p h3 3 1\n0 1 2\n")
        assert run("color", path) == 1
        assert f"{path}: vertex out of range" in capsys.readouterr().err

    def test_verify_detects_duplicated_max(self, planted_file, tmp_path, capsys):
        n = 30
        bad = tmp_path / "bad.coloring"
        bad.write_text("".join(f"{v} 1\n" for v in range(1, n + 1)))
        assert run("verify", planted_file, bad) == 4
        assert "violation: edge" in capsys.readouterr().out

    def test_verify_partial_flag(self, planted_file, tmp_path):
        partial = tmp_path / "partial.coloring"
        partial.write_text("1 1\n")
        assert run("verify", planted_file, partial, "--partial") == 0

    def test_solver_stall_exit_3(self, tmp_path):
        k4 = tmp_path / "k4.h3"
        k4.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        # The reduction spots the collapse before the solver runs.
        code = run("color", k4)
        assert code in (3, 4)

    def test_two_class_collapse_not_claimed_uncolorable(self, tmp_path, capsys):
        # 3 and 4 merge through the pair {1, 2}, so (3, 4, 5) falls into two
        # classes.  The reduction stops there, but a 2-LO coloring exists.
        f = tmp_path / "two.h3"
        f.write_text("p h3 5 3\n1 2 3\n1 2 4\n3 4 5\n")
        assert run("oracle", "lo", f, "--k", 2) == 0
        capsys.readouterr()
        assert run("color", f) == 4
        err = one_stderr_line(capsys)
        assert err.startswith("instance rejected: ")
        assert "not 2-LO colorable" not in err
        k4 = tmp_path / "k4.h3"
        k4.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        assert run("color", k4) == 4
        assert "not 2-LO colorable" in one_stderr_line(capsys)

    def test_collapse_witness_in_file_ids(self, tmp_path, capsys):
        # The library names the witness 0-based; the CLI names it as the
        # file does, 1-based.
        f = tmp_path / "two.h3"
        f.write_text("p h3 5 3\n1 2 3\n1 2 4\n3 4 5\n")
        assert run("color", f) == 4
        assert "edge (3, 4, 5) collapses" in one_stderr_line(capsys)
        k4 = tmp_path / "k4.h3"
        k4.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        assert run("color", k4) == 4
        assert "edge (1, 2, 3) collapses" in one_stderr_line(capsys)

    def test_stall_without_reduction(self, tmp_path):
        # A non-2-LO-colorable *linear* instance reaches the solver and
        # stalls: expand K4's pair intersections with fresh vertices is hard
        # to do while keeping infeasibility, so drive the solver directly.
        from lochroma import Hypergraph, SdpConfig, SolverStalled, solve_feasibility

        k4 = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        with pytest.raises(SolverStalled):
            solve_feasibility(k4, SdpConfig(seed=0))


class TestOracleCmd:
    def test_lo(self, tmp_path, capsys):
        f = tmp_path / "e.h3"
        f.write_text("p h3 3 1\n1 2 3\n")
        assert run("oracle", "lo", f, "--k", 2) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 3

    def test_lo_infeasible(self, tmp_path, capsys):
        f = tmp_path / "k4.h3"
        f.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        assert run("oracle", "lo", f, "--k", 2) == 4
        assert "no LO coloring" in capsys.readouterr().out

    def test_sets(self, tmp_path, capsys):
        f = tmp_path / "e.h3"
        f.write_text("p h3 3 1\n1 2 3\n")
        assert run("oracle", "maxodd", f) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert run("oracle", "maxeven", f) == 0
        assert capsys.readouterr().out.strip() == "1 2"


class TestBench:
    def test_rows_and_slope(self, tmp_path):
        csv = tmp_path / "bench.csv"
        code = run(
            "--seed", 3, "bench", "--sizes", "30,60", "--runs", "2", "--csv", csv
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].startswith("n,m,strategy")
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 4
        assert any(l.startswith("# loglog_slope=") for l in lines)

    def test_empty_size_list(self, capsys):
        assert run("bench", "--sizes", "", "--runs", "1") == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# schema=1"
        assert len([l for l in out if not l.startswith("#")]) == 1  # header only

    def test_timings_on_stderr(self, tmp_path, capsys):
        assert run("--seed", 0, "bench", "--sizes", "30", "--runs", "1", "--timings",
                   "--csv", tmp_path / "x.csv") == 0
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert payload and "timings" in payload[0]


class TestDeterminism:
    def test_byte_identical_outputs(self, planted_file, tmp_path, capsys):
        outs = []
        rows = []
        for i in (1, 2):
            coloring = tmp_path / f"run{i}.coloring"
            assert run(
                "--seed", 5, "color", planted_file, "--strategy", "logn", "-o", coloring
            ) == 0
            rows.append(capsys.readouterr().out)
            outs.append(coloring.read_bytes())
        assert outs[0] == outs[1]
        assert rows[0] == rows[1]

    def test_env_seed_fallback(self, planted_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LO_CHROMA_SEED", "5")
        c1 = tmp_path / "env.coloring"
        assert run("color", planted_file, "--strategy", "logn", "-o", c1) == 0
        capsys.readouterr()
        monkeypatch.delenv("LO_CHROMA_SEED")
        c2 = tmp_path / "flag.coloring"
        assert run("--seed", 5, "color", planted_file, "--strategy", "logn", "-o", c2) == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_malformed_env_seed_rejected(self, planted_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LO_CHROMA_SEED", "5x")
        out = tmp_path / "env.coloring"
        assert run("color", planted_file, "-o", out) == 1
        assert "LO_CHROMA_SEED" in capsys.readouterr().err
        assert not out.exists()
        # An explicit --seed wins, so the variable is never read.
        assert run("--seed", 5, "color", planted_file, "-o", out) == 0


class TestSolveAndStats:
    def test_solve_writes_cert_and_verify_cert(self, planted_file, tmp_path, capsys):
        cert = tmp_path / "a.cert"
        assert run("--seed", 0, "solve", planted_file, "-o", cert) == 0
        out = capsys.readouterr().out
        assert "edge_residual=" in out
        assert cert.exists()
        assert run("verify", planted_file, cert, "--cert", "--sdp-tol", "1e-6") == 0

    def test_verify_cert_rejects_bad_vectors(self, planted_file, tmp_path):
        cert = tmp_path / "bad.cert"
        rows = ["31 1"] + ["1.0"] + ["0.5"] * 30
        cert.write_text("\n".join(rows) + "\n")
        assert run("verify", planted_file, cert, "--cert") == 4

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_verify_cert_rejects_bad_gate(self, tmp_path, capsys, tol):
        out = tmp_path / "b.h3"
        assert run("gen", "--kind", "balanced", "--n", 30, "--m", 25, "-o", out) == 0
        capsys.readouterr()
        assert run("verify", out, out.with_suffix(".cert"), "--cert", "--sdp-tol", tol) == 1
        assert "tol must be a finite number > 0" in one_stderr_line(capsys)

    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_cert_of_another_shape_rejected(self, command, tmp_path, capsys):
        # Six vertex rows for a 3-vertex instance: not read as 3 rows of 2.
        instance = tmp_path / "e.h3"
        instance.write_text("p h3 3 1\n1 2 3\n")
        cert = tmp_path / "six.cert"
        cert.write_text("7 1\n1\n" + "-1\n" * 6)
        argv = (instance, cert, "--cert") if command == "verify" else (instance, "--cert", cert)
        assert run(command, *argv) == 1
        err = one_stderr_line(capsys)
        assert "(6, 1)" in err and "(3, d)" in err

    def test_cert_of_empty_instance(self, tmp_path, capsys):
        instance = tmp_path / "empty.h3"
        instance.write_text("p h3 0 0\n")
        cert = tmp_path / "empty.cert"
        cert.write_text("1 1\n1\n")
        assert run("verify", instance, cert, "--cert") == 0
        assert "edge_residual=0" in capsys.readouterr().out

    def test_solve_stall_exit_3(self, tmp_path):
        k4 = tmp_path / "k4.h3"
        k4.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        assert run("solve", k4) == 3

    def test_stats_csv(self, tmp_path, capsys):
        out = tmp_path / "b.h3"
        assert run("--seed", 1, "gen", "--kind", "balanced", "--n", 30, "--m", 25,
                   "-o", out) == 0
        code = run("--seed", 2, "stats", out, "--cert", out.with_suffix(".cert"),
                   "--draws", 20)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "draw,selected,kept"
        assert len(lines) == 22
        for row in lines[2:]:
            draw, selected, kept = map(int, row.split(","))
            assert kept <= selected

    def test_stats_alpha_override(self, tmp_path, capsys):
        out = tmp_path / "c.h3"
        assert run("--seed", 1, "gen", "--kind", "balanced", "--n", 30, "--m", 25,
                   "-o", out) == 0
        code = run("stats", out, "--cert", out.with_suffix(".cert"),
                   "--draws", 5, "--alpha-override", 1e-9)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        assert all(row.split(",")[1] == "0" for row in lines)


class TestVerifyEdgeCases:
    def test_incomplete_coloring_is_parse_error(self, planted_file, tmp_path, capsys):
        partial = tmp_path / "partial.coloring"
        partial.write_text("1 1\n")
        # Full verification needs every vertex assigned; exit 1 documents it.
        assert run("verify", planted_file, partial) == 1
        assert "unassigned" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [(), ("--partial",)])
    def test_vertex_outside_instance_rejected(self, tmp_path, capsys, flags):
        instance = tmp_path / "one.h3"
        instance.write_text("p h3 3 1\n1 2 3\n")
        coloring = tmp_path / "extra.coloring"
        coloring.write_text("1 2\n2 1\n3 1\n9 5\n")
        assert run("verify", *flags, instance, coloring) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert "vertex 9 is outside 1..3" in captured.err

    def test_seed_accepted_after_subcommand(self, tmp_path):
        a = tmp_path / "s1.h3"
        b = tmp_path / "s2.h3"
        assert run("gen", "--kind", "planted", "--n", 12, "--m", 10, "--seed", 3,
                   "-o", a) == 0
        assert run("--seed", 3, "gen", "--kind", "planted", "--n", 12, "--m", 10,
                   "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bench_csv_bytes_deterministic(self, tmp_path):
        blobs = []
        for i in (1, 2):
            csv = tmp_path / f"bench{i}.csv"
            assert run("--seed", 4, "bench", "--sizes", "30", "--runs", "2",
                       "--csv", csv) == 0
            blobs.append(csv.read_bytes())
        assert blobs[0] == blobs[1]


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("color", "a.h3", "--sdp-rank", "3"),
            ("bench", "--sdp-rank", "3"),
            ("solve", "a.h3", "--sdp-rank", "3"),
            ("color", "a.h3", "--eps-prime", "1e-9"),
            ("bench", "--reps", "4"),
            ("color", "a.h3", "--delta-exponent", "0.5"),
            ("bench", "--retry-budget", "5"),
            ("stats", "a.h3", "--delta-override", "4.0"),
        ],
    )
    def test_removed_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_matches_parser(self):
        """Every ``--flag`` the README names exists, and every option is named."""
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        options = {
            opt
            for p in subparsers.choices.values()
            for action in p._actions
            for opt in action.option_strings
            if opt.startswith("--")
        } - {"--help"}
        text = README.read_text(encoding="utf-8")
        # pip's flag in the install instructions.
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text)) - {"--no-build-isolation"}
        assert sorted(named - options) == []
        assert sorted(options - named) == []

    def test_readme_exit_codes_match_cli(self):
        """The README's exit-code list names each ``cli.EXIT_*`` code once, in order."""
        text = README.read_text(encoding="utf-8")
        start = text.index("Exit codes:")
        paragraph = text[start:text.index("\n\n", start)]
        listed = [int(code) for code in re.findall(r"`(\d+)`", paragraph)]
        assert listed == sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))


# Per command: its arguments, and the library call it makes that the table
# test replaces with one that raises.
COMMANDS = {
    "gen": (("--kind", "planted", "--n", 30, "--m", 40, "-o", "{tmp}/g.h3"),
            (cli, "gen_planted")),
    "solve": (("{h3}", "-o", "{tmp}/a.cert"), (cli, "solve_feasibility")),
    "color": (("{h3}", "-o", "{tmp}/a.coloring"), (cli, "lo_color")),
    "verify": (("{h3}", "{coloring}"), (cli, "check_lo")),
    "oracle": (("lo", "{h3}"), (cli.oracle, "brute_lo")),
    "stats": (("{h3}", "--draws", 2), (cli, "solve_feasibility")),
    "bench": (("--sizes", 30, "--runs", 1), (cli, "bench_rows")),
}

RAISED = [
    (GenerationError("no room for edges"), 2),
    (SolverStalled("plateau", 1e-3, 1e-3, 50), 3),
    (NotTwoLOColorable("pair collapse"), 4),
    (PipelineError("combine", "ranks tie"), 4),
    (ResampleBudgetExceeded("out of draws"), 4),
    (OSError("disk gone"), 1),
    (ValueError("bad value"), 1),
    (FormatError("bad line"), 1),
]


def command_argv(command, planted_file, tmp_path):
    coloring = tmp_path / "full.coloring"
    coloring.write_text("".join(f"{v} 1\n" for v in range(1, 31)))
    args, _ = COMMANDS[command]
    paths = {"tmp": tmp_path, "h3": planted_file, "coloring": coloring}
    return [command, *(str(a).format(**paths) for a in args)]


class TestFailureTable:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("exc, code", RAISED, ids=[type(e).__name__ for e, _ in RAISED])
    def test_raised_error_exit_code(self, command, exc, code, planted_file, tmp_path,
                                    monkeypatch, capsys):
        argv = command_argv(command, planted_file, tmp_path)
        owner, name = COMMANDS[command][1]

        def raising(*args, **kwargs):
            raise exc

        monkeypatch.setattr(owner, name, raising)
        capsys.readouterr()
        # gen reports a generator's argument ValueError as a generation failure.
        expected = 2 if command == "gen" and isinstance(exc, ValueError) else code
        assert main(argv) == expected
        assert str(exc) in one_stderr_line(capsys)

    def test_bug_keeps_its_traceback(self, planted_file, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "lo_color", broken)
        with pytest.raises(KeyError):
            run("color", planted_file)

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--kind", "planted", "--n", 30, "--m", 40, "-o", "{missing}/g.h3"),
            ("solve", "{h3}", "-o", "{missing}/a.cert"),
            ("color", "{h3}", "-o", "{missing}/a.coloring"),
            ("bench", "--sizes", "", "--runs", 1, "--csv", "{missing}/b.csv"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_write_exit_1(self, argv, planted_file, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        argv = [str(a).format(missing=missing, h3=planted_file) for a in argv]
        capsys.readouterr()
        assert main(argv) == 1
        assert str(missing) in one_stderr_line(capsys)

    @pytest.mark.parametrize("body", [None, "p h3 3 1\n1 2\n"], ids=["missing", "malformed"])
    def test_solve_read_error_exit_1(self, body, tmp_path, capsys):
        path = tmp_path / "in.h3"
        if body is not None:
            path.write_text(body)
        assert run("solve", path) == 1
        assert str(path) in one_stderr_line(capsys)

    def test_balanced_size_not_divisible_by_3_exit_2(self, tmp_path, capsys):
        out = tmp_path / "b.h3"
        assert run("gen", "--kind", "balanced", "--n", 10, "--m", 5, "-o", out) == 2
        assert "divisible by 3" in one_stderr_line(capsys)
        assert not out.exists()


# Flag values the configs reject, each with a piece of its message.
INVALID = [
    (("color", "{h3}", "--eps", "0.7"), "eps must be a finite number in (0, 2/3)"),
    (("color", "{h3}", "--eps", "nan"), "eps must be a finite number"),
    (("color", "{h3}", "--eps", "1e-9"), "must be at least 100x"),
    (("color", "{h3}", "--sdp-tol", "nan"), "tol must be a finite number > 0"),
    (("solve", "{h3}", "--sdp-tol", "-1"), "tol must be a finite number > 0"),
    (("solve", "{h3}", "--sdp-tol", "nan"), "tol must be a finite number > 0"),
    (("stats", "{h3}", "--sdp-tol", "0"), "tol must be a finite number > 0"),
    (("stats", "{h3}", "--alpha-override", "0.9"), "alpha=0.9 outside"),
    (("stats", "{h3}", "--draws", "-3"), "--draws must be at least 1, got -3"),
    (("bench", "--sizes", "30", "--eps", "0.7"), "eps must be a finite number"),
    (("bench", "--sizes", "30,x"), "invalid literal"),
    (("bench", "--sizes", "30,,x"), "bad --sizes list '30,,x'"),
    (("bench", "--sizes=-5,0"), "bad --sizes list '-5,0': sizes must be at least 1"),
    (("bench", "--sizes", "30", "--runs", "0"), "--runs must be at least 1, got 0"),
]


class TestInvalidValues:
    @pytest.mark.parametrize("argv, match", INVALID, ids=[" ".join(a) for a, _ in INVALID])
    def test_exit_1_before_solving(self, argv, match, planted_file, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(cli, "solve_feasibility", no_solve)
        monkeypatch.setattr(pipeline, "solve_feasibility", no_solve)
        capsys.readouterr()
        assert main([a.format(h3=planted_file) for a in argv]) == 1
        err = one_stderr_line(capsys)
        assert err.startswith("invalid input: ") and match in err
