from __future__ import annotations

import json

import pytest

from lochroma.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


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

    def test_solve_stall_exit_3(self, tmp_path):
        k4 = tmp_path / "k4.h3"
        k4.write_text("p h3 4 4\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
        assert run("solve", k4) == 3

    def test_stats_csv(self, tmp_path, capsys):
        out = tmp_path / "b.h3"
        assert run("--seed", 1, "gen", "--kind", "balanced", "--n", 30, "--m", 25,
                   "-o", out) == 0
        code = run("--seed", 2, "stats", out, "--cert", out.with_suffix(".cert"),
                   "--draws", 20, "--delta-override", 4.0)
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
