"""End-to-end command line flows on temporary directories."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvsimplex
from mvsimplex.cli import main, parse_config_file, parse_view_groups, two_block_matrix


def run(*argv):
    return main([str(a) for a in argv])


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def write_blob_csv(path, n_per=12, gap=9.0, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.standard_normal((n_per, 2)),
                        rng.standard_normal((n_per, 2)) + gap])
    np.savetxt(path, y, delimiter=",", fmt="%.17g")
    labels = np.array([0] * n_per + [1] * n_per)
    return y, labels


class TestSimulate:
    def test_single_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--kind", "single",
                   "--setting", "b", "--n", 25, "--seed", 3) == 0
        data = np.loadtxt(out / "data.csv", delimiter=",")
        labels = np.loadtxt(out / "labels_true.csv", delimiter=",")
        assert data.shape == (25, 2)
        assert labels.shape == (25,)
        cfg = (out / "sim_config.txt").read_text()
        assert "setting = b" in cfg and "seed = 3" in cfg
        manifest = read_lines(out / "manifest.csv")
        assert manifest[0] == "artifact,seed"
        listed = {line.split(",")[0] for line in manifest[1:]}
        assert listed == {"data.csv", "labels_true.csv", "sim_config.txt"}
        assert all(line.endswith(",3") for line in manifest[1:])

    def test_multi_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--kind", "multi",
                   "--n", 12, "--v", 5, "--d0", 2, "--seed", 1) == 0
        data = np.loadtxt(out / "data.csv", delimiter=",")
        labels = np.loadtxt(out / "labels_true.csv", delimiter=",")
        x0 = np.loadtxt(out / "x_true.csv", delimiter=",")
        assert data.shape == (12, 10)       # v views, 2 columns each
        assert labels.shape == (5, 12)
        assert x0.shape == (5,)
        assert x0.max() < 2

    def test_consensus_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--kind", "consensus",
                   "--n", 15, "--seed", 0) == 0
        data = np.loadtxt(out / "data.csv", delimiter=",")
        structured = np.loadtxt(out / "structured.csv", delimiter=",")
        assert data.shape == (15, 10)
        assert structured.tolist() == [1, 1] + [0] * 8

    def test_unknown_kind_fails(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "x", "--kind", "nope") == 2
        assert "unknown simulate kind" in capsys.readouterr().err

    def test_multi_g0_other_than_3_fails(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "x", "--kind", "multi",
                   "--g0", 4) == 2
        err = capsys.readouterr().err
        assert "only g0 = 3 has default means" in err
        assert "means must be given" in err


class TestFit:
    def test_two_blob_flow(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        _, labels = write_blob_csv(data_csv)
        truth_csv = tmp_path / "labels.csv"
        np.savetxt(truth_csv, labels, delimiter=",", fmt="%d")
        out = tmp_path / "fit"
        assert run("fit", "--data", data_csv, "--out", out,
                   "--views", "0-1", "--d", 1, "--g", 2, "--seed", 0) == 0
        for name in ("fit_state.json", "x_hat.csv", "g_hat.csv", "labels_joint.csv",
                     "labels_pointwise.csv", "lambda.csv", "eta.csv", "loss_history.csv",
                     "p_hat_param_0.csv", "p_bar.csv", "consensus_weights.csv",
                     "summary.txt", "config_used.txt", "manifest.csv"):
            assert (out / name).exists(), name
        summary = (out / "summary.txt").read_text()
        assert "n_items = 24" in summary
        assert "n_views = 1" in summary
        assert "d_hat = 1" in summary
        # the emitted labels recover the planted blobs exactly
        assert run("metrics", "--kind", "nmi",
                   "--a", out / "labels_pointwise.csv", "--b", truth_csv) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)

    def test_p_bar_is_valid_matrix(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        out = tmp_path / "fit"
        run("fit", "--data", data_csv, "--out", out,
            "--views", "width:2", "--d", 1, "--g", 2, "--seed", 0)
        p_bar = np.loadtxt(out / "p_bar.csv", delimiter=",")
        assert p_bar.shape == (24, 24)
        np.testing.assert_allclose(p_bar, p_bar.T)
        assert p_bar.min() >= 0.0 and p_bar.max() <= 1.0
        weights = np.loadtxt(out / "consensus_weights.csv", delimiter=",", ndmin=1)
        assert weights.tolist() == [1]

    def test_views_on_two_entries_share_entry_estimates(self, tmp_path):
        sim, out = tmp_path / "sim", tmp_path / "fit"
        assert run("simulate", "--out", sim, "--kind", "multi", "--n", 30, "--v", 6,
                   "--d0", 2, "--seed", 3) == 0
        assert run("fit", "--data", sim / "data.csv", "--out", out,
                   "--views", "width:2", "--d", 3, "--g", 3, "--seed", 0) == 0
        x_hat = np.loadtxt(out / "x_hat.csv", dtype=int)
        entries = sorted(set(x_hat.tolist()))
        assert len(entries) >= 2
        written = sorted(int(p.stem.rsplit("_", 1)[1]) for p in out.glob("p_hat_param_*.csv"))
        assert written == entries
        assert f"d_hat = {len(entries)}" in read_lines(out / "summary.txt")
        g_hat = np.loadtxt(out / "g_hat.csv", dtype=int)
        joint = np.loadtxt(out / "labels_joint.csv", delimiter=",", dtype=int)
        pointwise = np.loadtxt(out / "labels_pointwise.csv", delimiter=",", dtype=int)
        for x in entries:
            views = np.nonzero(x_hat == x)[0]
            for rows in (g_hat, joint, pointwise):
                assert (rows[views] == rows[views[0]]).all()
        p_hat = {x: np.loadtxt(out / f"p_hat_param_{x}.csv", delimiter=",") for x in entries}
        u = np.loadtxt(out / "consensus_weights.csv", delimiter=",", dtype=int)
        assert u.any()
        want = sum(u[v] * p_hat[x] for v, x in enumerate(x_hat)) / u.sum()
        np.testing.assert_allclose(np.loadtxt(out / "p_bar.csv", delimiter=","), want,
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("flag, value", [("--rel-tol", "nan"), ("--rel-tol", "-1"),
                                             ("--step-size", "-0.01"), ("--step-size", "inf")])
    def test_settings_that_break_the_fit_fail(self, tmp_path, capsys, flag, value):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--views", "0-1", "--d", 1, "--g", 3, flag, value) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_d_g_fails(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o", "--d", 1) == 2
        assert "needs both d and g" in capsys.readouterr().err

    def test_empty_data_file_fails_with_filename(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("fit", "--data", empty, "--out", tmp_path / "o",
                   "--d", 1, "--g", 2) == 2
        assert "empty.csv" in capsys.readouterr().err

    def test_bad_views_width_fails(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--views", "width:3", "--d", 1, "--g", 2) == 2
        assert "do not split" in capsys.readouterr().err

    def test_views_range_out_of_bounds_fails(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--views", "0-5", "--d", 1, "--g", 2) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("# comment line\nd = 1\ng = 2\nseed = 7\nviews = 0-1\n")
        out = tmp_path / "fit"
        assert run("fit", "--data", data_csv, "--out", out,
                   "--config", cfg, "--seed", 9) == 0
        used = (out / "config_used.txt").read_text()
        assert "seed = 9" in used          # flag beats config
        assert "d = 1" in used and "g = 2" in used
        manifest = read_lines(out / "manifest.csv")
        assert all(line.endswith(",9") for line in manifest[1:])

    def test_config_used_echoes_model_defaults(self, tmp_path):
        # with no model flag given, every value comes from ModelConfig
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        out = tmp_path / "fit"
        assert run("fit", "--data", data_csv, "--out", out,
                   "--views", "0-1", "--d", 1, "--g", 2) == 0
        used = read_lines(out / "config_used.txt")
        for line in ("alpha_lambda = None", "epsilon = 0.001", "quantile = 0.1",
                     "step_size = 0.01", "m_iters = 50", "max_iters = 2000",
                     "rel_tol = 0.0001", "restarts = 1", "seed = 0"):
            assert line in used, line
        assert sum(line.endswith("= None") for line in used) == 1

    def test_removed_stop_rule_key_fails(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("d = 1\ng = 2\nwindow = 100\n")
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--config", cfg) == 2
        assert "unknown config keys: window" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("d = 1\ng = 2\nbogus = 3\n")
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--config", cfg) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_line_names_location(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("d = 1\nnot a kv line\n")
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        assert run("fit", "--data", data_csv, "--out", tmp_path / "o",
                   "--config", cfg) == 2
        err = capsys.readouterr().err
        assert ":2:" in err

    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 2\nn = abc\n")
        assert run("simulate", "--out", tmp_path / "o", "--config", cfg) == 2
        err = capsys.readouterr().err.strip()
        assert err == (f"error: {cfg}: n = 'abc': "
                       "invalid literal for int() with base 10: 'abc'")
        # a flag replaces the bad value, which is then never converted
        assert run("simulate", "--out", tmp_path / "o", "--config", cfg, "--n", 5) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("fit", "--data", data_csv, "--out", out,
                       "--views", "cols", "--d", 2, "--g", 3, "--seed", 5) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


class TestVerifyBound:
    def test_small_run_artifacts(self, tmp_path):
        out = tmp_path / "vb"
        assert run("verify-bound", "--out", out, "--n", 5, "--m", 2,
                   "--replications", 4, "--empirical-draws", 200,
                   "--generalization-draws", 300, "--seed", 2) == 0
        rows = read_lines(out / "bound_per_replication.csv")
        assert rows[0] == "replication,lhs,holds,skipped"
        assert len(rows) == 5
        summary = (out / "bound_summary.txt").read_text()
        for key in ("m =", "delta =", "replications = 4", "evaluated =",
                    "skipped =", "rhs =", "holds_fraction =", "target_fraction =",
                    "holds ="):
            assert key in summary, key

    def test_m_minimum_accepted_and_below_rejected(self, tmp_path, capsys):
        assert run("verify-bound", "--out", tmp_path / "ok", "--n", 4, "--m", 2,
                   "--replications", 2, "--empirical-draws", 100,
                   "--generalization-draws", 100) == 0
        assert run("verify-bound", "--out", tmp_path / "bad", "--m", 1,
                   "--replications", 2) == 2
        assert "M must be" in capsys.readouterr().err

    def test_delta_validated(self, tmp_path, capsys):
        assert run("verify-bound", "--out", tmp_path / "bad", "--delta", "1.5",
                   "--replications", 2) == 2
        assert "delta" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run("verify-bound", "--out", out, "--n", 4, "--m", 2,
                "--replications", 3, "--empirical-draws", 150,
                "--generalization-draws", 200, "--seed", 8)
        for name in ("bound_per_replication.csv", "bound_summary.txt",
                     "config_used.txt", "manifest.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_sampler_path_rerun_is_byte_identical(self, tmp_path):
        # past n = 6 the draws come from the sampler, not the exact law
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run("verify-bound", "--out", out, "--n", 8, "--replications", 3,
                       "--empirical-draws", 50, "--generalization-draws", 100) == 0
        for name in ("bound_per_replication.csv", "bound_summary.txt",
                     "config_used.txt", "manifest.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("flag, name", [("--empirical-draws", "empirical_draws"),
                                            ("--generalization-draws", "generalization_draws")])
    def test_zero_draws_rejected(self, tmp_path, capsys, flag, name):
        assert run("verify-bound", "--out", tmp_path / "bad", "--replications", 2,
                   flag, 0) == 2
        assert capsys.readouterr().err.strip() == f"error: {name} must be >= 1, got 0"

    @pytest.mark.parametrize("slack", ["2", "-1"])
    def test_mc_slack_validated(self, tmp_path, capsys, slack):
        assert run("verify-bound", "--out", tmp_path / "bad", "--replications", 2,
                   "--mc-slack", slack) == 2
        assert "mc_slack must lie in [0, 1 - delta)" in capsys.readouterr().err


class TestMetrics:
    def test_nmi_prints_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.array([0, 0, 1, 1]), fmt="%d")
        np.savetxt(b, np.array([1, 1, 0, 0]), fmt="%d")
        assert run("metrics", "--kind", "nmi", "--a", a, "--b", b) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)

    def test_mad_prints_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a, np.array([[1.0, 0.2], [0.2, 1.0]]), delimiter=",")
        np.savetxt(b, np.array([[1.0, 0.5], [0.5, 1.0]]), delimiter=",")
        assert run("metrics", "--kind", "mad", "--a", a, "--b", b) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.3)

    def test_mad_on_one_item_fails(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("0.5\n")
        assert run("metrics", "--kind", "mad", "--a", a, "--b", a) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 2 rows" in captured.err


class TestScreen:
    def test_selects_and_reorders_columns(self, tmp_path):
        data = np.array([[1.0, 5.0, 1.0],
                         [1.0, 9.0, 1.2],
                         [1.0, 1.0, 0.8]])
        src = tmp_path / "data.csv"
        np.savetxt(src, data, delimiter=",", fmt="%.17g")
        out = tmp_path / "scr"
        assert run("screen", "--data", src, "--out", out, "--top-v", 2) == 0
        idx = np.loadtxt(out / "selected_columns.csv", delimiter=",", ndmin=1)
        screened = np.loadtxt(out / "screened.csv", delimiter=",")
        assert idx.astype(int).tolist() == [1, 2]
        np.testing.assert_allclose(screened, data[:, [1, 2]])

    def test_missing_top_v_fails(self, tmp_path, capsys):
        src = tmp_path / "data.csv"
        np.savetxt(src, np.eye(3) + 1.0, delimiter=",")
        assert run("screen", "--data", src, "--out", tmp_path / "o") == 2
        assert "top_v" in capsys.readouterr().err


class TestSeedOption:
    # one check in resolve_options covers every command's option table
    @pytest.mark.parametrize("argv", [["simulate"], ["fit", "--d", 1, "--g", 2],
                                      ["verify-bound", "--replications", 2],
                                      ["screen", "--top-v", 1]])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_named(self, tmp_path, capsys, argv, via):
        data_csv = tmp_path / "data.csv"
        write_blob_csv(data_csv)
        extra = ["--data", data_csv] if argv[0] in ("fit", "screen") else []
        if via == "flag":
            extra += ["--seed", -1]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            extra += ["--config", cfg]
        assert run(*argv, *extra, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.strip() == "error: seed must be >= 0, got -1"
        assert not (tmp_path / "o").exists()


class TestHelpers:
    def test_parse_view_groups_forms(self):
        assert [g.tolist() for g in parse_view_groups("cols", 3)] == [[0], [1], [2]]
        assert [g.tolist() for g in parse_view_groups("width:2", 4)] == [[0, 1], [2, 3]]
        got = parse_view_groups("0-1,3,2-2", 4)
        assert [g.tolist() for g in got] == [[0, 1], [3], [2]]

    def test_parse_view_groups_errors(self):
        with pytest.raises(ValueError, match="width"):
            parse_view_groups("width:0", 4)
        with pytest.raises(ValueError, match="bad column range"):
            parse_view_groups("3-1", 4)
        with pytest.raises(ValueError, match="empty entry"):
            parse_view_groups("0,,1", 4)

    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# header\nalpha = 0.5\n\nname = two words\n")
        assert parse_config_file(cfg) == {"alpha": "0.5", "name": "two words"}

    def test_two_block_matrix(self):
        P = two_block_matrix(5, 0.8, 0.1)
        assert P.shape == (5, 5)
        assert P[0, 1] == 0.8 and P[3, 4] == 0.8
        assert P[0, 3] == 0.1
        assert P.diagonal().tolist() == [1.0] * 5
        with pytest.raises(ValueError, match="p_in"):
            two_block_matrix(4, 1.0, 0.1)

    def test_error_prints_one_line_without_debug(self, tmp_path, capsys):
        assert run("verify-bound", "--out", tmp_path / "bad", "--m", 1,
                   "--replications", 2) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: M must be") and "Traceback" not in err

    def test_debug_reraises(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="M must be"):
            run("--debug", "verify-bound", "--out", tmp_path / "bad", "--m", 1,
                "--replications", 2)
        assert "error:" not in capsys.readouterr().err

    def test_import_loads_no_scipy(self):
        # every command pays for the CLI's import; scipy loads only where
        # a command needs it
        env = dict(os.environ, PYTHONPATH=str(Path(mvsimplex.__file__).parents[1]))
        probe = "import sys, mvsimplex.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert out.strip() == "[]"

    def test_commands_run_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable,
        # simulate, fit and verify-bound still succeed
        env = dict(os.environ, PYTHONPATH=str(Path(mvsimplex.__file__).parents[1]))
        sim, fit, vb = (str(tmp_path / name) for name in ("sim", "fit", "vb"))
        commands = [
            ["simulate", "--out", sim, "--kind", "multi", "--n", "12", "--v", "3",
             "--d0", "2", "--seed", "1"],
            ["fit", "--data", str(tmp_path / "sim" / "data.csv"), "--out", fit,
             "--views", "width:2", "--d", "2", "--g", "2", "--seed", "0"],
            ["verify-bound", "--out", vb, "--n", "4", "--m", "2", "--replications", "2",
             "--empirical-draws", "100", "--generalization-draws", "100"],
        ]
        probe = ("import sys; sys.modules['scipy'] = None\n"
                 "from mvsimplex.cli import main\n"
                 f"print([main(argv) for argv in {commands!r}])")
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip().splitlines()[-1] == "[0, 0, 0]"

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            run("frobnicate")
        capsys.readouterr()
