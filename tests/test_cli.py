import json
import os
import subprocess
import sys

import numpy as np
import pytest

import alphaleak
from alphaleak import JointDist, ParseError, ValidationError
from alphaleak.cli import (
    emit_plot_gain,
    load_distribution,
    main,
    save_distribution,
    serialize_distribution,
)


@pytest.fixture
def bsc_file(tmp_path):
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps(
        {"p_x": [0.5, 0.5], "channel": [[0.9, 0.1], [0.1, 0.9]]}))
    return str(path)


class TestLoad:
    def test_pair_form(self, bsc_file):
        p, W = load_distribution(bsc_file)
        np.testing.assert_allclose(p.probs, [0.5, 0.5])
        assert W.matrix[0, 0] == 0.9

    def test_joint_form(self, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"joint": [[0.25, 0.25], [0.25, 0.25]]}))
        dist = load_distribution(str(path))
        assert isinstance(dist, JointDist)
        p, W = dist.decompose()
        np.testing.assert_allclose(W.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_bad_row_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"p_x": [0.5, 0.5], "channel": [[0.9, 0.1], [0.5, 0.49]]}))
        with pytest.raises(ValidationError, match="row 1"):
            load_distribution(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ParseError):
            load_distribution(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ParseError):
            load_distribution(str(path))

    def test_round_trip_bit_identical(self, tmp_path, rng):
        p = rng.dirichlet(np.ones(3))
        W = rng.dirichlet(np.ones(2), size=3)
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"p_x": list(p / p.sum()),
                                    "channel": [list(r / r.sum()) for r in W]}))
        first = load_distribution(str(path))
        out = tmp_path / "d2.json"
        save_distribution(first, str(out))
        second = load_distribution(str(out))
        np.testing.assert_array_equal(first[0].probs, second[0].probs)
        np.testing.assert_array_equal(first[1].matrix, second[1].matrix)
        assert serialize_distribution(first) == serialize_distribution(second)


class TestMeasureCommand:
    def test_bsc_arimoto(self, bsc_file, capsys):
        code = main(["measure", "--input", bsc_file, "--variant", "arimoto",
                     "--alpha", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["units"] == "nats"
        assert abs(doc["rows"][0]["value_nats"] - 0.494696241836) < 1e-9

    def test_shannon_ignores_alpha(self, bsc_file, capsys):
        code = main(["measure", "--input", bsc_file, "--variant", "shannon",
                     "--alpha", "3.7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["rows"][0]["value_nats"] - 0.368064207168) < 1e-9

    def test_constant_channel_all_zero(self, tmp_path, capsys):
        path = tmp_path / "const.json"
        path.write_text(json.dumps(
            {"p_x": [0.4, 0.6], "channel": [[0.3, 0.7], [0.3, 0.7]]}))
        code = main(["measure", "--input", str(path), "--variant", "all",
                     "--alpha", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 6
        assert all(abs(row["value_nats"]) < 1e-9 for row in doc["rows"])

    def test_via_leakage_flag(self, bsc_file, capsys):
        code = main(["measure", "--input", bsc_file, "--variant", "sibson",
                     "--alpha", "2", "--via-leakage"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["rows"][0]["value_nats"] - 0.494696241836) < 1e-9
        assert doc["rows"][0]["method"].startswith("via_leakage")

    def test_invalid_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"p_x": [0.5, 0.5], "channel": [[0.99, 0.0], [0.1, 0.9]]}))
        assert main(["measure", "--input", str(path), "--variant", "shannon",
                     "--alpha", "1"]) == 2

    def test_csv_header_carries_units(self, bsc_file, capsys):
        main(["measure", "--input", bsc_file, "--variant", "shannon",
              "--alpha", "1", "--output", "csv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# units: nats"
        assert "value_nats" in out.splitlines()[1]


def test_python_dash_m_runs_the_cli(bsc_file):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(alphaleak.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "alphaleak", "measure", "--input", bsc_file,
                          "--variant", "arimoto", "--alpha", "2"],
                         capture_output=True, text=True, env=env, check=False)
    assert out.returncode == 0, out.stderr
    assert abs(json.loads(out.stdout)["rows"][0]["value_nats"] - 0.494696241836) < 1e-9


class TestSweepCommand:
    def test_row_order_follows_request(self, bsc_file, capsys):
        code = main(["sweep", "--input", bsc_file, "--variant", "sibson,arimoto",
                     "--alpha", "2,0.6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = [(r["variant"], r["alpha"]) for r in doc["rows"]]
        assert got == [("sibson", 2.0), ("sibson", 0.6),
                       ("arimoto", 2.0), ("arimoto", 0.6)]

    def test_all_variants_skip_out_of_domain_orders(self, bsc_file, capsys):
        # the default orders include 0.3, below the lapidoth_pfister domain
        code = main(["sweep", "--input", bsc_file, "--variant", "all"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(s["variant"], s["alpha"]) for s in doc["skipped"]] == [
            ("lapidoth_pfister", 0.3)]
        got = [(r["variant"], r["alpha"]) for r in doc["rows"]]
        assert len(got) == 6 * 4 - 1
        assert ("lapidoth_pfister", 0.3) not in got
        assert ("lapidoth_pfister", 0.6) in got

    def test_all_variants_skipped_pairs_in_csv(self, bsc_file, capsys):
        assert main(["sweep", "--input", bsc_file, "--variant", "all",
                     "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# units: nats"
        assert lines[1].startswith("# skipped: lapidoth_pfister alpha=0.3 ")
        assert lines[2].startswith("variant,")

    def test_named_variants_skip_nothing(self, bsc_file, capsys):
        assert main(["sweep", "--input", bsc_file, "--variant", "sibson,arimoto"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["skipped"] == []
        assert len(doc["rows"]) == 2 * 4

    def test_named_variant_out_of_domain_exit_2(self, bsc_file, capsys):
        assert main(["sweep", "--input", bsc_file, "--variant", "lapidoth_pfister",
                     "--alpha", "0.3"]) == 2

    def test_order_no_variant_accepts_exit_2(self, bsc_file, capsys):
        assert main(["sweep", "--input", bsc_file, "--variant", "all",
                     "--alpha", "-1"]) == 2

    def test_all_variants_via_leakage_optimize(self, tmp_path, capsys):
        # the numeric prior vulnerability of the hayashi tuple above order 1
        # once raised DomainError, which made this sweep exit 2
        path = tmp_path / "dense3.json"
        path.write_text(json.dumps({
            "p_x": [0.2, 0.3, 0.5],
            "channel": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]}))
        assert main(["sweep", "--input", str(path), "--variant", "all",
                     "--via-leakage", "--method", "optimize"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = {(r["variant"], r["alpha"]) for r in doc["rows"]}
        variants = {r["variant"] for r in doc["rows"]}
        assert "hayashi" in variants and len(variants) == 6
        for variant in variants:
            assert {(variant, a) for a in (0.6, 2.0, 4.0)} <= got


class TestVerifyCommand:
    def test_passes_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--trials", "2", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["failures"] == 0
        assert doc["units"] == "nats"

    def test_zero_trials_vacuous_pass(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 0

    def test_corrupted_tolerance_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        overrides = json.dumps({"arimoto-cond-vulnerability": 1e-15,
                                "gibbs-grid-gap": 1e-18})
        code = main(["verify", "--trials", "1", "--seed", "7",
                     "--tolerance-overrides", overrides, "--out", str(out)])
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["summary"]["failures"] > 0
        failing = [r for r in doc["records"] if not r["passed"]]
        assert all("lhs" in r and "rhs" in r for r in failing)

    @pytest.mark.parametrize("args", [
        ["--sizes", "2,x"],
        ["--sizes", "0"],
        ["--tolerance-overrides", "[1]"],
        ["--tolerance-overrides", json.dumps({"gibbs-grid-gap": "x"})],
        ["--tolerance-overrides", json.dumps({"gibbs-grid-gap": -1.0})],
        ["--tolerance-overrides", json.dumps({"no-such-identity": 1e-3})],
    ], ids=["size-not-int", "size-zero", "overrides-not-object", "tolerance-not-number",
            "tolerance-negative", "unknown-identity"])
    def test_bad_input_exits_two(self, args, capsys):
        # exit 1 means a failed check: an input error must not look like one
        assert main(["verify", "--trials", "1"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_reproducible_bytes_modulo_timing(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--trials", "1", "--seed", "11", "--out", str(a)])
        main(["verify", "--trials", "1", "--seed", "11", "--out", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("elapsed_s"), db.pop("elapsed_s")
        assert json.dumps(da) == json.dumps(db)


class TestPlotGain:
    def test_zero_at_full_confidence(self):
        rows = emit_plot_gain([0.5, 2.0, 1e6], grid=10)
        last = rows[-1]
        assert last["r"] == 1.0
        assert all(abs(last[k]) < 1e-12 for k in last if k.startswith("g["))

    def test_columns_ordered_in_alpha(self):
        rows = emit_plot_gain([0.5, 2.0], grid=20)
        for row in rows[:-1]:  # r < 1
            assert row["g[alpha=0.5]"] <= row["g[alpha=2]"] + 1e-12

    def test_large_alpha_proxy_near_residual(self):
        rows = emit_plot_gain([1e6], grid=10)
        for row in rows:
            assert abs(row["g[alpha=1e+06]"] - (row["r"] - 1.0)) < 1e-5

    def test_cli_csv(self, capsys):
        assert main(["plot-gain", "--alpha", "0.5,2", "--grid", "4",
                     "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# units: nats"
        assert len(lines) == 6  # comment + header + 4 rows


class TestSolverOptions:
    @pytest.mark.parametrize("command", ["plot-gain", "risk-aversion"])
    @pytest.mark.parametrize("option", [["--seed", "3"], ["--tol", "1e-8"],
                                        ["--grid-res", "0.1"]])
    def test_commands_that_do_not_solve_reject_them(self, command, option):
        with pytest.raises(SystemExit) as info:
            main([command, *option])
        assert info.value.code == 2


class TestOutputDirEnv:
    def test_relative_out_resolves_against_env(self, tmp_path, bsc_file, monkeypatch):
        monkeypatch.setenv("ALPHALEAK_OUTPUT_DIR", str(tmp_path))
        code = main(["measure", "--input", bsc_file, "--variant", "shannon",
                     "--alpha", "1", "--out", "rows.json"])
        assert code == 0
        assert (tmp_path / "rows.json").exists()


class TestRiskAversionCommand:
    @pytest.mark.parametrize("command", ["plot-gain", "risk-aversion"])
    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_a_grid_below_two_is_rejected(self, command, grid, capsys):
        # risk-aversion printed an empty table for --grid 0 and exited 0
        assert main([command, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid must be at least 2" in captured.err

    def test_table(self, capsys):
        assert main(["risk-aversion", "--alpha", "0.5,2", "--grid", "5",
                     "--mode", "both"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row = doc["rows"][-1]  # r = 1
        assert abs(row["A_closed[alpha=0.5]"] - 2.0) < 1e-12
        assert abs(row["A_fd[alpha=2]"] - 0.5) < 1e-4
