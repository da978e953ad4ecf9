"""Command-line interface: stdout contracts, output files, manifests,
exit codes, and byte-level reproducibility."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasure_sensing import __version__, cli, clock
from erasure_sensing.cli import main
from erasure_sensing.clock import crb_floor
from erasure_sensing.fisher import SingularFisherError

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
EXAMPLE_CONFIG = os.path.abspath(os.path.join(DATA, "example_comparison.json"))
ELLIPSE_CSV = os.path.abspath(os.path.join(DATA, "ellipse_pi_over_3.csv"))


def small_config(tmp_path, **overrides):
    cfg = dict(
        phi_d=math.pi / 2,
        N0=150,
        T_c=1.0,
        T_d=0.0,
        f0=1.0,
        cycles=600,
        noise={"kind": "erasure", "q": 0.1},
        c_a=1.0,
        c_b=1.0,
        laser_phase_model="UniformRandomPerCycle",
        seed=5,
        shot_noise=True,
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestFisherCommand:
    def test_prints_bare_value(self, capsys):
        assert main(["fisher", "erasure", "-q", "0.36"]) == 0
        assert capsys.readouterr().out == "0.64\n"

    def test_depolarizing_at_quadrature(self, capsys):
        assert main(["fisher", "depolarizing", "-q", "0.2",
                     "--phi", str(math.pi / 2), "--theta", "0"]) == 0
        value = float(capsys.readouterr().out)
        assert value == pytest.approx(0.64, abs=1e-12)

    def test_noiseless_depolarizing_prints_unity(self, capsys):
        assert main(["fisher", "depolarizing", "-q", "0",
                     "--phi", str(math.pi / 2), "--theta", "0"]) == 0
        assert capsys.readouterr().out == "1.0\n"

    def test_dephasing_spot_value(self, capsys):
        assert main(["fisher", "dephasing", "-q", "0.1",
                     "--phi", str(math.pi / 2), "--theta", "0"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.64, abs=1e-12)

    def test_numeric_flag_reports_oracle_agreement(self, capsys):
        assert main(["fisher", "dephasing", "-q", "0.2", "--phi", "1.2",
                     "--theta", "0.1", "--numeric"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert set(fields) == {"analytic", "numeric", "difference"}
        assert abs(float(fields["difference"])) < 1e-6

    def test_invalid_q_is_a_usage_error(self, capsys):
        assert main(["fisher", "erasure", "-q", "1.5"]) == 2

    def test_offset_past_the_float_range_is_a_usage_error(self, tmp_path, capsys):
        # each angle is finite, their difference is not
        assert main(["fisher", "depolarizing", "--q=0.2", "--phi=-1.7976931348623157e308",
                     "--theta=1e300", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--phi" in err and "--theta" in err
        assert list(tmp_path.iterdir()) == []

    def test_numeric_erasure_near_full_loss(self, capsys):
        # both fringe outcomes lie below 1e-14, yet the information 1 - q
        # is finite: the probability floor scales with the fringe weight
        assert main(["fisher", "erasure", "-q", "0.999999999999999",
                     "--phi", "1.0", "--numeric"]) == 0
        fields = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert float(fields["analytic"]) == 1.0 - 0.999999999999999
        assert float(fields["numeric"]) == pytest.approx(float(fields["analytic"]), rel=1e-9)

    def test_singular_evaluation_exit_code(self, tmp_path, capsys, monkeypatch):
        # no channel model has a slope at a zero of its probabilities, so
        # the oracle is made to raise to check the exit-code mapping
        def singular(model, phi):
            raise SingularFisherError(f"singular Fisher evaluation at phi = {phi}")

        monkeypatch.setattr(cli, "classical_fisher_numeric", singular)
        assert main(["fisher", "depolarizing", "-q", "0", "--numeric",
                     "--phi", str(math.pi - 1e-7), "--theta", "0",
                     "--out", str(tmp_path)]) == 3
        assert "singular" in capsys.readouterr().err.lower()
        assert list(tmp_path.iterdir()) == []


class TestEllipseCommand:
    def test_shipped_file_recovers_pi_over_three(self, tmp_path, capsys):
        assert main(["ellipse", ELLIPSE_CSV, "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["phi_d"] == pytest.approx(1.047198, abs=1e-6)
        on_disk = json.loads((tmp_path / "ellipse.json").read_text())
        assert on_disk == payload
        manifest = json.loads((tmp_path / "ellipse_manifest.json").read_text())
        assert manifest["command"] == "ellipse"
        assert manifest["seed"] is None

    def test_five_rows_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "five.csv"
        path.write_text("x_a,x_b\n" + "\n".join(
            f"{x},{y}" for x, y in [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8), (0.9, 0.1)]))
        assert main(["ellipse", str(path), "--out", str(tmp_path)]) == 2

    def test_collinear_rows_are_a_fit_error(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 40)
        path = tmp_path / "line.csv"
        path.write_text("x_a,x_b\n" + "\n".join(f"{x},{2 * x + 0.1}" for x in t))
        assert main(["ellipse", str(path), "--out", str(tmp_path)]) == 5
        assert "no ellipse" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["ellipse", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 2


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", EXAMPLE_CONFIG, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("sigma_one_window ")
        for name in ("cycles.csv", "phases.csv", "allan.json", "simulate_manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert manifest["seed"] == 20
        assert manifest["stats"]["cycles"] == 2000
        assert manifest["stats"]["invalid_fraction"] == 0.0
        assert float(printed.split()[1]) == pytest.approx(
            manifest["stats"]["sigma_one_window"], rel=1e-12)
        header = (out / "cycles.csv").read_text().splitlines()[0]
        assert header == "cycle,theta,x_a,x_b,n_a,n_b"

    def test_byte_identical_across_runs_and_threads(self, tmp_path, capsys, monkeypatch):
        cfg = small_config(tmp_path)
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["simulate", cfg, "--out", str(out), "--threads", threads]) == 0
            outs.append(out)
        # cycles.csv written in chunks that do not divide its 600 rows
        monkeypatch.setattr(cli, "_CSV_ROWS", 7)
        assert main(["simulate", cfg, "--out", str(tmp_path / "d")]) == 0
        outs.append(tmp_path / "d")
        ref_cycles = (outs[0] / "cycles.csv").read_bytes()
        ref_phases = (outs[0] / "phases.csv").read_bytes()
        for out in outs[1:]:
            assert (out / "cycles.csv").read_bytes() == ref_cycles
            assert (out / "phases.csv").read_bytes() == ref_phases

    def test_config_echoed_as_written(self, tmp_path, capsys):
        # integer-valued float fields and keys out of schema order reach
        # both manifests exactly as the file wrote them
        text = ('{"shot_noise": true, "seed": 5, "noise": {"q": 0.1, "kind": "erasure"}, '
                '"laser_phase_model": "UniformRandomPerCycle", "c_b": 1, "c_a": 1, '
                '"cycles": 600, "f0": 1, "T_d": 0, "T_c": 1, "N0": 150, "phi_d": 1.5}')
        path = tmp_path / "reordered.json"
        path.write_text(text)
        assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0
        assert main(["scaling", str(path), "--q-grid", "0", "--kind", "erasure",
                     "--out", str(tmp_path / "s")]) == 0
        simulate = json.loads((tmp_path / "run" / "simulate_manifest.json").read_text())
        scaling = json.loads((tmp_path / "s" / "scaling_manifest.json").read_text())
        assert json.dumps(simulate["config"]) == text
        assert json.dumps(scaling["config"]["base_config"]) == text

    def test_shipped_config_sits_within_twenty_percent_of_floor(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", EXAMPLE_CONFIG, "--out", str(out)]) == 0
        stats = json.loads((out / "simulate_manifest.json").read_text())["stats"]
        floor = crb_floor(500, 1.0, 100.0, 1.0, differential=True)
        assert abs(stats["sigma_one_window"] - floor) <= 0.2 * floor

    def test_half_loss_reported_in_manifest(self, tmp_path, capsys):
        cfg = small_config(tmp_path, N0=400, cycles=800, noise={"kind": "erasure", "q": 0.5})
        out = tmp_path / "run"
        assert main(["simulate", cfg, "--out", str(out)]) == 0
        stats = json.loads((out / "simulate_manifest.json").read_text())["stats"]
        assert stats["mean_survival_fraction"] == pytest.approx(0.5, abs=0.02)
        assert stats["measured_loss_q"] == pytest.approx(0.5, abs=0.02)

    def test_degenerate_configuration_exit_code(self, tmp_path, capsys):
        cfg = small_config(tmp_path, N0=2, cycles=200, noise={"kind": "erasure", "q": 0.9})
        assert main(["simulate", cfg, "--window", "50", "--out", str(tmp_path / "x")]) == 4

    @pytest.mark.parametrize("command", [["simulate"],
                                         ["scaling", "--q-grid", "0.25", "--kind", "erasure"]])
    def test_cycles_lost_below_four_windows_is_a_usage_error(self, command, tmp_path, capsys):
        # 400 cycles fill four windows of 100, but at N0 3 and q 0.25 about
        # 12 cycles lose an ensemble, and the valid pairs fill three
        out = tmp_path / "run"
        cfg = small_config(tmp_path, N0=3, cycles=400, noise={"kind": "erasure", "q": 0.25})
        assert main([command[0], cfg, *command[1:], "--window", "100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "window 100 over 3" in err and "valid pairs" in err
        assert "of 400 cycles lost every atom" in err
        assert list(out.iterdir()) == []

    def test_invalid_config_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"phi_d": 1.0}))
        assert main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        assert "cycles" in capsys.readouterr().err  # missing fields are named

    @pytest.mark.parametrize("overrides, named", [
        (None, "JSON object"),
        ({"noise": [1]}, "noise"),
        ({"noise": {"q": 0.1}}, "noise.kind"),
        ({"phi_d": 4.0}, "phi_d"),
        ({"cycles": 0}, "cycles"),
        ({"c_a": 1.5}, "c_a"),
        ({"seed": -1}, "seed"),
    ], ids=["not-an-object", "noise-not-an-object", "noise-without-kind",
            "phi_d-out-of-range", "zero-cycles", "contrast-above-one", "negative-seed"])
    def test_config_error_names_its_field(self, overrides, named, tmp_path, capsys):
        if overrides is None:
            path = tmp_path / "config.json"
            path.write_text("[1, 2]")
        else:
            path = small_config(tmp_path, **overrides)
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_no_fitted_window_is_a_fit_error(self, tmp_path, capsys):
        # with phi_d = 0 and no shot noise every pair lies on the diagonal,
        # so every window is collinear and none gives a phase
        cfg = small_config(tmp_path, phi_d=0.0, shot_noise=False)
        assert main(["simulate", cfg, "--out", str(tmp_path / "run")]) == 5
        assert "0 of 6 fit windows" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []
        # with one atom per ensemble every pair is a corner of the unit
        # square: four distinct points, through which any conic of a pencil
        # passes, so no window gives a phase
        cfg = small_config(tmp_path, N0=1, cycles=3000, seed=3,
                           noise={"kind": "erasure", "q": 0.04})
        assert main(["simulate", cfg, "--window", "100", "--out", str(tmp_path / "one")]) == 5
        assert "0 of 27 fit windows" in capsys.readouterr().err
        assert not (tmp_path / "one" / "simulate_manifest.json").exists()
        assert main(["scaling", cfg, "--q-grid", "0", "--kind", "erasure",
                     "--window", "100", "--out", str(tmp_path / "s")]) == 5
        assert list((tmp_path / "s").iterdir()) == []
        # with two atoms the fractions take three values, and 16 of the 100
        # windows of ten pairs give no phase: more than 10% fail. Window 35
        # (cycles 350-359) holds five distinct points, three of them on
        # x_b = 0, so no proper ellipse passes through them; only a line
        # pair does
        with open(EXAMPLE_CONFIG) as fh:
            shipped = json.load(fh)
        cfg = small_config(tmp_path, **dict(shipped, N0=2, cycles=1000, seed=0,
                                            noise={"kind": "depolarizing", "q": 0.0}))
        assert main(["simulate", cfg, "--window", "10", "--out", str(tmp_path / "two")]) == 5
        assert "only 84 of 100 fit windows" in capsys.readouterr().err
        assert not (tmp_path / "two" / "simulate_manifest.json").exists()

    def test_mistyped_noise_field_is_a_usage_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path, noise={"kind": "erasure", "q": None})
        assert main(["simulate", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "noise.q" in capsys.readouterr().err
        assert not (tmp_path / "x" / "simulate_manifest.json").exists()


class TestScalingCommand:
    def test_zero_error_rates_make_channels_identical(self, tmp_path, capsys):
        cfg = small_config(tmp_path, noise={"kind": "erasure", "q": 0.0})
        out = tmp_path / "s"
        assert main(["scaling", cfg, "--q-grid", "0", "--kind", "both",
                     "--out", str(out)]) == 0
        rows = (out / "scaling.csv").read_text().strip().splitlines()
        assert rows[0] == "q,sigma_erasure,err_erasure,sigma_depolarizing,err_depolarizing"
        _, sig_e, err_e, sig_d, err_d = rows[1].split(",")
        assert sig_e == sig_d and err_e == err_d  # byte-equal, not just close
        printed = [line for line in capsys.readouterr().out.splitlines() if "sigma" in line]
        assert len(printed) == 2
        assert printed[0].split()[-1] == printed[1].split()[-1]

    def test_both_kinds_share_the_q_zero_run(self, tmp_path, capsys, monkeypatch):
        # At q = 0 every kind has amplitude and survival 1, so `scaling
        # --kind both` simulates that point once and gives it to both kinds.
        calls = []
        run_comparison = clock.run_comparison

        def counted(config, *args, **kwargs):
            calls.append(config.noise)
            return run_comparison(config, *args, **kwargs)

        monkeypatch.setattr(clock, "run_comparison", counted)
        cfg = small_config(tmp_path)
        for name, grid, runs in (("zero", [0.0, 0.2, 0.4], 5), ("no_zero", [0.1, 0.2, 0.4], 6)):
            calls.clear()
            assert main(["scaling", cfg, "--q-grid", ",".join(map(str, grid)), "--kind",
                         "both", "--out", str(tmp_path / name)]) == 0
            assert len(calls) == runs == 2 * len(grid) - (0.0 in grid)
        rows = (tmp_path / "zero" / "scaling.csv").read_text().splitlines()
        q, sig_e, err_e, sig_d, err_d = rows[1].split(",")
        assert q == "0.0" and sig_e == sig_d and err_e == err_d
        printed = capsys.readouterr().out.splitlines()
        assert "erasure q 0.0 sigma " + sig_e in printed
        assert "depolarizing q 0.0 sigma " + sig_d in printed

    def test_fit_summary_written_for_multi_point_grids(self, tmp_path, capsys):
        cfg = small_config(tmp_path, N0=250, cycles=1500, c_a=0.5, c_b=0.5)
        out = tmp_path / "s"
        assert main(["scaling", cfg, "--q-grid", "0,0.3,0.6", "--kind", "erasure",
                     "--out", str(out)]) == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        entry = fit["erasure"]
        assert set(entry) >= {"exponent", "exponent_stderr", "sigma0_free",
                              "fixed_exponent", "sigma0_fixed_form"}
        assert entry["fixed_exponent"] == -0.5

    def test_out_of_range_grid_is_a_usage_error(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["scaling", cfg, "--q-grid", "0.99", "--out", str(tmp_path)]) == 2
        # a repeated entry would leave the exponent fit rank-deficient
        assert main(["scaling", cfg, "--q-grid", "0.1,0.1,0.1", "--kind", "erasure",
                     "--out", str(tmp_path)]) == 2
        assert "distinct" in capsys.readouterr().err
        assert list(tmp_path.glob("scaling*")) == []


class TestOptimizeCommand:
    def test_closed_form_optima_in_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["optimize", "--gamma", "1.0", "--dead-time-grid", "0",
                     "--out", str(out)]) == 0
        rows = (out / "optimize.csv").read_text().strip().splitlines()
        assert rows[0] == "T_d,T_c_star_depolarizing,T_c_star_erasure,gain"
        t_d, t_dep, t_era, gain = map(float, rows[1].split(","))
        assert t_d == 0.0
        assert t_dep == pytest.approx(0.5, abs=1e-8)
        assert t_era == pytest.approx(1.0, abs=1e-8)
        assert gain == pytest.approx(1.414214, abs=1e-6)

    def test_gain_grows_with_dead_time(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["optimize", "--gamma", "2.0", "--dead-time-grid",
                     "0,0.5,50,500", "--out", str(out)]) == 0
        rows = (out / "optimize.csv").read_text().strip().splitlines()[1:]
        gains = [float(r.split(",")[3]) for r in rows]
        assert gains == sorted(gains)
        # dead time of a hundred interrogation lifetimes: essentially saturated
        assert 1.9 <= gains[2] <= 2.0
        assert gains[-1] == pytest.approx(2.0, rel=0.01)

    def test_non_positive_gamma_is_a_usage_error(self, tmp_path, capsys):
        assert main(["optimize", "--gamma", "0", "--out", str(tmp_path)]) == 2


class TestAllanCommand:
    def test_series_file_to_deviation_json(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        path = tmp_path / "y.txt"
        np.savetxt(path, rng.normal(size=800))
        out = tmp_path / "a"
        assert main(["allan", str(path), "--cycle-time", "2.0", "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["taus"][0] == 2.0
        on_disk = json.loads((out / "allan.json").read_text())
        assert on_disk == payload
        assert len(payload["sigmas"]) == len(payload["taus"]) == len(payload["errors"])

    def test_cycle_time_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["allan", "whatever.txt"])

    def test_unreadable_series_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-number\n")
        assert main(["allan", str(path), "--cycle-time", "1", "--out", str(tmp_path)]) == 2

    def test_infinite_sample_is_a_usage_error(self, tmp_path, capsys):
        # 1e400 parses to inf; an infinite sample is not a NaN gap to drop
        rng = np.random.default_rng(4)
        path = tmp_path / "y.txt"
        path.write_text("".join(f"{v!r}\n" for v in rng.normal(size=50).tolist())
                        + "inf\n-inf\n1e400\n")
        out = tmp_path / "a"
        assert main(["allan", str(path), "--cycle-time", "1", "--out", str(out)]) == 2
        assert "series holds an infinite value" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# Input files the usage-error cases read, written into each test's working
# directory; "missing.*" names a file that does not exist.
USAGE_INPUTS = {
    "not_json.json": "{",
    "series.txt": "".join(f"{v}\n" for v in range(8)),
    "empty.csv": "",
    "header_only.csv": "x_a,x_b\n",
    "three_columns.csv": "x_a,x_b\n" + "0.1,0.2,0.3\n" * 8,
    "non_numeric.csv": "x_a,x_b\n" + "0.1,abc\n" * 8,
}


def exit_code(argv):
    """main's return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestNonFiniteAndNonPositiveNumbers:
    @pytest.mark.parametrize("argv", [
        ["optimize", "--gamma", "nan"],
        ["optimize", "--gamma", "abc"],
        ["simulate", EXAMPLE_CONFIG, "--window", "x"],
        ["optimize", "--gamma", "1.0", "--dead-time-grid", "0,nan"],
        ["optimize", "--gamma", "1.0", "--dead-time-grid", "0,inf"],
        ["fisher", "depolarizing", "-q", "0.1", "--phi", "nan"],
        ["simulate", EXAMPLE_CONFIG, "--threads", "0"],
        ["simulate", EXAMPLE_CONFIG, "--threads", "-3"],
        ["optimize", "--gamma", "1e-310"],
        ["optimize", "--gamma", "1e308", "--dead-time-grid", "0,10"],
        ["scaling", EXAMPLE_CONFIG, "--kind", "dephasing"],
        ["simulate", "missing.json"],
        ["simulate", "not_json.json"],
        ["scaling", EXAMPLE_CONFIG, "--q-grid", "abc"],
        ["scaling", EXAMPLE_CONFIG, "--q-grid", ","],
        ["optimize", "--gamma", "1.0", "--dead-time-grid", "-1"],
        ["allan", "series.txt", "--cycle-time", "0"],
        ["allan", "missing.txt", "--cycle-time", "1"],
        ["ellipse", "empty.csv"],
        ["ellipse", "header_only.csv"],
        ["ellipse", "three_columns.csv"],
        ["ellipse", "non_numeric.csv"],
    ], ids=["gamma-nan", "gamma-not-a-number", "window-not-an-integer",
            "dead-time-nan", "dead-time-inf", "phi-nan",
            "threads-zero", "threads-negative", "gamma-subnormal",
            "sigma-overflow", "scaling-dephasing", "config-unreadable",
            "config-not-json", "q-grid-not-numbers", "q-grid-empty",
            "dead-time-negative", "cycle-time-zero", "series-unreadable",
            "pairs-empty", "pairs-header-only", "pairs-three-columns",
            "pairs-non-numeric"])
    def test_rejected_as_usage_error(self, argv, tmp_path, capsys):
        for name, text in USAGE_INPUTS.items():
            (tmp_path / name).write_text(text)
        assert exit_code(argv + ["--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.glob("*_manifest.json")) == []

    @pytest.mark.parametrize("argv, overrides, named", [
        (["simulate"], {"T_c": 1e200, "f0": 1e200}, "T_c*f0"),
        (["simulate"], {"T_c": 5e-324, "f0": 1e-300}, "T_c*f0"),
        (["simulate", "--window", "10"], {"T_d": 1e307}, "float range"),
        (["scaling", "--q-grid", "0,0.3,0.6"], {"shot_noise": False}, "shot_noise"),
    ], ids=["frequency-underflow", "frequency-overflow", "tau-overflow", "scaling-noiseless"])
    def test_results_past_the_float_range(self, argv, overrides, named, tmp_path, capsys):
        # a deviation or averaging time that no float holds, or a scaling
        # curve of rounding, is a usage error and writes nothing
        out = tmp_path / "run"
        cfg = small_config(tmp_path, **overrides)
        assert main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [["simulate"], ["scaling", "--q-grid", "0"]])
    @pytest.mark.parametrize("window", [5, 100_000])
    def test_window_that_does_not_suit_the_run(self, command, window, tmp_path, capsys):
        # a window below a conic's six cycles, or one that leaves fewer than
        # the four windows an Allan deviation needs, is refused before the
        # 300 000 cycles are simulated
        out = tmp_path / "run"
        cfg = small_config(tmp_path, cycles=300_000)
        argv = [command[0], cfg, *command[1:], "--window", str(window), "--out", str(out)]
        assert main(argv) == 2
        assert f"window {window} over 300000 cycles" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_nan_dead_time_in_config(self, tmp_path, capsys):
        # JSON's NaN and Infinity literals parse; the run must stop before
        # simulating, as it must for an N0 past the survivor draw's int64,
        # for an integer literal too large for a float and for more cycles
        # than one spawn word can index
        cases = (("T_d", float("nan")), ("T_c", math.inf), ("T_d", math.inf),
                 ("f0", math.inf), ("N0", 2**63), ("f0", 10**400),
                 ("cycles", 2**32 + 1))
        for k, (field, value) in enumerate(cases):
            out = tmp_path / f"run{k}"
            cfg = small_config(tmp_path, **{field: value})
            assert exit_code(["simulate", cfg, "--out", str(out)]) == 2
            assert field in capsys.readouterr().err
            assert list(out.iterdir()) == []


class TestCommonBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("module", ["erasure_sensing", "erasure_sensing.cli"])
    def test_module_entry_points(self, module, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", module, "--version"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"erasure-sensing {__version__}\n"

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_output_dir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ERASURE_SENSING_OUT", str(tmp_path / "env"))
        assert main(["optimize", "--gamma", "1.0", "--dead-time-grid", "0"]) == 0
        assert (tmp_path / "env" / "optimize.csv").exists()

    def test_out_flag_beats_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ERASURE_SENSING_OUT", str(tmp_path / "env"))
        assert main(["optimize", "--gamma", "1.0", "--dead-time-grid", "0",
                     "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "optimize.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_manifest_records_command_and_version(self, tmp_path, capsys):
        assert main(["optimize", "--gamma", "1.0", "--dead-time-grid", "0",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "optimize_manifest.json").read_text())
        assert manifest["command"] == "optimize"
        assert manifest["version"] == __version__
        assert manifest["seed"] is None
        assert manifest["duration_seconds"] >= 0.0


# Every legal input to the config commands, with runs kept small (at most
# 200 atoms and 1200 cycles). Each number is drawn from an ordinary range or
# from its whole legal range, extremes included, so that both reach the
# analysis.
POSITIVE = st.floats(1e-3, 1e3) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(0.0, 1e3) | st.floats(min_value=0.0, allow_infinity=False)
CONTRAST = st.floats(0.3, 1.0) | st.floats(0.0, 1.0)


@st.composite
def cli_runs(draw):
    """(input files, argv) of one `simulate`, `scaling` or `allan` run."""
    noise = {"kind": draw(st.sampled_from(["erasure", "depolarizing", "dephasing"]))}
    if draw(st.booleans()):
        noise["q"] = draw(st.floats(0.0, 0.4) | st.floats(0.0, 1.0))
    else:
        noise["gamma"] = draw(NON_NEGATIVE)
    config = {
        "phi_d": draw(st.floats(0.3, 2.8) | st.floats(0.0, math.pi)),
        "N0": draw(st.integers(50, 200) | st.integers(1, 200)),
        "T_c": draw(POSITIVE),
        "T_d": draw(NON_NEGATIVE),
        "f0": draw(POSITIVE),
        "cycles": draw(st.integers(300, 1200) | st.integers(1, 1200)),
        "noise": noise,
        "c_a": draw(CONTRAST),
        "c_b": draw(CONTRAST),
        "laser_phase_model": draw(st.sampled_from(["UniformRandomPerCycle", "FixedSweep"])),
        "seed": draw(st.integers(0, 2**64 - 1)),
        # True first: Hypothesis draws the first value more often
        "shot_noise": draw(st.sampled_from([True, False])),
    }
    ordinary = st.integers(6, max(6, config["cycles"] // 4))
    window = ["--window", str(draw(ordinary | st.integers(1, 1200)))]
    command = draw(st.sampled_from(["simulate", "scaling", "allan"]))
    if command == "simulate":
        return {"config.json": json.dumps(config)}, ["simulate", "config.json"] + window
    if command == "scaling":
        grid = draw(st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3, unique=True))
        kind = draw(st.sampled_from(["both", "erasure", "depolarizing"]))
        return {"config.json": json.dumps(config)}, [
            "scaling", "config.json", "--q-grid", ",".join(map(repr, grid)), "--kind", kind
        ] + window
    sample = st.floats(-1e3, 1e3) | st.floats()
    series = draw(st.lists(sample, min_size=4, max_size=60) | st.lists(sample, max_size=6))
    return {"series.txt": "".join(f"{v!r}\n" for v in series)}, [
        "allan", "series.txt", "--cycle-time", repr(draw(POSITIVE))
    ]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def point_runs(draw):
    """argv of one `fisher` or `optimize` run. Each number is passed as
    --flag=value, since argparse reads a separate "-1e-3" as an option;
    the argparse-typed flags take finite numbers, the dead-time grid any."""
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["erasure", "depolarizing", "dephasing"]))
        angle = st.floats(-10.0, 10.0) | FINITE
        numeric = ["--numeric"] if draw(st.booleans()) else []
        return {}, ["fisher", kind, f"--q={draw(st.floats(0.0, 1.0) | FINITE)!r}",
                    f"--phi={draw(angle)!r}", f"--theta={draw(angle)!r}"] + numeric
    grid = draw(st.lists(st.floats(0.0, 1e3) | st.floats(), min_size=1, max_size=4))
    return {}, ["optimize", f"--gamma={draw(POSITIVE | FINITE)!r}",
                "--dead-time-grid=" + ",".join(map(repr, grid))]


@st.composite
def pair_runs(draw):
    """(input files, argv) of one `ellipse` run: shot-noise fractions, points
    on a line or on a four-point pencil, offset and scaled by any finite
    floats (a product past the float range is written as inf)."""
    n = draw(st.integers(6, 60) | st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["fractions", "line", "pencil"]))
    if shape == "fractions":
        n_atoms = draw(st.integers(20, 3000) | st.integers(1, 10**6))
        t = rng.uniform(0.0, 2.0 * math.pi, n)
        phi = draw(st.floats(0.3, 2.8) | st.floats(0.0, math.pi))
        fringes = [(1.0 + draw(CONTRAST) * np.cos(t + shift)) / 2.0 for shift in (0.0, phi)]
        pts = rng.binomial(n_atoms, np.column_stack(fringes)) / n_atoms
    elif shape == "line":
        t = rng.uniform(0.0, 1.0, n)
        pts = np.column_stack([t, 2.0 * t + 0.1])
    else:
        corners = np.array([[0.2, 0.3], [0.7, 0.1], [0.9, 0.8], [0.1, 0.6]])
        pts = corners[np.arange(n) % 4]
    offset = draw(st.floats(-1e6, 1e6) | FINITE)
    scale = draw(st.floats(1e-6, 1e6) | FINITE)
    with np.errstate(over="ignore"):
        pts = (pts + offset) * scale
    rows = "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist())
    return {"pairs.csv": "x_a,x_b\n" + rows}, ["ellipse", "pairs.csv"]


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON number {name}")


def check_exit_contract(files, argv, workdir: Path):
    """Run main in process. It must return, not raise: 0 with only finite
    numbers on stdout and in the output files (NaN only as a phases.csv
    gap; `ellipse` prints its file), or 2, 3, 4 or 5 with `error:` on
    stderr and no output file."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / arg) if arg in files else arg for arg in argv]
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(out)])
    written = sorted(out.iterdir())
    if code != 0:
        assert code in (2, 3, 4, 5)
        assert stderr.getvalue().startswith("error:")
        assert written == []
        return
    for token in stdout.getvalue().translate(str.maketrans(",[]{}:", "      ")).split():
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), token
    if argv[0] == "ellipse":
        assert stdout.getvalue() == (out / "ellipse.json").read_text()
    for path in written:
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
            continue
        for row in text.splitlines()[1:]:
            fields = row.split(",")
            if path.name == "phases.csv":
                fields = fields[:1]
            assert all(math.isfinite(float(v)) for v in fields), (path.name, row)


class TestExitCodeContract:
    # about 15 ms an example: 100 keep the test near 1.5 s
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(run=cli_runs())
    def test_every_legal_run_exits_by_the_table(self, run):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
            check_exit_contract(*run, Path(workdir))

    # about 8 ms an example: 120 keep the test near 1 s
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(run=point_runs())
    def test_every_fisher_and_optimize_run_exits_by_the_table(self, run):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
            check_exit_contract(*run, Path(workdir))

    # about 12 ms an example: 120 keep the test near 1.5 s
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(run=pair_runs())
    def test_every_ellipse_run_exits_by_the_table(self, run):
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
            check_exit_contract(*run, Path(workdir))
