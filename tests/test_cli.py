import contextlib
import io
import json
import math
import re
import shlex
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflow.analysis import SweepSpec, run_sweep
from qflow.cli import RunConfig, main
from qflow.geomphase import figure_value, gp_mixed_auto
from qflow.qstate import InitialStateSpec, initial_state

README = Path(__file__).resolve().parents[1] / "README.md"


def usage_error(argv, capsys) -> str:
    """argparse's message for ``argv``, which must exit 2 before any subcommand runs."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def help_text(command, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, rows


class TestSimulate:
    def test_first_row_matches_initial_state(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--W", "1", "--lambda", "10", "--z", "0.5",
                     "--vartheta0", "0.7853981633974483", "--varphi0", "1.0471975511965976",
                     "--samples", "41", "--out", str(out)]) == 0
        meta, cols, rows = read_csv(out)
        assert meta["model"] == "time-local"
        first = dict(zip(cols, rows[0]))
        rho0 = initial_state(InitialStateSpec(0.5, math.pi / 4, math.pi / 3))
        assert first["t"] == 0.0
        assert first["rho00_re"] == pytest.approx(rho0.matrix[0, 0].real, abs=1e-16)
        assert first["rho01_re"] == pytest.approx(rho0.matrix[0, 1].real, abs=1e-16)
        assert first["rho01_im"] == pytest.approx(rho0.matrix[0, 1].imag, abs=1e-16)
        assert first["amp"] == 1.0
        assert first["pos_ok"] == 1.0

    def test_round_trip_is_exact(self, tmp_path):
        from qflow.channels import TimeLocalModel, TimeLocalParams

        out = tmp_path / "traj.csv"
        main(["simulate", "--W", "0.5", "--lambda", "1.3", "--z", "0.8",
              "--vartheta0", "0.6", "--varphi0", "0.9", "--samples", "17",
              "--out", str(out)])
        _, cols, rows = read_csv(out)
        model = TimeLocalModel(TimeLocalParams(0.5, 1.3, 1.0))
        rho0 = initial_state(InitialStateSpec(0.8, 0.6, 0.9))
        times = np.linspace(0.0, 2.0 * math.pi, 17)
        states = model.states(rho0, times)
        # 17 significant digits round-trip doubles bit-exactly
        for k, row in enumerate(rows):
            vals = dict(zip(cols, row))
            assert vals["t"] == times[k]
            assert vals["rho00_re"] == states[k, 0, 0].real
            assert vals["rho01_re"] == states[k, 0, 1].real
            assert vals["rho01_im"] == states[k, 0, 1].imag

    def test_memory_kernel_positivity_flag(self, tmp_path):
        out = tmp_path / "mk.csv"
        assert main(["simulate", "--model", "memory-kernel", "--gamma0", "1",
                     "--gamma", "1", "--z", "1", "--vartheta0", "0",
                     "--t-end", "10", "--samples", "101", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        flags = [r[cols.index("pos_ok")] for r in rows]
        assert 0.0 in flags and flags[0] == 1.0
        assert all(math.isnan(r[cols.index("gamma")]) for r in rows)

    def test_pole_gives_exit_code_3(self, tmp_path, capsys):
        # W = 2, lambda = 1: c vanishes inside one quasi-period and the rate
        # columns hit the pole when a sample lands on it
        t_zero = 2.0 * (math.pi - math.atan2(math.sqrt(15), 1.0)) / math.sqrt(15)
        code = main(["simulate", "--W", "2", "--lambda", "1",
                     "--t-end", f"{2 * t_zero:.17g}", "--samples", "3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "simulate" in capsys.readouterr().err


class TestFlows:
    def test_csv_columns_and_meta(self, tmp_path):
        out = tmp_path / "flows.csv"
        assert main(["flows", "--W", "1", "--lambda", "0.5", "--out", str(out)]) == 0
        meta, cols, rows = read_csv(out)
        assert cols == ["t", "D", "sigma", "N", "M"]
        assert float(meta["N_total"]) > 0.01
        assert meta["positivity_ok"] == "True"
        # ledger identity holds on the serialised series
        for r in rows[:: len(rows) // 7]:
            assert abs(r[1] - rows[0][1] - r[3] + r[4]) < 1e-8


    def test_boundary_search_counts_in_meta(self, tmp_path):
        # a fig5 state (W = 10, z = 0.75, vartheta0 = pi/4, varphi0 = pi/3) at R = 2
        out = tmp_path / "flows.csv"
        assert main(["flows", "--W", "10", "--lambda", "5", "--z", "0.75",
                     "--vartheta0", f"{math.pi / 4:.17g}", "--varphi0", f"{math.pi / 3:.17g}",
                     "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert 0 < int(meta["brackets"]) <= int(meta["segments"]) - 1
        assert int(meta["bisect_rounds"]) > 0


class TestGp:
    def test_closed_system_value(self, tmp_path):
        out = tmp_path / "gp.csv"
        assert main(["gp", "--model", "time-local", "--W", "0", "--z", "1",
                     "--vartheta0", "0.7854", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        val = dict(zip(cols, rows[0]))
        assert abs(val["phase_mod"] + math.pi) < 1e-3
        assert val["converged"] == 1.0

    def test_degrees_flag(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gp", "--W", "0", "--z", "1", "--vartheta0", "45", "--degrees",
              "--out", str(a)])
        main(["gp", "--W", "0", "--z", "1", "--vartheta0", f"{math.pi / 4:.17g}",
              "--out", str(b)])
        _, cols, ra = read_csv(a)
        _, _, rb = read_csv(b)
        assert ra[0][cols.index("phase_mod")] == pytest.approx(
            rb[0][cols.index("phase_mod")], abs=1e-12
        )

    def test_degeneracy_gives_exit_code_3(self, tmp_path, capsys):
        code = main(["gp", "--W", "10", "--lambda", "20", "--z", "0.5",
                     "--vartheta0", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "gp" in capsys.readouterr().err

    @pytest.mark.parametrize("model,ratio", [("time-local", 0.7), ("memory-kernel", 0.15)])
    def test_same_phase_as_a_sweep_cell(self, tmp_path, model, ratio):
        # literal: the sweep's cell at the same ratio; spectral: the sampled ladder
        spec = SweepSpec(model=model, start=ratio, stop=2.0 * ratio, steps=2, W=1.0,
                         z_list=(0.5,), vartheta0_list=(0.6,), varphi0=0.3,
                         outputs=("phase",))
        p = spec.params_at(ratio)
        flags = (["--W", repr(p.W), "--lambda", repr(p.lam)] if model == "time-local"
                 else ["--gamma0", repr(p.gamma0), "--gamma", repr(p.gamma)])
        args = ["gp", "--model", model, *flags, "--z", "0.5", "--vartheta0", "0.6",
                "--varphi0", "0.3"]
        phases = ("phase_raw", "phase_mod", "phase_pi")
        out = tmp_path / "gp.csv"
        assert main([*args, "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert [rows[0][cols.index(k)] for k in phases] == list(run_sweep(spec).rows[0][1:])
        assert main([*args, "--mode", "spectral", "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        ladder = gp_mixed_auto(spec.model_at(ratio), initial_state(spec.states()[0][1]),
                               spec.horizon(), mode="spectral")
        assert [rows[0][cols.index(k)] for k in (*phases, "n_samples", "step_change")] == [
            ladder.phase_raw, ladder.phase, figure_value(ladder.phase) / math.pi,
            ladder.n_samples, ladder.step_change]


class TestSweep:
    def test_fig1_preset_has_four_phase_series(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["sweep", "--figure", "fig1", "--R-min", "0.4", "--R-max", "0.8",
                     "--R-steps", "3", "--out", str(out)]) == 0
        meta, cols, rows = read_csv(out)
        assert len([c for c in cols if c.startswith("phase_pi")]) == 4
        assert len(rows) == 3
        assert meta["sweep_label"] == "fig1"
        assert meta["sweep_unconverged_phases"] == "0"
        # in units of pi, near the 2 pi branch for weak coupling
        pi_cols = [i for i, c in enumerate(cols) if c.startswith("phase_pi")]
        assert all(0.0 <= rows[0][i] < 2.0 for i in pi_cols)

    def test_manual_sweep_memory_kernel(self, tmp_path):
        out = tmp_path / "mk.csv"
        assert main(["sweep", "--model", "memory-kernel", "--C-min", "0.05",
                     "--C-max", "0.2", "--C-steps", "2", "--z", "0.5",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols[0] == "C"
        assert len(rows) == 2

    def test_json_format(self, tmp_path):
        out = tmp_path / "fig9.json"
        assert main(["sweep", "--figure", "fig9", "--C-steps", "3", "--format", "json",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"meta", "columns", "rows"}
        assert len(data["rows"]) == 3


class TestCritical:
    def test_acceptance_point(self, tmp_path):
        out = tmp_path / "crit.csv"
        assert main(["critical", "--W", "0.6", "--vartheta0", "1.0471975511965976",
                     "--z", "1", "--R-min", "0.4", "--R-max", "1.0", "--R-steps", "31",
                     "--out", str(out)]) == 0
        _, cols, rows = read_csv(out)
        report = dict(zip(cols, rows[0]))
        assert 0.64 < report["R_star"] < 0.67
        assert report["dD_residual"] < 1e-6
        assert report["dA_residual"] < 1e-6
        assert report["onset_matches_m_flat"] == 1.0

    def test_no_bracket_exit_3(self, tmp_path, capsys):
        code = main(["critical", "--W", "0.1", "--R-min", "0.05", "--R-max", "0.2",
                     "--R-steps", "10", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "no sign change" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1", "2"])
    def test_too_few_steps_exit_2(self, tmp_path, capsys, steps):
        code = main(["critical", "--W", "0.6", "--R-min", "0.4", "--R-max", "1.0",
                     "--R-steps", steps, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "steps >= 3" in capsys.readouterr().err


class TestConfigHandling:
    def test_config_file_merging_flags_win(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"W": 0.3, "z": 1.0, "vartheta0": math.pi / 4}))
        out = tmp_path / "out.csv"
        assert main(["gp", "--config", str(cfg), "--W", "0", "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert float(meta["W"]) == 0.0  # flag overrode the file
        assert float(meta["z"]) == 1.0  # file value survived

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"W": 0.3, "coupling_strengthh": 1.0}))
        assert main(["gp", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_z_exit_2(self, tmp_path, capsys):
        assert main(["gp", "--z", "1.5", "--out", str(tmp_path / "x.csv")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "flows", "gp", "critical"])
    def test_negative_horizon_exit_2(self, tmp_path, capsys, command):
        code = main([command, "--t-end", "-1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "t_end=-1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "flows", "gp", "sweep", "critical"])
    def test_no_quasi_periods_exit_2(self, tmp_path, capsys, command):
        code = main([command, "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "n=0 must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sweep_rejects_a_horizon(self, tmp_path, capsys, source):
        # sweep has no --t-end flag, and a config key meets the unread-setting check
        out = ["--R-steps", "3", "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            err = usage_error(["sweep", "--t-end", "3", *out], capsys)
            assert err.endswith("error: unrecognized arguments: --t-end 3\n")
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"t_end": 3.0}))
            assert main(["sweep", "--config", str(cfg), *out]) == 2
            assert ("sweep --model time-local does not read t_end (given t_end=3.0)"
                    in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    def test_zero_horizon_means_n_quasi_periods(self, tmp_path):
        out = tmp_path / "flows.csv"
        assert main(["flows", "--t-end", "0", "--n", "2", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert rows[-1][0] == 4.0 * math.pi

    def test_unknown_model_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "foo"}))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown model 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [["time-local"], {}])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unhashable_model_in_config_exit_2(self, tmp_path, capsys, command, model):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "unknown model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value,kind", [
        ("gp", "W", "abc", "a number"),
        ("simulate", "samples", 3.5, "an integer"),
        ("gp", "n", True, "an integer"),
        ("gp", "tol", False, "a number"),
        ("gp", "mode", 1, "a string"),
        ("gp", "degrees", 1, "true or false"),
    ])
    def test_config_value_of_the_wrong_type_exit_2(self, tmp_path, capsys, command, key,
                                                   value, kind):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key {key} needs {kind}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_integer_for_a_float_setting(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"W": 0, "lam": 2}))
        out = tmp_path / "x.csv"
        assert main(["gp", "--config", str(cfg), "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert (meta["W"], meta["lam"]) == ("0", "2")

    def test_unknown_preset_exit_2(self, tmp_path):
        assert main(["sweep", "--figure", "fig99", "--out", str(tmp_path / "x.csv")]) == 2

    def test_help_documents_every_flag(self, capsys):
        text = help_text("gp", capsys)
        for flag in ("--config", "--model", "--W", "--lambda", "--omega0", "--gamma0",
                     "--gamma", "--z", "--vartheta0", "--varphi0", "--n", "--mode", "--out",
                     "--format", "--tol", "--degrees", "--t-end"):
            assert flag in text
        assert "phase convergence tolerance (default 1e-06)" in " ".join(text.split())

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "qflow" in capsys.readouterr().out

    def test_config_file_cannot_pick_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": "flows"}))
        assert main(["gp", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown config keys: ['command']" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_preset_range_from_config_file(self, tmp_path):
        # the preset supplies the defaults of its axis, and a file value wins like a flag
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"R_steps": 2}))
        out = tmp_path / "nm.csv"
        assert main(["sweep", "--figure", "appendix-nm", "--config", str(cfg),
                     "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert [r[0] for r in rows] == [0.3, 1.2]
        assert (meta["R_min"], meta["R_max"], meta["R_steps"]) == (
            "0.29999999999999999", "1.2", "2")


SETTINGS = [f.name for f in fields(RunConfig) if f.name != "command"]
STATE = {"z", "vartheta0", "varphi0", "degrees"}
CRITICAL_ARGV = ["critical", "--W", "0.6", "--vartheta0", "1.0471975511965976", "--z", "1",
                 "--R-min", "0.4", "--R-max", "1.0", "--R-steps", "31"]

# case: (a cheap run, the settings it reads besides format); out is not a setting
READS = {
    "simulate": (["simulate", "--samples", "3"],
                 {"model", "W", "lam", "omega0", *STATE, "t_end", "n", "samples"}),
    "simulate-mk": (["simulate", "--model", "memory-kernel", "--samples", "3"],
                    {"model", "gamma0", "gamma", "omega0", *STATE, "t_end", "n", "samples"}),
    "flows": (["flows"], {"model", "W", "lam", "omega0", *STATE, "t_end", "n"}),
    "flows-mk": (["flows", "--model", "memory-kernel"],
                 {"model", "gamma0", "gamma", "omega0", *STATE, "t_end", "n"}),
    "gp": (["gp"], {"model", "W", "lam", "omega0", *STATE, "t_end", "n", "mode", "tol"}),
    "gp-mk": (["gp", "--model", "memory-kernel"],
              {"model", "gamma0", "gamma", "omega0", *STATE, "t_end", "n", "mode", "tol"}),
    "sweep": (["sweep", "--R-steps", "2"],
              {"figure", "model", "W", "omega0", *STATE, "n", "R_min", "R_max", "R_steps",
               "mode", "tol"}),
    "sweep-mk": (["sweep", "--model", "memory-kernel", "--C-steps", "2"],
                 {"figure", "model", "gamma0", "omega0", *STATE, "n", "C_min", "C_max",
                  "C_steps", "mode", "tol"}),
    "sweep-fig1": (["sweep", "--figure", "fig1", "--R-steps", "2"],
                   {"figure", "n", "R_min", "R_max", "R_steps", "mode", "tol"}),
    "sweep-fig9": (["sweep", "--figure", "fig9", "--C-steps", "2"],
                   {"figure", "n", "C_min", "C_max", "C_steps", "mode", "tol"}),
    "critical": (CRITICAL_ARGV,
                 {"W", "omega0", *STATE, "t_end", "n", "R_min", "R_max", "R_steps"}),
}

# a valid value of every setting: (flag arguments, config file value)
VALUES = {
    "model": (["--model", "time-local"], "time-local"),
    "W": (["--W", "0.5"], 0.5),
    "lam": (["--lambda", "2"], 2.0),
    "omega0": (["--omega0", "1.5"], 1.5),
    "gamma0": (["--gamma0", "5"], 5.0),
    "gamma": (["--gamma", "2"], 2.0),
    "z": (["--z", "0.5"], 0.5),
    "vartheta0": (["--vartheta0", "0.3"], 0.3),
    "varphi0": (["--varphi0", "0.2"], 0.2),
    "n": (["--n", "2"], 2),
    "R_min": (["--R-min", "0.2"], 0.2),
    "R_max": (["--R-max", "2"], 2.0),
    "R_steps": (["--R-steps", "3"], 3),
    "C_min": (["--C-min", "0.02"], 0.02),
    "C_max": (["--C-max", "0.2"], 0.2),
    "C_steps": (["--C-steps", "3"], 3),
    "figure": (["--figure", "fig1"], "fig1"),
    "mode": (["--mode", "spectral"], "spectral"),
    "format": (["--format", "json"], "json"),
    "tol": (["--tol", "1e-5"], 1e-5),
    "degrees": (["--degrees"], True),
    "t_end": (["--t-end", "3"], 3.0),
    "samples": (["--samples", "11"], 11),
}

# the settings a subcommand can read under some model or preset: its flags
READABLE: dict[str, set[str]] = {}
for argv, reads in READS.values():
    READABLE.setdefault(argv[0], {"format", "out"}).update(reads)

UNREAD = [
    (case, name)
    for case, (_, reads) in READS.items()
    for name in SETTINGS
    if name not in reads | {"format", "out"}
]


FLOAT_SETTINGS = [f.name for f in fields(RunConfig) if f.type == "float"]
# a run that reads each float setting
READER = {name: next(case for case in ("gp", "gp-mk", "sweep", "sweep-mk")
                     if name in READS[case][1]) for name in FLOAT_SETTINGS}


class TestNonFiniteSettings:
    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(FLOAT_SETTINGS),
           value=st.sampled_from([math.nan, math.inf, -math.inf]),
           source=st.sampled_from(["flag", "config"]))
    def test_rejected(self, name, value, source):
        argv, _ = READS[READER[name]]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "x.csv"
            if source == "flag":
                extra = [f"{VALUES[name][0][0]}={value}"]
            else:  # json writes NaN, Infinity and -Infinity, and reads them back
                cfg = Path(tmp) / "run.json"
                cfg.write_text(json.dumps({name: value}))
                extra = ["--config", str(cfg)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*argv, *extra, "--out", str(out)])
            assert code == 2
            assert f"configuration error: setting {name}={value} must be finite" in err.getvalue()
            assert not out.exists()


class TestSettingsRead:
    def test_every_setting_has_a_value(self):
        assert set(VALUES) == set(SETTINGS) - {"out"}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("case,name", UNREAD)
    def test_unread_setting_exit_2(self, tmp_path, capsys, case, name, source):
        argv, _ = READS[case]
        flag, value = VALUES[name]
        out = tmp_path / "x.csv"
        if source == "flag":
            extra = flag
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({name: value}))
            extra = ["--config", str(cfg)]
        if source == "flag" and name not in READABLE[argv[0]]:
            # no model or preset lets the subcommand read it: it has no such flag
            err = usage_error([*argv, *extra, "--out", str(out)], capsys)
            assert err.endswith(f"error: unrecognized arguments: {' '.join(flag)}\n")
        else:
            assert main([*argv, *extra, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"qflow: configuration error: {argv[0]}")
            assert f" does not read {name} (given {name}=" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(READABLE))
    def test_flags_are_the_readable_settings(self, capsys, command):
        flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", help_text(command, capsys)))
        assert flags == {VALUES[name][0][0] for name in READABLE[command] - {"out"}} | {
            "--out", "--config", "--help"}

    @pytest.mark.parametrize("case", sorted(READS))
    def test_preamble_echoes_what_was_read(self, tmp_path, case):
        argv, reads = READS[case]
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert list(meta)[:2] == ["artifact_version", "command"]
        assert {k for k in meta if k in SETTINGS} == reads | {"format"}

    def test_critical_reads_no_model(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        err = usage_error(["critical", "--model", "memory-kernel", "--gamma0", "5",
                           "--out", str(out)], capsys)
        assert err.endswith("error: unrecognized arguments: --model memory-kernel --gamma0 5\n")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "memory-kernel", "gamma0": 5.0}))
        assert main(["critical", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("critical does not read model, gamma0 (given model=memory-kernel, gamma0=5.0)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_preset_sweep_reads_no_state(self, tmp_path, capsys):
        # a manual sweep reads W and z, so only the preset rejects them; no sweep reads lam
        out = tmp_path / "x.csv"
        argv = ["sweep", "--figure", "fig9", "--W", "3", "--z", "0.1", "--out", str(out)]
        err = usage_error([*argv, "--lambda", "7"], capsys)
        assert err.endswith("error: unrecognized arguments: --lambda 7\n")
        assert main(argv) == 2
        assert ("sweep --figure fig9 does not read W, z (given W=3.0, z=0.1)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unread_flag_shows_the_subcommand_usage(self, tmp_path, capsys):
        # the usage line above the error lists the flags sweep does accept
        out = tmp_path / "x.csv"
        err = usage_error(["sweep", "--lambda", "7", "--out", str(out)], capsys)
        assert err.startswith("usage: qflow sweep ")
        assert err.endswith("qflow sweep: error: unrecognized arguments: --lambda 7\n")
        assert not out.exists()


def readme_commands():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qflow ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_example_runs(tmp_path, argv):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0


class TestDeterminism:
    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["flows", "--W", "1", "--lambda", "1", "--z", "0.75"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_output(self, capsys):
        assert main(["gp", "--W", "0", "--z", "1", "--vartheta0", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# artifact_version=")
        assert "phase_raw" in out
