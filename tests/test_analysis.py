import importlib.util
import itertools
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

from qflow import analysis, channels
from qflow.analysis import (
    PRESET_NAMES,
    SweepSpec,
    critical_point,
    figure_preset,
    integrand_A_from_model,
    run_sweep,
)
from qflow.channels import MemoryKernelParams, TimeLocalModel, TimeLocalParams, abs_c_squared
from qflow.errors import BracketError, ConfigError, DegenerateStateError, NumericalError
from qflow.geomphase import gp_mixed_auto, gp_pure, gp_route
from qflow.infoflow import blp_measure, flows
from qflow.qstate import DensityMatrix, InitialStateSpec, bloch_trace_distance, initial_state

T = 2.0 * math.pi
# valid values of every float setting of the library's parameter classes
VALID_SETTINGS = {
    TimeLocalParams: dict(W=0.1, lam=1.0, omega0=1.0),
    MemoryKernelParams: dict(gamma0=0.1, gamma=1.0, omega0=1.0),
    InitialStateSpec: dict(z=0.5, vartheta0=0.3, varphi0=0.2),
    SweepSpec: dict(start=0.1, stop=1.0, W=0.1, gamma0=0.1, omega0=1.0, varphi0=0.2,
                    tol=1e-6, z_list=(0.5, 1.0), vartheta0_list=(0.3,)),
}

_TL = TimeLocalModel(TimeLocalParams(1.0, 1.0, 1.0))
_SPEC = InitialStateSpec(0.5, 0.3, 0.2)
_RHO = initial_state(_SPEC)
_GRID = np.linspace(0.0, T, 101)
# each library entry point with one horizon, tolerance or range end given as
# the argument: (its name in the error, the call)
NON_FINITE_CALLS = {
    "sample_times": ("t_end", lambda v: channels.sample_times(_TL, v)),
    "flows": ("t_end", lambda v: flows(_RHO, _TL, v)),
    "flows-on-a-grid": ("t_end", lambda v: flows(_RHO, _TL, v, times=_GRID)),
    "blp_measure-on-a-grid": ("t_end", lambda v: blp_measure(
        _TL, [(_RHO, DensityMatrix.ground())], v, times=_GRID)),
    "gp_route-literal": ("T", lambda v: gp_route(_TL, _RHO, v)),
    "gp_route-literal-tol": ("tol", lambda v: gp_route(_TL, _RHO, T, tol=v)),
    "gp_mixed_auto-spectral": ("T", lambda v: gp_mixed_auto(_TL, _RHO, v, mode="spectral")),
    "gp_mixed_auto-spectral-tol": ("tol", lambda v: gp_mixed_auto(_TL, _RHO, T, "spectral", v)),
    "critical_point": ("T", lambda v: critical_point(v, _SPEC, _TL.params, 0.4, 1.0, 5)),
    "critical_point-r_min": ("r_min", lambda v: critical_point(T, _SPEC, _TL.params, v, 1.0, 5)),
    "critical_point-r_max": ("r_max", lambda v: critical_point(T, _SPEC, _TL.params, 0.4, v, 5)),
}


class TestIntegrandA:
    def test_closed_system_is_constant(self):
        spec = InitialStateSpec(1.0, math.pi / 6, 0.0)  # theta0 = pi/3
        p = TimeLocalParams(1e-14, 1.0, 1.0)
        model, rho0 = TimeLocalModel(p.at_ratio(1.0)), initial_state(spec)
        expected = math.cos(math.pi / 6) ** 2  # cos^2(theta0 / 2)
        for t in (0.1, 1.0, 4.0):
            assert integrand_A_from_model(t, model, rho0) == pytest.approx(expected, abs=1e-9)

    def test_integral_gives_minus_phase(self):
        # quadrature cross-check: int_0^T A dt = -Phi
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        W, R = 0.3, 0.45
        p = TimeLocalParams(W, W / R, 1.0)
        times = np.linspace(0.0, T, 2001)
        model, rho0 = TimeLocalModel(TimeLocalParams(W, 1.0, 1.0).at_ratio(R)), initial_state(spec)
        a_vals = np.array([integrand_A_from_model(t, model, rho0) for t in times])
        assert simpson(a_vals, x=times) == pytest.approx(-gp_pure(spec, p), abs=1e-6)

    def test_r_derivative_sign_matches_decay_derivative(self):
        # the prefactor relating dA/dR to d|c|^2/dR is positive
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        base = TimeLocalParams(0.6, 1.0, 1.0)
        rho0 = initial_state(spec)
        h = 1e-6

        def a_of(t, R):
            return integrand_A_from_model(t, TimeLocalModel(base.at_ratio(R)), rho0)

        for R in (0.45, 0.58, 0.75, 0.9):
            for t in (0.7 * T, T):
                da = a_of(t, R + h) - a_of(t, R - h)
                dx = float(abs_c_squared(t, TimeLocalParams(0.6, 0.6 / (R + h), 1.0))) - float(
                    abs_c_squared(t, TimeLocalParams(0.6, 0.6 / (R - h), 1.0))
                )
                if abs(dx) > 1e-12 and abs(da) > 1e-12:
                    assert math.copysign(1.0, da) == math.copysign(1.0, dx)

    def test_center_of_the_ball_is_degenerate(self):
        # the excited state passes through the center where |c|^2 = 1/2; the
        # radicand r^2 vanishes there and the integrand is undefined
        spec = InitialStateSpec(1.0, 0.0, 0.0)
        p = TimeLocalParams(0.5, 1.0, 1.0)  # R = 1/2: |c|^2 decays monotonically
        t_half = brentq(lambda t: float(abs_c_squared(t, p)) - 0.5, 0.0, 10.0, xtol=1e-15)
        with pytest.raises(DegenerateStateError):
            integrand_A_from_model(t_half, TimeLocalModel(p.at_ratio(0.5)), initial_state(spec))


class TestCriticalPoint:
    def test_acceptance_configuration(self):
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        rep = critical_point(T, spec, p, 0.4, 1.0, steps=61)
        assert 0.64 < rep.r_star < 0.67
        assert rep.df_residual < 1e-8
        assert rep.dd_residual < 1e-6
        assert rep.da_residual < 1e-6
        assert rep.onset_matches_m_flat

    def test_grid_refinement_stability(self):
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        a = critical_point(T, spec, p, 0.4, 1.0, steps=31)
        b = critical_point(T, spec, p, 0.4, 1.0, steps=61)
        assert abs(a.r_star - b.r_star) < 1e-4

    def test_no_bracket_raises(self):
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.1, 1.0, 1.0)
        with pytest.raises(BracketError):
            critical_point(T, spec, p, 0.05, 0.2, steps=16)

    def test_missing_m_collapse_raises(self):
        # R* = 0.65558 is bracketed by the last two grid points, but dM/dR
        # peaks at the first interior point and never falls below half of it
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        with pytest.raises(BracketError, match="dM/dR"):
            critical_point(T, spec, p, 0.55, 0.6561, steps=31)

    def test_bad_range_rejected(self):
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        with pytest.raises(ConfigError):
            critical_point(T, spec, p, 0.5, 0.1)

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_too_few_steps_rejected(self, steps):
        # the scales and dM/dR are centered differences at interior grid points
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        with pytest.raises(ConfigError, match="steps >= 3"):
            critical_point(T, spec, p, 0.4, 1.0, steps=steps)

    @pytest.mark.parametrize("horizon", [0.0, -T])
    def test_non_positive_horizon_rejected(self, horizon):
        spec = InitialStateSpec(1.0, math.pi / 3, 0.0)
        p = TimeLocalParams(0.6, 1.0, 1.0)
        with pytest.raises(ConfigError, match="T > 0"):
            critical_point(horizon, spec, p, 0.4, 1.0, steps=31)


class TestCriticalPointStudy:
    def test_table_distances(self, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "critical_point_study.py"
        module_spec = importlib.util.spec_from_file_location("critical_point_study", path)
        study = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(study)
        monkeypatch.setattr(sys, "argv", [str(path)])  # the defaults W = 0.6, pi/3
        study.main()
        lines = capsys.readouterr().out.splitlines()
        r_star = float(next(ln for ln in lines if ln.startswith("critical point R*")).split()[-1])
        header = next(i for i, ln in enumerate(lines) if ln.split()[:2] == ["R", "|c(T)|^2"])
        table = [[float(v) for v in ln.split()] for ln in lines[header + 1:]]
        assert len(table) == 13
        rho0 = initial_state(InitialStateSpec(1.0, math.pi / 3, 0.0))
        ground = DensityMatrix.ground().bloch().as_array()
        for row, R in zip(table, np.linspace(r_star - 0.12, r_star + 0.12, 13)):
            assert row[0] == pytest.approx(R, abs=5.1e-5)
            b = TimeLocalModel(TimeLocalParams(0.6, 1.0, 1.0).at_ratio(R)).bloch_series(rho0, T)
            assert row[2] == pytest.approx(float(bloch_trace_distance(b, ground)), abs=6e-7)


class TestSweeps:
    def test_determinism(self):
        spec = SweepSpec(start=0.2, stop=1.0, steps=4, W=0.5,
                         z_list=(1.0,), outputs=("N", "M", "D"))
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a.rows == b.rows
        assert a.columns == b.columns

    def test_phase_output_has_three_columns(self):
        spec = SweepSpec(start=0.2, stop=0.4, steps=2, W=0.1,
                         z_list=(1.0,), outputs=("phase",))
        res = run_sweep(spec)
        assert res.columns == ("R", "phase_raw[z=1;vt=0.785398]",
                               "phase_mod[z=1;vt=0.785398]", "phase_pi[z=1;vt=0.785398]")
        assert len(res.rows) == 2 and len(res.rows[0]) == 4

    def test_point_failures_are_recorded_and_sweep_continues(self):
        # z = 0.5 population state crosses the ball center under strong decay:
        # the phase column fails per-row while the run completes
        spec = SweepSpec(start=0.3, stop=0.5, steps=2, W=10.0,
                         z_list=(0.5,), vartheta0_list=(0.0,), outputs=("phase", "N"))
        res = run_sweep(spec)
        assert len(res.errors) == 2
        assert all(math.isnan(row[1]) for row in res.rows)

    def test_sample_cap_is_a_row_error(self):
        # R = 0.005 at W = 10 (lambda = 2000) needs 502,656 flow samples, above
        # the cap: row 0 records the error, row 1 (R = 0.5) runs
        spec = SweepSpec(start=0.005, stop=0.5, steps=2, W=10.0, z_list=(1.0,),
                         outputs=("N",))
        res = run_sweep(spec)
        assert [row for row, _, _ in res.errors] == [0]
        assert "needs 502656 samples" in res.errors[0][2]
        assert math.isnan(res.rows[0][1]) and math.isfinite(res.rows[1][1])

    def test_ledger_error_keeps_the_phase(self, monkeypatch):
        # a sample cap below the ledger grid fails N on both rows; the phase
        # samples its own grid and must read exactly as without the cap
        spec = SweepSpec(start=1.0, stop=2.0, steps=2, W=10.0, z_list=(1.0,),
                         outputs=("phase", "N"))
        clean = run_sweep(spec)
        monkeypatch.setattr(channels, "MAX_SAMPLES", 900)
        capped = run_sweep(spec)
        assert clean.errors == ()
        assert [row for row, _, _ in capped.errors] == [0, 1]
        assert all("above the cap of 900" in msg for _, _, msg in capped.errors)
        for before, after in zip(clean.rows, capped.rows):
            assert math.isfinite(before[4]) and math.isnan(after[4])
            assert after[:4] == before[:4]

    def test_columns_name_their_cells(self, monkeypatch):
        # each row makes one ledger call and one phase call for its states;
        # the phase of s1 on row 0 and the ledger of s2 on row 1 fail
        spec = SweepSpec(start=1.0, stop=2.0, steps=2, W=1.0, z_list=(0.5, 1.0),
                         outputs=("phase", "N", "M", "D", "A"))
        s1, s2 = "z=0.5;vt=0.785398", "z=1;vt=0.785398"
        expected = ("R",) + tuple(
            name for label in (s1, s2)
            for name in (f"phase_raw[{label}]", f"phase_mod[{label}]", f"phase_pi[{label}]",
                         f"N[{label}]", f"M[{label}]", f"D[{label}]", f"A[{label}]"))
        clean = run_sweep(spec)

        def fail_on(fn, bad_row, bad_state, what):
            rows = itertools.count()

            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if next(rows) == bad_row:
                    out[bad_state] = NumericalError(f"forced {what}")
                return out
            return wrapped

        monkeypatch.setattr(analysis, "gp_row", fail_on(analysis.gp_row, 0, 0, "phase"))
        monkeypatch.setattr(analysis, "row_flows", fail_on(analysis.row_flows, 1, 1, "ledger"))
        broken = run_sweep(spec)

        assert clean.columns == broken.columns == expected
        assert all(len(row) == len(expected) for row in clean.rows + broken.rows)
        assert clean.errors == ()
        assert broken.errors == ((0, s1, "forced phase"), (1, s2, "forced ledger"))
        blanked = {0: {f"phase_{k}[{s1}]" for k in ("raw", "mod", "pi")},
                   1: {f"{out}[{s2}]" for out in ("N", "M", "D")}}
        for i, (before, after) in enumerate(zip(clean.rows, broken.rows)):
            for name, b, a in zip(expected, before, after):
                assert math.isfinite(b)
                if name in blanked[i]:
                    assert math.isnan(a)
                else:
                    assert a == b

    def test_unconverged_phases_are_counted(self):
        # no rung of the ladder can meet tol = 1e-15: every phase cell counts
        spec = SweepSpec(start=1.0, stop=2.0, steps=2, W=10.0, z_list=(1.0,),
                         outputs=("phase",), tol=1e-15)
        with pytest.warns(RuntimeWarning, match="not converged") as rec:
            res = run_sweep(spec)
        assert res.meta["unconverged_phases"] == len(res.rows) * len(spec.states()) == 2
        # each warning points at the sweep row that called the phase route
        assert {w.filename for w in rec} == {analysis.__file__}
        assert all(math.isfinite(v) for row in res.rows for v in row)

    def test_memory_kernel_sweep_and_quarter_stamp(self):
        spec = SweepSpec(model="memory-kernel", start=0.05, stop=0.5,
                         steps=3, gamma0=0.1, z_list=(1.0,), outputs=("M",))
        res = run_sweep(spec)
        assert "crosses_validity_boundary" in res.meta
        assert len(res.rows) == 3

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(steps=1)
        with pytest.raises(ConfigError):
            SweepSpec(start=0.5, stop=0.2)
        with pytest.raises(ConfigError):
            SweepSpec(outputs=("phase", "bogus"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_non_finite_settings_rejected(self, data):
        # NaN passes every range check, so each float setting is checked first
        cls = data.draw(st.sampled_from(list(VALID_SETTINGS)))
        kwargs = dict(VALID_SETTINGS[cls])
        cls(**kwargs)
        name = data.draw(st.sampled_from(sorted(kwargs)))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        old = kwargs[name]
        kwargs[name] = old[:-1] + (bad,) if isinstance(old, tuple) else bad
        with pytest.raises(ConfigError, match=f"{cls.__name__} {name}.*={bad} must be finite"):
            cls(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(NON_FINITE_CALLS))
    def test_non_finite_horizon_or_tolerance_rejected(self, entry, value):
        name, call = NON_FINITE_CALLS[entry]
        with pytest.raises(ConfigError, match=re.escape(f" {name}={value} must be finite")):
            call(value)

    def test_sweep_tolerance_must_be_positive(self):
        for tol in (0.0, -1e-6):
            with pytest.raises(ConfigError, match="tol"):
                SweepSpec(tol=tol)

    # each would otherwise fail inside the first row: n = 0 as a zero horizon,
    # z = 1.5 as an unphysical initial state
    @pytest.mark.parametrize("kwargs,message", [
        ({"n": 0}, "n=0"), ({"n": -2}, "n=-2"),
        ({"z_list": (0.5, 1.5)}, "outside"), ({"z_list": (-0.1,)}, "outside"),
    ])
    def test_horizon_and_mixing_weights_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            SweepSpec(**kwargs)

    def test_mirror_symmetry_is_exact(self):
        # vartheta0 <-> pi - vartheta0 maps a state to the same polar angle at a
        # shifted azimuth: identical phases and identical flows
        spec = SweepSpec(start=0.8, stop=1.6, steps=2, W=1.0, z_list=(0.7,),
                         vartheta0_list=(math.pi / 5, 4 * math.pi / 5),
                         outputs=("phase", "N"))
        res = run_sweep(spec)
        for row in res.rows:
            assert abs(math.remainder(row[2] - row[6], 2.0 * math.pi)) < 1e-9
            assert row[4] == pytest.approx(row[8], abs=1e-10)

    def test_diagonal_family_phases_and_flows(self):
        # vartheta0 = pi/2 and pi share the spectrum, so where both phases are
        # defined they are equal (0 mod 2 pi); their flows differ because the
        # distances to the standard state differ.  In the backflow regime the
        # vartheta0 = pi trajectory crosses the ball center and its phase is
        # undefined (covered by test_point_failures...), but N still differs.
        weak = SweepSpec(start=0.4, stop=0.45, steps=2, W=0.1, z_list=(0.9,),
                         vartheta0_list=(math.pi / 2, math.pi), outputs=("phase", "M"))
        res = run_sweep(weak)
        assert not res.errors
        for row in res.rows:
            assert abs(math.remainder(row[2] - row[6], 2.0 * math.pi)) < 1e-9
            assert abs(math.remainder(row[2], 2.0 * math.pi)) < 1e-9  # the 0 (= 2 pi) value
            assert abs(row[4] - row[8]) > 1e-3  # forward flows differ

        strong = SweepSpec(start=2.0, stop=2.5, steps=2, W=1.0, z_list=(0.5,),
                           vartheta0_list=(math.pi / 2, math.pi), outputs=("N",))
        res2 = run_sweep(strong)
        assert not res2.errors  # flows are defined even where the phase is not
        for row in res2.rows:
            assert abs(row[1] - row[2]) > 1e-3  # backflows differ


class TestPresets:
    def test_all_presets_constructible(self):
        for name in PRESET_NAMES:
            spec = figure_preset(name)
            assert spec.label == name

    def test_caption_parameters(self):
        assert figure_preset("fig1").W == 0.1
        assert figure_preset("fig1").outputs == ("phase",)
        assert figure_preset("fig1").z_list == (0.25, 0.5, 0.75, 1.0)
        assert figure_preset("fig1").varphi0 == pytest.approx(math.pi / 3)
        assert figure_preset("fig4").W == 1.0
        assert figure_preset("fig5").W == 10.0
        assert figure_preset("fig7").varphi0 == pytest.approx(math.pi / 6)
        assert figure_preset("fig7").z_list == (0.5,)
        assert figure_preset("fig8").model == "memory-kernel"
        assert figure_preset("fig8").gamma0 == 0.1
        assert figure_preset("fig8").stop <= 0.25  # validity region only
        assert figure_preset("appendix-nm").W == 0.6
        assert figure_preset("appendix-nm").vartheta0_list == (math.pi / 3,)
        assert figure_preset("appendix-ady").outputs == ("A", "D", "N")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            figure_preset("fig99")

    def test_fig1_runs_reduced(self):
        spec = replace(figure_preset("fig1"), steps=3, z_list=(1.0,))
        res = run_sweep(spec)
        assert len(res.rows) == 3
        assert not res.errors
