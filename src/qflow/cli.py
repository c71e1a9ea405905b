"""Command-line interface: simulate | flows | gp | sweep | critical.

Output is CSV (default) or JSON with a ``# key=value`` metadata preamble
echoing the settings the subcommand read.  Numbers are written with 17
significant digits so reading a file back reproduces the doubles exactly.
Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .analysis import PRESET_NAMES, SweepSpec, critical_point, figure_preset, run_sweep
from .channels import (
    POSITIVITY_TOL,
    MemoryKernelModel,
    MemoryKernelParams,
    TimeLocalModel,
    TimeLocalParams,
    decay_rates,
)
from .errors import ConfigError, NumericalError, require_finite
from .geomphase import figure_value, gp_route
from .infoflow import flows
from .qstate import InitialStateSpec, eigenvalues, initial_state


def _setting(default, help: str, **extra):
    """A RunConfig field that carries its flag's help text and ``extra``: argparse's
    choices or metavar, and ``flag``, the spelling where it is not ``--`` plus the
    name with ``_`` turned into ``-``."""
    return field(default=default, metadata={"help": help, **extra})


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one CLI invocation.

    Every field has a default; a config file may override defaults and
    explicit flags override the file.  Each subcommand registers the flags
    of the settings it can read (:func:`_flag_names`), and a config file's
    unknown keys are rejected, as is any setting the subcommand does not
    read under the run's model or preset (:func:`_settings_read`).
    """

    command: str = ""
    model: str = _setting("time-local", "dynamical model",
                          choices=("time-local", "memory-kernel"))
    W: float = _setting(0.1, "coupling strength, units of omega0")
    lam: float = _setting(1.0, "spectral width", flag="--lambda")
    omega0: float = _setting(1.0, "transition frequency")
    gamma0: float = _setting(0.1, "memory-kernel dissipation rate")
    gamma: float = _setting(1.0, "inverse memory time")
    z: float = _setting(1.0, "initial mixing weight in [0,1]")
    vartheta0: float = _setting(math.pi / 4.0, "initial half-polar angle, rad")
    varphi0: float = _setting(math.pi / 3.0, "initial azimuth, rad")
    n: int = _setting(1, "number of quasi-periods in the horizon")
    R_min: float = _setting(0.05, "sweep lower R")
    R_max: float = _setting(5.0, "sweep upper R")
    R_steps: int = _setting(40, "sweep resolution in R")
    C_min: float = _setting(0.01, "sweep lower C")
    C_max: float = _setting(0.24, "sweep upper C")
    C_steps: int = _setting(24, "sweep resolution in C")
    figure: str = _setting("", f"named sweep preset, one of {', '.join(PRESET_NAMES)}",
                           metavar="PRESET")
    mode: str = _setting("literal", "eigenbasis convention for phases",
                         choices=("literal", "spectral"))
    out: str = _setting("-", "output path, '-' for stdout", metavar="PATH")
    format: str = _setting("csv", "output format", choices=("csv", "json"))
    tol: float = _setting(1e-6, "phase convergence tolerance")
    degrees: bool = _setting(False, "interpret vartheta0/varphi0 as degrees")
    t_end: float = _setting(0.0, "explicit horizon; 0 means n quasi-periods")
    samples: int = _setting(2001, "simulate sample count")


_SETTINGS = tuple(f.name for f in fields(RunConfig) if f.name != "command")

# The settings each subcommand reads.  Three entries stand for a model's
# fields: "coupling" (W or gamma0), "rate" (lam or gamma) and "axis" (the
# R_* or C_* range).  A ratio sweep and critical read no rate, because the
# ratio sets it (lambda = W / R, gamma = gamma0 / C).  sweep --figure takes
# its model, coupling and states from the preset.  Every subcommand also
# reads format and writes to out.
_STATE = ("z", "vartheta0", "varphi0", "degrees")
_READS = {
    "simulate": ("model", "coupling", "rate", "omega0", *_STATE, "t_end", "n", "samples"),
    "flows": ("model", "coupling", "rate", "omega0", *_STATE, "t_end", "n"),
    "gp": ("model", "coupling", "rate", "omega0", *_STATE, "t_end", "n", "mode", "tol"),
    "sweep": ("figure", "model", "coupling", "omega0", *_STATE, "n", "axis", "mode", "tol"),
    "sweep --figure": ("figure", "n", "axis", "mode", "tol"),
    "critical": ("coupling", "omega0", *_STATE, "t_end", "n", "axis"),
}
_MODEL_FIELDS = {
    "time-local": {"coupling": ("W",), "rate": ("lam",), "axis": ("R_min", "R_max", "R_steps")},
    "memory-kernel": {
        "coupling": ("gamma0",), "rate": ("gamma",), "axis": ("C_min", "C_max", "C_steps"),
    },
}
# critical always runs the time-local model; the others run any of _MODEL_FIELDS
_MODELS = {"critical": ("time-local",)}


def _resolve(keys, models) -> set[str]:
    """The settings the _READS entries ``keys`` read under any of ``models``, and format."""
    names = {"format"}
    for model in models:
        if not isinstance(model, str) or model not in _MODEL_FIELDS:
            raise ConfigError(f"unknown model {model!r}")
        fields_of = _MODEL_FIELDS[model]
        names.update(name for key in keys for entry in _READS[key]
                     for name in fields_of.get(entry, (entry,)))
    return names


def _settings_read(cfg: RunConfig) -> tuple[str, ...]:
    """The settings ``cfg.command`` reads under cfg's model or preset, in field order.

    For ``sweep --figure`` cfg.model must already be the preset's model
    (:func:`_merge_config` sets it).
    """
    key = "sweep --figure" if cfg.command == "sweep" and cfg.figure else cfg.command
    names = _resolve([key], _MODELS.get(cfg.command, [cfg.model]))
    return tuple(name for name in _SETTINGS if name in names)


def _flag_names(command: str) -> set[str]:
    """The settings ``command`` can read under some model or preset, and out: its flags."""
    keys = [key for key in _READS if key.split()[0] == command]
    return _resolve(keys, _MODELS.get(command, _MODEL_FIELDS)) | {"out"}


def _reject_unread(cfg: RunConfig, given: dict) -> None:
    """Raise ConfigError naming every given setting that ``cfg.command`` does not read."""
    reads = _settings_read(cfg)
    # out is where the result goes, not a setting: every subcommand takes it
    unread = [name for name in _SETTINGS if name in given and name not in (*reads, "out")]
    if not unread:
        return
    context = cfg.command
    if "figure" in reads and cfg.figure:
        context += f" --figure {cfg.figure}"
    if "model" in reads:
        context += f" --model {cfg.model}"
    values = ", ".join(f"{name}={given[name]}" for name in unread)
    raise ConfigError(f"{context} does not read {', '.join(unread)} (given {values})")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(cfg: RunConfig, meta: dict, columns: list[str], rows: list[list]) -> None:
    lines: list[str] = []
    if cfg.format == "csv":
        for k, v in meta.items():
            lines.append(f"# {k}={v}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"meta": meta, "columns": columns, "rows": rows}, indent=1, sort_keys=False
        ) + "\n"
    if cfg.out in ("-", ""):
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _base_meta(cfg: RunConfig) -> dict:
    meta = {"artifact_version": __version__, "command": cfg.command}
    for name in _settings_read(cfg):
        meta[name] = _fmt(getattr(cfg, name))
    return meta


def _build_model(cfg: RunConfig):
    # _settings_read has checked the model name
    if cfg.model == "memory-kernel":
        return MemoryKernelModel(MemoryKernelParams(cfg.gamma0, cfg.gamma, cfg.omega0))
    return TimeLocalModel(TimeLocalParams(cfg.W, cfg.lam, cfg.omega0))


def _state_spec(cfg: RunConfig) -> InitialStateSpec:
    return InitialStateSpec(cfg.z, cfg.vartheta0, cfg.varphi0)


def _horizon(cfg: RunConfig) -> float:
    if cfg.t_end > 0.0:
        return cfg.t_end
    return 2.0 * math.pi * cfg.n / cfg.omega0


def cmd_simulate(cfg: RunConfig) -> None:
    model = _build_model(cfg)
    rho0 = initial_state(_state_spec(cfg))
    times = np.linspace(0.0, _horizon(cfg), cfg.samples)
    traj = model.trajectory(rho0, times)
    columns = [
        "t",
        "rho00_re", "rho00_im", "rho01_re", "rho01_im",
        "rho10_re", "rho10_im", "rho11_re", "rho11_im",
        "r_x", "r_y", "r_z", "amp", "gamma", "delta", "min_eig", "pos_ok",
    ]
    bloch = traj.bloch()
    eigs = eigenvalues(bloch)[1]
    pop, coh = model.factors(times)
    if cfg.model == "time-local":
        try:
            gam, delta = decay_rates(times, model.params)
        except NumericalError as exc:
            raise NumericalError(f"simulate: {exc}") from exc
        amp = np.abs(coh)
    else:
        amp = pop  # xi(C, tau)
        gam = delta = np.full(times.shape, math.nan)
    # (re, im) pairs of rho00, rho01, rho10, rho11
    table = np.column_stack([times, traj.states.reshape(-1, 4).view(float), bloch,
                             amp, gam, delta, eigs])
    rows = [[*r, int(r[-1] >= -POSITIVITY_TOL)] for r in table.tolist()]
    _emit(cfg, _base_meta(cfg), columns, rows)


def cmd_flows(cfg: RunConfig) -> None:
    model = _build_model(cfg)
    rho0 = initial_state(_state_spec(cfg))
    ledger = flows(rho0, model, _horizon(cfg))
    meta = _base_meta(cfg)
    meta["N_total"] = _fmt(ledger.N_total)
    meta["M_total"] = _fmt(ledger.M_total)
    meta["segments"] = str(len(ledger.segments))
    for key in ("brackets", "bisect_rounds"):
        meta[key] = str(ledger.meta[key])
    meta["positivity_ok"] = str(ledger.positivity.ok)
    if ledger.positivity.first_violation_time is not None:
        meta["first_violation_time"] = _fmt(ledger.positivity.first_violation_time)
    columns = ["t", "D", "sigma", "N", "M"]
    rows = [
        [float(t), float(d), float(s), float(n_), float(m_)]
        for t, d, s, n_, m_ in zip(ledger.times, ledger.D, ledger.sigma, ledger.N, ledger.M)
    ]
    _emit(cfg, meta, columns, rows)


def cmd_gp(cfg: RunConfig) -> None:
    model = _build_model(cfg)
    rho0 = initial_state(_state_spec(cfg))
    result = gp_route(model, rho0, _horizon(cfg), mode=cfg.mode, tol=cfg.tol)
    columns = [
        "phase_raw", "phase_mod", "phase_pi",
        "conn_plus", "conn_minus", "weight_plus", "weight_minus",
        "overlap_plus_re", "overlap_plus_im", "overlap_minus_re", "overlap_minus_im",
        "n_samples", "step_change", "converged",
    ]
    ovp = result.overlaps["plus"]
    ovm = result.overlaps["minus"]
    rows = [[
        result.phase_raw, result.phase, figure_value(result.phase) / math.pi,
        result.connection["plus"], result.connection["minus"],
        result.weights["plus"], result.weights["minus"],
        ovp.real, ovp.imag, ovm.real, ovm.imag,
        result.n_samples, result.step_change, int(result.converged),
    ]]
    _emit(cfg, _base_meta(cfg), columns, rows)


def _sweep_fields(axis: str) -> dict[str, str]:
    """The SweepSpec fields a sweep takes from RunConfig, and their RunConfig names."""
    return {"start": f"{axis}_min", "stop": f"{axis}_max", "steps": f"{axis}_steps",
            "n": "n", "mode": "mode", "tol": "tol"}


def _sweep_spec(cfg: RunConfig) -> SweepSpec:
    if cfg.figure:
        spec = figure_preset(cfg.figure)
    else:
        spec = SweepSpec(
            model=cfg.model, W=cfg.W, gamma0=cfg.gamma0, omega0=cfg.omega0,
            z_list=(cfg.z,), vartheta0_list=(cfg.vartheta0,), varphi0=cfg.varphi0,
            outputs=("phase", "N", "M"),
        )
    return replace(spec, **{f: getattr(cfg, name) for f, name in _sweep_fields(spec.param).items()})


def cmd_sweep(cfg: RunConfig) -> None:
    result = run_sweep(_sweep_spec(cfg))
    meta = _base_meta(cfg)
    for k, v in result.meta.items():
        meta[f"sweep_{k}"] = str(v)
    for i, (row, col, msg) in enumerate(result.errors):
        meta[f"error_{i}"] = f"row={row} column={col}: {msg}"
    rows = [list(r) for r in result.rows]
    _emit(cfg, meta, list(result.columns), rows)


def cmd_critical(cfg: RunConfig) -> None:
    p = TimeLocalParams(cfg.W, cfg.lam, cfg.omega0)
    report = critical_point(
        _horizon(cfg), _state_spec(cfg), p, cfg.R_min, cfg.R_max, cfg.R_steps
    )
    columns = [
        "R_star", "df_residual", "dD_residual", "dA_residual", "dD_raw", "dA_raw",
        "onset_R", "m_flat_R", "dM_at_onset", "onset_matches_m_flat",
        "grid_min", "grid_max", "grid_steps", "fd_step",
    ]
    rows = [[
        report.r_star, report.df_residual, report.dd_residual, report.da_residual,
        report.dd_raw, report.da_raw, report.onset_R, report.m_flat_R,
        report.dm_at_onset, int(report.onset_matches_m_flat),
        report.grid[0], report.grid[1], report.grid[2], report.fd_step,
    ]]
    _emit(cfg, _base_meta(cfg), columns, rows)


_COMMANDS = {
    "simulate": cmd_simulate,
    "flows": cmd_flows,
    "gp": cmd_gp,
    "sweep": cmd_sweep,
    "critical": cmd_critical,
}


# each field type's argparse type, and the JSON values a config file may give it
_TYPES = {
    "str": (str, (str,), "a string"),
    "bool": (None, (bool,), "true or false"),
    "int": (int, (int,), "an integer"),
    "float": (float, (int, float), "a number"),
}


def _add_flags(sp: argparse.ArgumentParser, names: set[str]) -> None:
    """Register --config and the flag of every setting in ``names`` on ``sp``.

    A flag's default is None, so that only a given flag overrides the config file.
    """
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="JSON file with RunConfig keys (flags win on conflict)")
    for f in fields(RunConfig):
        if f.name not in names:
            continue
        spec = dict(f.metadata)
        flag = spec.pop("flag", "--" + f.name.replace("_", "-"))
        if f.type == "bool":
            sp.add_argument(flag, dest=f.name, action="store_true", default=None, **spec)
            continue
        if f.default != "":
            shown = f"{f.default:.6g}" if f.type == "float" else f.default
            spec["help"] += f" (default {shown})"
        sp.add_argument(flag, dest=f.name, type=_TYPES[f.type][0], default=None, **spec)


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="qflow",
        description="Open-qubit trajectories, information flows and geometric phases "
                    "for the time-local and exponential-memory models.",
    )
    parser.add_argument("--version", action="version", version=f"qflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "write a sampled trajectory (states, Bloch vector, rates, positivity)",
        "flows": "write D(t), sigma(t) and the flow cumulants N(t), M(t)",
        "gp": "write the geometric phase and its per-branch diagnostics",
        "sweep": "write a parameter sweep (use --figure for named presets)",
        "critical": "locate the critical point R* and its coincidence checks",
    }
    for name in _COMMANDS:
        # no abbreviations: --gamma must not stand for --gamma0 where gamma is unread
        _add_flags(sub.add_parser(name, help=helps[name], allow_abbrev=False),
                   _flag_names(name))
    return parser, sub.choices


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(RunConfig):
        # model is checked against the model names (_settings_read)
        if f.name not in data or f.name == "model":
            continue
        value = data[f.name]
        _, types, kind = _TYPES[f.type]
        # bool is a subclass of int, but true is no number
        if not isinstance(value, types) or (f.type != "bool" and isinstance(value, bool)):
            raise ConfigError(f"config key {f.name} needs {kind}, got {value!r}")
    return data


def _merge_config(args: argparse.Namespace) -> RunConfig:
    given = _load_config_file(args.config) if args.config else {}
    for name in _SETTINGS:
        flag = getattr(args, name, None)
        if flag is not None:
            given[name] = flag
    cfg = RunConfig(command=args.command, **given)
    if cfg.command == "sweep" and cfg.figure:
        # the preset gives the model and the defaults of the settings sweep --figure reads
        spec = figure_preset(cfg.figure)
        defaults = {name: getattr(spec, f) for f, name in _sweep_fields(spec.param).items()
                    if name not in given}
        cfg = replace(cfg, model=spec.model, **defaults)
    _reject_unread(cfg, given)
    require_finite("setting", **{f.name: getattr(cfg, f.name) for f in fields(RunConfig)
                                 if f.type == "float"})
    if cfg.degrees:
        cfg = replace(
            cfg,
            vartheta0=math.radians(cfg.vartheta0),
            varphi0=math.radians(cfg.varphi0),
            degrees=False,
        )
    if not 0.0 <= cfg.z <= 1.0:
        raise ConfigError(f"z={cfg.z} outside [0, 1]")
    if cfg.tol <= 0.0:
        raise ConfigError("tol must be > 0")
    if cfg.samples < 2:
        raise ConfigError("samples must be >= 2")
    if cfg.t_end < 0.0:
        raise ConfigError(f"t_end={cfg.t_end} must be >= 0 (0 means n quasi-periods)")
    if cfg.n < 1:
        raise ConfigError(f"n={cfg.n} must be >= 1")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser, subcommands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # the subcommand's usage line lists the flags it does accept
        subcommands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        _COMMANDS[args.command](_merge_config(args))
    except ConfigError as exc:
        print(f"qflow: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qflow: numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
