#!/usr/bin/env python3
"""Locate the critical point of the time-local model and print the evidence.

The study fixes W = 0.6, a pure initial state at half-polar angle pi/3, and
one quasi-period.  It scans R = W / lambda, finds the root R* of
d|c(T,R)|^2/dR, and tabulates |c(T)|^2, D(T), the phase integrand A(T), and
the flows N(T), M(T) around R* so the simultaneous extremum and the
M-flattening at the backflow onset are visible by eye.

Usage:  python scripts/critical_point_study.py [W] [vartheta0]
"""

import math
import sys

import numpy as np

from qflow.analysis import critical_point, integrand_A_from_model
from qflow.channels import TimeLocalModel, TimeLocalParams, abs_c_squared
from qflow.infoflow import flows
from qflow.qstate import InitialStateSpec, initial_state

T = 2.0 * math.pi


def main() -> None:
    W = float(sys.argv[1]) if len(sys.argv) > 1 else 0.6
    vt = float(sys.argv[2]) if len(sys.argv) > 2 else math.pi / 3.0
    spec = InitialStateSpec(1.0, vt, 0.0)
    p = TimeLocalParams(W, 1.0, 1.0)

    rep = critical_point(T, spec, p, 0.4, 1.0, steps=61)
    print(f"W = {W}, vartheta0 = {vt:.6f}, T = one quasi-period")
    print(f"critical point R*          = {rep.r_star:.9f}")
    print(f"|d|c|^2/dR| at R*          = {rep.df_residual:.3e}")
    print(f"|dD/dR| at R* (normalised) = {rep.dd_residual:.3e}")
    print(f"|dA/dR| at R* (normalised) = {rep.da_residual:.3e}")
    print(f"N(T) onset                 = R = {rep.onset_R:.4f}")
    print(f"dM/dR collapse             = R = {rep.m_flat_R:.4f}")
    print(f"onset within one grid step = {rep.onset_matches_m_flat}")
    print(f"dM/dR just above R*        = {rep.dm_at_onset:.3e}")
    print()

    rho0 = initial_state(spec)
    print(f"{'R':>7} {'|c(T)|^2':>12} {'D(T)':>12} {'A(T)':>12} {'N(T)':>12} {'M(T)':>12}")
    for R in np.linspace(rep.r_star - 0.12, rep.r_star + 0.12, 13):
        eff = p.at_ratio(R)
        model = TimeLocalModel(eff)
        ledger = flows(rho0, model, T)
        b = model.bloch_series(rho0, T)
        d_final = 0.5 * math.sqrt(b[0] ** 2 + b[1] ** 2 + (b[2] + 1.0) ** 2)
        a_final = integrand_A_from_model(T, model, rho0)
        x_final = float(abs_c_squared(T, eff))
        print(f"{R:7.4f} {x_final:12.6f} {d_final:12.6f} {a_final:12.6f} "
              f"{ledger.N_total:12.6f} {ledger.M_total:12.6f}")


if __name__ == "__main__":
    main()
