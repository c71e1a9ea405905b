#!/usr/bin/env python3
"""Locate the critical point of the time-local model and print the evidence.

The study fixes W = 0.6, a pure initial state at half-polar angle pi/3, and
one quasi-period.  It scans R = W / lambda, finds the root R* of
d|c(T,R)|^2/dR, and tabulates |c(T)|^2, D(T), the phase integrand A(T), and
the flows N(T), M(T) around R* so the extremum of A, the cusp of D (it
touches zero at R* with one-sided slopes of opposite sign, so its small
centered difference there is a cancellation, not a vanishing derivative)
and the M-flattening at the backflow onset are visible by eye.

Usage:  python scripts/critical_point_study.py [W] [vartheta0]
"""

import math
import sys

import numpy as np

from qflow.analysis import critical_point
from qflow.channels import TimeLocalModel, TimeLocalParams, abs_c_squared
from qflow.errors import NumericalError
from qflow.geomphase import phase_integrand
from qflow.infoflow import ratio_flows
from qflow.qstate import DensityMatrix, InitialStateSpec, bloch_trace_distance, initial_state

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
    print(f"|dD/dR| at R* (normalised) = {rep.dd_residual:.3e}  (centered, across D's cusp)")
    print(f"|dA/dR| at R* (normalised) = {rep.da_residual:.3e}")
    print(f"N(T) onset                 = R = {rep.onset_R:.4f}")
    print(f"dM/dR collapse             = R = {rep.m_flat_R:.4f}")
    print(f"onset within one grid step = {rep.onset_matches_m_flat}")
    print(f"dM/dR just above R*        = {rep.dm_at_onset:.3e}")
    print()

    rho0 = initial_state(spec)
    ground = DensityMatrix.ground().bloch().as_array()
    ratios = np.linspace(rep.r_star - 0.12, rep.r_star + 0.12, 13)
    # the table's ratios as one stack: one evaluation per column, one ledger call
    sets = [p.at_ratio(R) for R in ratios]
    stack = TimeLocalParams.stack(sets)
    b = TimeLocalModel(stack).bloch_series(rho0, T)
    d_final = bloch_trace_distance(b, ground)
    a_final = phase_integrand(d_final, b[..., 2], p.omega0)
    x_final = abs_c_squared(T, stack)
    ledgers = ratio_flows(rho0, [TimeLocalModel(q) for q in sets], T)
    print(f"{'R':>7} {'|c(T)|^2':>12} {'D(T)':>12} {'A(T)':>12} {'N(T)':>12} {'M(T)':>12}")
    for R, x, d, a, ledger in zip(ratios, x_final, d_final, a_final, ledgers):
        if isinstance(ledger, NumericalError):
            raise ledger
        print(f"{R:7.4f} {x:12.6f} {d:12.6f} {a:12.6f} "
              f"{ledger.N_total:12.6f} {ledger.M_total:12.6f}")

if __name__ == "__main__":
    main()
