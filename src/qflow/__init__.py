"""Open-qubit trajectories, trace-distance information flows, geometric phases.

Two exactly solvable dissipative models of a two-level system (a
time-local master equation driven by a Lorentzian bath and an
exponential-memory integro-differential equation) with:

* analytic propagators cross-checked by independent RK4 oracles,
* forward/backward information flows built from monotone runs of the
  trace distance to a reference state,
* mixed-state geometric phases in both the matrix ("spectral") and the
  closed-form ("literal") eigenbasis conventions,
* parameter sweeps, a critical-point finder, and a CLI.
"""

__version__ = "0.1.0"

from .channels import (
    MemoryKernelModel,
    MemoryKernelParams,
    PositivityReport,
    TimeLocalModel,
    TimeLocalParams,
    Trajectory,
    amplitude,
    first_amplitude_zero,
    lorentzian_density,
    positivity_check,
    sample_times,
    xi,
)
from .errors import (
    BracketError,
    ConfigError,
    DegenerateStateError,
    NumericalError,
    PoleError,
    QflowError,
    StepSizeError,
    UnphysicalStateError,
)
from .geomphase import (
    PerturbativeTerms,
    PhaseResult,
    gp_closed,
    gp_flow_form,
    gp_mixed,
    gp_mixed_auto,
    gp_perturbative,
    gp_pure,
    gp_route,
    gp_row,
    kappa1,
    kappa2,
)
from .infoflow import (
    BlpResult,
    FlowLedger,
    PairGrid,
    blp_measure,
    default_pair_grid,
    flows,
    pair_flows,
    ratio_flows,
    row_flows,
    sigma,
    weak_coupling_flows,
)
from .analysis import (
    CriticalPointReport,
    SweepResult,
    SweepSpec,
    critical_point,
    figure_preset,
    integrand_A_from_model,
    run_sweep,
)
from .qstate import (
    BlochVector,
    DensityMatrix,
    InitialStateSpec,
    PolarBloch,
    density_from_bloch,
    initial_state,
    trace_distance,
)
