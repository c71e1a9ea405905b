"""The names perfbench/tracer.py wraps exist and nest the way its metrics read them.

A traced name that is deleted or renamed makes ``Tracer.install`` fail, and a
call path that no longer goes through a traced name drops its spans.
"""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

from qflow import analysis
from qflow.analysis import SweepSpec
from qflow.channels import TimeLocalParams
from qflow.qstate import InitialStateSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LADDER = {"geomphase.gp_mixed_auto", "geomphase.gp_mixed", "geomphase.branch_data",
          "geomphase.assemble_phase"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_and_clean_uninstall():
    tracer = load_tracer()
    t = tracer.Tracer()
    # two fig5-style rows (W = 10, phase and N)
    literal = SweepSpec(start=1.0, stop=2.0, steps=2, W=10.0, z_list=(1.0,),
                        outputs=("phase", "N"))
    try:
        t.install()
        analysis.run_sweep(literal)
        n_literal = len(t.spans)
        # the same rows in spectral mode run the ladder, then a 31-step critical scan
        analysis.run_sweep(replace(literal, mode="spectral"))
        analysis.critical_point(2.0 * math.pi, InitialStateSpec(1.0, math.pi / 3, 0.0),
                                TimeLocalParams(0.6, 1.0, 1.0), 0.4, 1.0, steps=31)
    finally:
        t.uninstall()
    tracer.assert_unpatched()

    spans = t.spans
    names = {s[0] for s in spans}
    nested = {(s[0], spans[s[3]][0]) for s in spans if s[3] >= 0}
    # sweep rows (row_flows) and critical_point (ratio_flows) take their ledgers
    # from the factors, so no traced flows runs: critical_point's ledger grids,
    # its stacked D and A evaluations and its stacked sign scan nest under it
    assert "infoflow.flows" not in names
    assert ("channels.sample_times", "analysis.critical_point") in nested
    assert ("channels.states", "analysis.critical_point") in nested
    assert ("channels.abs_c_squared", "analysis.critical_point") in nested
    assert ("channels.states", "channels.trajectory") in nested
    # a literal row takes its phases in closed form, off the ladder
    assert not LADDER & {s[0] for s in spans[:n_literal]}
    assert ("geomphase.gp_mixed", "geomphase.gp_mixed_auto") in nested
    assert ("geomphase.branch_data", "geomphase.gp_mixed") in nested
    assert ("geomphase.assemble_phase", "geomphase.gp_mixed") in nested
    # some spectral phase doubles its grid, so the ladder's later rungs are traced too
    rungs = sum(1 for s in spans if s[0] == "geomphase.gp_mixed")
    assert rungs > sum(1 for s in spans if s[0] == "geomphase.gp_mixed_auto")
