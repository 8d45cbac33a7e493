"""The kernel-level cycle simulator (Sec. 6.1's methodology).

A trace is lowered to hardware kernels (:mod:`repro.sim.kernels`),
executed op by op by the one execution model of
:mod:`repro.sim.engine` — in program order on one pipeline for
:class:`Engine` — and summarised into latency, utilisation,
power/energy and EDP (:mod:`repro.sim.metrics`).  Baseline
accelerators for the comparison tables live in
:mod:`repro.sim.baselines`.

The multi-cluster dispatch orders over the same execution model
(list-scheduled and software-pipelined) live in :mod:`repro.sched`,
which imports this package.
"""

from repro.sim.engine import Engine, SimulationResult
from repro.sim.kernels import lower_trace

__all__ = ["Engine", "SimulationResult", "lower_trace"]
