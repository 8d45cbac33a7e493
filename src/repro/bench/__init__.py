"""``repro.bench`` — the perf-regression benchmark harness.

Runs the Table 5 workloads (bootstrap, HELR training iterations,
ResNet-20 trace slices) through the cycle simulator and writes
``BENCH_sim.json`` (schema ``repro-bench/v13``): per-workload host
wall-time, simulated latency, per-unit utilisation, Hemera cache-hit
rate and HBM traffic; a ``micro`` section with modmul/NTT kernel
microbenchmarks, the matrix-form base-conversion kernel against the
per-pair scalar loop at Set-II-mini key-switch shapes (``bconv``),
and a functional HELR-style step at toy or Set-II-shaped wide-word
parameters (``--params toy|full``), including the width-path and
conversion-path occupancy counters; a ``keyswitch`` section timing
the eval-domain AutoPlan gather, the fused KeyMultPlan and hoisted
rotations against their pre-plan reference pipelines (with a traced
zero-NTT check on the hoisting loop); a ``sched`` section with
the cluster-scaling speedup curve (``--clusters`` axis) of the
dataflow scheduler plus a multiprocess executor bit-exactness check;
and a ``throughput`` section with the Table-6-style
clusters x streams amortized-speedup grid of the software-pipelined
multi-stream scheduler plus a merged multi-stream executor
bit-exactness check; and a ``backend`` section with per-array-backend
kernel timings and a bit-exact parity + zero-fallback gate
(``--backends`` axis).
That file is the regression baseline every perf-oriented PR is
judged against — rerun with ``--baseline`` to compare a fresh run to
a committed baseline.

Entry points: ``python -m repro bench`` or
``python benchmarks/harness.py``.
"""

from repro.bench.harness import (BENCH_SCHEMA, compare_reports,
                                 run_benchmarks, write_report)
from repro.bench.keyswitch import run_keyswitch, validate_keyswitch
from repro.bench.micro import run_micro, validate_micro
from repro.bench.sched import run_sched, scaling_curve, validate_sched

__all__ = ["BENCH_SCHEMA", "compare_reports", "run_benchmarks",
           "run_keyswitch", "run_micro", "run_sched",
           "scaling_curve", "validate_keyswitch", "validate_micro",
           "validate_sched", "write_report"]
