"""Dataflow scheduling and the parallel cluster runtime (Sec. 5).

The serial engine (:mod:`repro.sim.engine`) executes traces in
program order on one idealised ganged pipeline.  This package lifts
the trace into an explicit dependency DAG and dispatches it onto
explicit clusters, through the same per-op execution model
(:class:`repro.sim.engine.ExecutionModel`; its timeline records are
re-exported here):

* :mod:`repro.sched.graph` — ``OpTrace`` -> dataflow DAG via def-use
  chains over ciphertext versions, with hoist-group fusion;
* :mod:`repro.sched.streams` — the multi-stream front end: K
  independent ciphertext streams merged into one stream-tagged graph
  for throughput scheduling;
* :mod:`repro.sched.scheduler` — the dispatch orders: program order at
  1 cluster, critical-path list scheduling onto per-cluster pipelines
  sharing the HBM channel and key cache (``latency`` mode, one
  program's makespan), and the ``throughput`` mode's
  software-pipelined multi-stream dispatch;
* :mod:`repro.sched.simulate` — the :class:`ScheduledEngine` wrapper
  reporting occupancy, stall breakdowns and speedup vs serial, plus
  the Table-6-style ``throughput_scaling`` grid;
* :mod:`repro.sched.executor` — a multiprocess functional executor
  proving the dependency discipline bit-exactly on real residues,
  per stream for merged multi-stream graphs.
"""

from repro.sim.engine import ClusterTimeline, NodeTiming, ScheduleTimeline
from repro.sched.executor import (DatapathWidthError, ExecutionCheck,
                                  FunctionalExecutor,
                                  StreamExecutionCheck)
from repro.sched.graph import (DataflowGraph, GraphNode,
                               GraphValidationError)
from repro.sched.scheduler import (DEFAULT_PIPELINE_DEPTH,
                                   DEFAULT_PREFETCH_SLOTS, ClusterScheduler)
from repro.sched.simulate import (ClusterReport, ScheduledEngine,
                                  ScheduledResult, ThroughputResult,
                                  serial_reference, throughput_scaling)
from repro.sched.streams import (MultiStreamTrace, StreamMergeError,
                                 merge_graphs, merge_streams,
                                 replicate, replicate_graph)

__all__ = [
    "ClusterReport",
    "ClusterScheduler",
    "ClusterTimeline",
    "DEFAULT_PIPELINE_DEPTH",
    "DEFAULT_PREFETCH_SLOTS",
    "DataflowGraph",
    "DatapathWidthError",
    "ExecutionCheck",
    "FunctionalExecutor",
    "GraphNode",
    "GraphValidationError",
    "MultiStreamTrace",
    "NodeTiming",
    "ScheduleTimeline",
    "ScheduledEngine",
    "ScheduledResult",
    "StreamExecutionCheck",
    "StreamMergeError",
    "ThroughputResult",
    "merge_graphs",
    "merge_streams",
    "replicate",
    "replicate_graph",
    "serial_reference",
    "throughput_scaling",
]
