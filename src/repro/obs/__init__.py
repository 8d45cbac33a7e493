"""``repro.obs`` — the observability layer.

A lightweight tracing/metrics subsystem threaded through the cycle
simulator (:mod:`repro.sim`), the Aether/Hemera runtime
(:mod:`repro.core`) and the CKKS hot kernels (:mod:`repro.ckks.ntt`,
:mod:`repro.ckks.rns`):

* **spans** — wall-clock regions (Aether's MCT build, one NTT call)
  and simulated-clock kernel-task events with unit/stage/op labels;
* **counters / histograms** — NTT and BConv call counts, automorphism
  paths (``rns.auto.eval`` point gathers vs ``rns.auto.coeff`` oracle,
  plus ``rns.auto.plan_hit``/``plan_miss``), fused KeyMult activity
  (``keyswitch.kmu.fused``/``object_fallback``/``plan_hit``/
  ``plan_miss``, and ``native``/``numpy`` per kernel call, as
  ``rns.bconv.*`` counts conversions), hoisting batches
  (``keyswitch.hoisting.*``), evk-cache hits/misses, prefetch lead,
  key-stall time;
* **exporters** — a JSON snapshot (schema ``repro-obs/v1``) and a
  chrome-trace file rendering the per-unit pipeline timeline.

Disabled by default with near-zero overhead; enable per-process with
``REPRO_TRACE=1`` or programmatically (this is also the whole recipe
for a simulator timeline; no CLI flag wraps it)::

    from repro import obs
    from repro.sim import Engine
    obs.configure(enabled=True, reset=True)
    Engine().run(trace)
    obs.dump_chrome_trace("timeline.json")
"""

from repro.obs.export import (SCHEMA, snapshot, to_chrome_trace,
                              write_chrome_trace, write_json)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import (NOOP_SPAN, SIM, WALL, Span, Tracer,
                              configure, get_tracer)

__all__ = [
    "SCHEMA", "SIM", "WALL", "NOOP_SPAN",
    "Counter", "Histogram", "MetricsRegistry", "Span", "Tracer",
    "configure", "get_tracer", "snapshot", "to_chrome_trace",
    "write_chrome_trace", "write_json",
    "count", "dump_chrome_trace", "dump_json", "enabled", "event",
    "observe", "span", "reset",
]


# -- module-level conveniences delegating to the global tracer ------------

def enabled() -> bool:
    return get_tracer().enabled


def span(name: str, track: str | None = None, **labels):
    return get_tracer().span(name, track=track, **labels)


def event(name: str, start_s: float, duration_s: float, **kwargs) -> None:
    get_tracer().event(name, start_s, duration_s, **kwargs)


def count(name: str, amount: float = 1.0) -> None:
    get_tracer().count(name, amount)


def observe(name: str, value: float) -> None:
    get_tracer().observe(name, value)


def reset() -> None:
    get_tracer().reset()


def dump_json(path: str) -> None:
    """Write the global tracer's JSON snapshot to ``path``."""
    write_json(get_tracer(), path)


def dump_chrome_trace(path: str) -> None:
    """Write the global tracer's chrome-trace file to ``path``."""
    write_chrome_trace(get_tracer(), path)
