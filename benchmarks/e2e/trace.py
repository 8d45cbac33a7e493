"""In-memory spans around a fixed table of public ``repro.*`` callables.

The traced run of the benchmark answers "where does an iteration's
wall time go" without touching ``src/``: :meth:`Patches.on` replaces each
callable of :data:`WRAP_TABLE` by a wrapper that records one span
(name, start, end, parent), on the defining module or class *and* on
every loaded ``repro.*`` module that imported the same object by name;
:meth:`Patches.off` puts the originals back.  Spans stay in memory until
the run ends (:meth:`Recorder.dump`).

A span's *self time* is its duration minus the time covered by its
child spans, so nested layers (``transform_limbs`` calling
``BatchNttPlan.forward``, a key switch calling NTT and BConv) never
count the same nanosecond twice, and an iteration's wall is exactly
the sum of all self times below it plus the unwrapped residual
(``ckks.context.glue_s``).

The table is deliberately coarse (a few hundred spans per CKKS
iteration): the runner reports ``harness.trace_overhead_share`` and
refuses to be trusted above 0.15.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# span record layout (a list, cheaper than an object in the wrapper)
NAME, START, END, PARENT, NOTE, CHILD = range(6)


class Recorder:
    """Collects spans; one parent stack per thread (serve computes on
    a worker thread while the event loop admits requests)."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    @contextmanager
    def span(self, name: str, note=None):
        """A span around one of the benchmark's own calls."""
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else None, note, 0.0]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` recorded as span ``name``; ``note(*args)`` may attach
        a work figure (limbs, bytes, seeds) computed from the call."""
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      note(*args, **kwargs) if note else None, 0.0]
            spans.append(record)
            stack.append(record)
            record[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    # -- analysis ---------------------------------------------------------
    def close_books(self) -> None:
        """Fill every span's child time (call once, after the run)."""
        for record in self.spans:
            record[CHILD] = 0.0
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                parent[CHILD] += record[END] - record[START]

    def by_root(self, root_name: str) -> list[dict]:
        """Per parentless span named ``root_name`` (one iteration or
        one served batch each), in order: ``{"start": t, "wall": s,
        "note": .., "self": {name: s}, "incl": {name: s},
        "calls": {name: n}, "notes": {name: [..]}}`` over the spans
        below it.

        ``self`` sums self times, ``incl`` sums durations of spans
        whose parent does not carry the same name (so recursion does
        not double count), ``calls`` counts those outermost spans.
        """
        self.close_books()
        root_of: dict[int, dict | None] = {}
        out = []
        for record in self.spans:
            parent = record[PARENT]
            if parent is None:
                group = None
                if record[NAME] == root_name:
                    group = {"start": record[START],
                             "wall": record[END] - record[START],
                             "note": record[NOTE],
                             "self": defaultdict(float),
                             "incl": defaultdict(float),
                             "calls": defaultdict(int),
                             "notes": defaultdict(list)}
                    out.append(group)
            else:
                group = root_of.get(id(parent))
            root_of[id(record)] = group
            if group is None or parent is None:
                continue
            name = record[NAME]
            duration = record[END] - record[START]
            group["self"][name] += duration - record[CHILD]
            if parent[NAME] != name:
                group["incl"][name] += duration
                group["calls"][name] += 1
            if record[NOTE] is not None:
                group["notes"][name].append(record[NOTE])
        return out

    def dump(self, path) -> None:
        """One JSON line per span: name, start, end, parent index."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                parent = record[PARENT]
                handle.write(json.dumps(
                    [record[NAME], record[START], record[END],
                     -1 if parent is None else index[id(parent)]]) + "\n")


# -- the wrap table ---------------------------------------------------------
# (target, span name, note).  A target is "module:attr" or
# "module:Class.attr".  Span names are the per-layer buckets the runner
# reports; several callables may share one bucket.

def _limbs(_plan, limbs, *_a, **_k):
    return len(limbs)


def _one(*_a, **_k):
    return 1


def _transform_limbs(limbs, *_a, **_k):
    return 0          # the plan span below carries the limb count


def _bconv_bytes(plan, limbs, *_a, **_k):
    return (plan.k_in + plan.k_out) * (len(limbs[0]) if limbs else 0) * 8


def _rows(_plan, rows, *_a, **_k):
    return len(rows)


def _seeds(_executor, _trace, seeds, *_a, **_k):
    return tuple(int(s) for s in seeds)


WRAP_TABLE = (
    ("repro.ckks.encoding:encode_to_coeffs", "ckks.encoding", None),
    ("repro.ckks.encoding:decode_from_coeffs", "ckks.encoding", None),
    ("repro.ckks.ntt:transform_limbs", "ckks.ntt", _transform_limbs),
    ("repro.ckks.ntt:NttPlan.forward", "ckks.ntt", _one),
    ("repro.ckks.ntt:NttPlan.inverse", "ckks.ntt", _one),
    ("repro.ckks.ntt:BatchNttPlan.forward", "ckks.ntt", _limbs),
    ("repro.ckks.ntt:BatchNttPlan.inverse", "ckks.ntt", _limbs),
    ("repro.ckks.rns:BConvPlan.convert", "ckks.rns.bconv", _bconv_bytes),
    ("repro.ckks.rns:base_convert", "ckks.rns.bconv", None),
    ("repro.ckks.rns:RnsPoly.automorphism", "ckks.rns.auto", None),
    ("repro.ckks.rns:RnsPoly.__mul__", "ckks.rns.ewise", None),
    ("repro.ckks.rns:RnsPoly.__add__", "ckks.rns.ewise", None),
    ("repro.ckks.rns:RnsPoly.__sub__", "ckks.rns.ewise", None),
    ("repro.ckks.keyswitch.hybrid:hybrid_decompose",
     "ckks.keyswitch.hybrid.modup", None),
    ("repro.ckks.keyswitch.hybrid:key_mult_accumulate",
     "ckks.keyswitch.hybrid.keymult", None),
    ("repro.ckks.keyswitch.hybrid:KeyMultPlan.accumulate",
     "ckks.keyswitch.hybrid.keymult", None),
    ("repro.ckks.keyswitch.hybrid:mod_down_pair",
     "ckks.keyswitch.hybrid.moddown", None),
    ("repro.ckks.keyswitch.hybrid:mod_down_batch",
     "ckks.keyswitch.hybrid.moddown", None),
    ("repro.ckks.keyswitch.hybrid:mod_down_rescale_pair",
     "ckks.keyswitch.hybrid.moddown", None),
    ("repro.ckks.keyswitch.klss:klss_decompose",
     "ckks.keyswitch.klss.decompose", None),
    ("repro.ckks.keyswitch.klss:klss_key_switch",
     "ckks.keyswitch.klss.switch", None),
    ("repro.ckks.keyswitch.hoisting:permute_and_accumulate",
     "ckks.keyswitch.hoisting.permute_acc", None),
    ("repro.serve.engine:ServeExecutor.run_batch",
     "serve.engine.batch", _seeds),
    ("repro.serve.engine:RowBatchNtt.forward", "serve.engine.ntt", _rows),
    ("repro.serve.engine:RowBatchNtt.inverse", "serve.engine.ntt", _rows),
    ("repro.sim.engine:Engine.make_policy", "core.aether", None),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


class Patches:
    """Every callable of the table wrapped for ``recorder``; ``on`` puts
    the wrappers in place and ``off`` the originals back, cheaply enough
    to toggle between iterations."""

    def __init__(self, recorder: Recorder):
        self._sites = []        # (holder, attr, original, wrapper)
        for target, name, note in WRAP_TABLE:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            wrapper = recorder.wrap(original, name, note)
            holders = [owner]
            if not isinstance(owner, type):
                # ``from module import fn`` copies the reference: patch
                # every loaded repro module that holds the same object.
                holders += [module for mod_name, module
                            in list(sys.modules.items())
                            if mod_name.startswith("repro.")
                            and module is not owner
                            and vars(module).get(attr) is original]
            self._sites += [(holder, attr, original, wrapper)
                            for holder in holders]

    def on(self) -> None:
        for holder, attr, _, wrapper in self._sites:
            setattr(holder, attr, wrapper)

    def off(self) -> None:
        for holder, attr, original, _ in self._sites:
            setattr(holder, attr, original)
