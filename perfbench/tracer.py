"""Out-of-program tracer: wraps the repro package's functions per layer.

The tracer patches functions at *class level* (and module level for free
functions) for the duration of one traced run, then puts the originals
back.  Nothing inside ``src/`` knows it exists.  Each wrapped call is a
span: it records its name, start, end and parent span, and carries the
request id (``Request.index``) of the first ``Request`` among its
arguments, or its parent's id when it has none.  Self time — a span's
duration minus the time its child spans cover — is aggregated in memory
per function and summed per layer; full spans are kept only for a
sampled set of request ids and written out at the end.  The columnar
batch engine creates no ``Request`` objects, so its spans carry none.

Layers are named after the repository's modules (``sim.engine``,
``sched``, ``server.driver``, ...).  ``Simulator.__init__`` is additionally
hooked to count event pushes through the engine's public
``on_event_scheduled`` hook and to collect ``events_processed``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

#: Layer -> modules whose classes and functions belong to it.
LAYER_MODULES = {
    "sim.engine": ("repro.sim.engine", "repro.sim.events"),
    "sim.source": ("repro.sim.source",),
    "sched": (
        "repro.sched.base", "repro.sched.classifier", "repro.sched.fcfs",
        "repro.sched.fair", "repro.sched.miser", "repro.sched.edf",
        "repro.sched.drr", "repro.sched.sized", "repro.sched.pclock",
    ),
    "server.driver": (
        "repro.server.driver", "repro.server.cluster", "repro.server.sizesplit",
    ),
    "server.base": (
        "repro.server.base", "repro.server.constant_rate", "repro.server.farm",
    ),
    "server.aqm": ("repro.server.aqm",),
    "sim.stats": ("repro.sim.stats",),
    "sim.batch": ("repro.sim.batch",),
    "core.capacity": ("repro.core.capacity", "repro.core.rtt"),
    "perf.kernels": (
        "repro.perf.kernels", "repro.perf.native", "repro.perf.scalar",
        "repro.perf.vectorized",
    ),
    "faults": (
        "repro.faults.server", "repro.faults.injector", "repro.faults.controller",
        "repro.faults.retry", "repro.faults.invariants",
    ),
    "serve.ingest": ("repro.serve.ingest",),
    "serve.admission": ("repro.serve.admission",),
    "serve.harness": ("repro.serve.harness",),
    "serve.autoscaler": ("repro.serve.autoscaler",),
    "obs": ("repro.obs.registry", "repro.obs.sampler"),
}

#: Functions whose every call duration is kept (for percentiles).
KEEP_DURATIONS = ("AdmissionService.decide",)

#: Dunder methods worth tracing (event callbacks are callable objects).
_DUNDERS = ("__call__",)


def _traced_members(module):
    """(owner, attribute, function, qualified name) for one module."""
    out = []
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("__") and attr not in _DUNDERS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    continue
                if inspect.isfunction(raw):
                    out.append((obj, attr, raw, f"{obj.__name__}.{attr}"))
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            short = module.__name__.rsplit(".", 1)[-1]
            out.append((module, name, obj, f"{short}.{name}"))
    return out


class Tracer:
    """Class-level function wrapping for one traced run.

    Use as a context manager; ``sample_ids`` are the request ids whose
    full span trees are kept.
    """

    def __init__(self, sample_ids=()):
        self.sample_ids = frozenset(sample_ids)
        #: Qualified function name -> layer, filled by :meth:`install`.
        self.layer_of: dict[str, str] = {}
        #: Label stamped on recorded spans (the benchmark sets the leg).
        self.label = ""
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = [False]
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (patches stay installed)."""
        #: Self time, call count and inclusive time per qualified name.
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list] = {name: [] for name in KEEP_DURATIONS}
        self.spans: list[tuple] = []
        self.simulators: list = []
        self.pushes = 0
        self._stack.clear()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        from repro.core.request import Request

        stack = self._stack
        paused = self._paused
        clock = time.perf_counter
        tracer = self
        keep = qualname in KEEP_DURATIONS
        self.layer_of[qualname] = layer

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            rid = parent[1] if parent is not None else None
            for arg in args:
                if type(arg) is Request:
                    rid = arg.index
                    break
            frame = [0.0, rid, next(tracer._ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.self_time[qualname] += elapsed - frame[0]
                tracer.calls[qualname] += 1
                tracer.inclusive[qualname] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                if keep:
                    tracer.durations[qualname].append(elapsed)
                if rid is not None and rid in tracer.sample_ids:
                    tracer.spans.append((
                        rid, frame[2], parent[2] if parent is not None else 0,
                        qualname, layer, tracer.label, start, end,
                    ))

        traced.__wrapped__ = fn
        return traced

    def _hook_simulator(self) -> None:
        from repro.sim.engine import Simulator

        original = Simulator.__init__
        tracer = self

        def count_push(_time, _priority):
            if not tracer._paused[0]:
                tracer.pushes += 1

        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sim.on_event_scheduled = count_push
            if not tracer._paused[0]:
                tracer.simulators.append(sim)

        self._patches.append((Simulator, "__init__", original))
        Simulator.__init__ = init

    def install(self) -> "Tracer":
        layers = {
            layer: [importlib.import_module(name) for name in names]
            for layer, names in LAYER_MODULES.items()
        }
        repro_modules = [
            m for name, m in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, modules in layers.items():
            for module in modules:
                for owner, attr, fn, qualname in _traced_members(module):
                    wrapper = self._wrap(fn, layer, qualname)
                    if owner is module:
                        # Free functions are also bound by name in the
                        # modules that imported them; patch every alias.
                        for other in repro_modules:
                            if vars(other).get(attr) is fn:
                                self._patches.append((other, attr, fn))
                                setattr(other, attr, wrapper)
                    else:
                        self._patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
        self._hook_simulator()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pause(self) -> None:
        """Stop recording (wrappers stay installed but pass through)."""
        self._paused[0] = True

    def resume(self) -> None:
        self._paused[0] = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    @property
    def events(self) -> int:
        return sum(sim.events_processed for sim in self.simulators)

    def layer_self(self, layer: str) -> float:
        """Self seconds of every function in ``layer``."""
        return sum(
            t for name, t in self.self_time.items() if self.layer_of[name] == layer
        )

    def self_matching(self, match) -> float:
        return sum(t for name, t in self.self_time.items() if match(name))

    def calls_matching(self, match) -> int:
        return sum(n for name, n in self.calls.items() if match(name))

    def inclusive_matching(self, match) -> float:
        return sum(t for name, t in self.inclusive.items() if match(name))

    def write_spans(self, path) -> int:
        """Write the sampled spans as JSON lines; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for rid, sid, parent, name, layer, label, start, end in self.spans:
                handle.write(json.dumps({
                    "request": rid, "span": sid, "parent": parent,
                    "name": name, "layer": layer, "leg": label,
                    "start": start, "end": end,
                }) + "\n")
        return len(self.spans)
