"""Spans around the public functions of every walklang module, from outside.

:class:`Tracer` replaces each public module-level function of the
``walklang`` package, and each public classmethod of its classes, with a
wrapper that records one span ``(name, start, end, parent)`` per call, at
every module attribute the function is bound to (``walk.evolve`` is also
``machines.evolve``, ``cli.evolve`` and ``walklang.evolve``).  Spans stay
in memory until :meth:`Tracer.summary`; :meth:`Tracer.restore` puts every
original back.  Nothing in ``src/`` knows about it.

A span's self time is its duration minus the time its child spans cover.
Self time is summed twice: by layer (the defining module, so the layers
add up to the traced wall time exactly) and by stage (the named groups in
``STAGES``; a span outside every stage belongs to the nearest enclosing
span that is in one).  Counts and health gauges are computed at the end
from the arguments and results kept for a few functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "coins", "walk", "encoding", "machines", "metrics", "cli")

STAGES = {
    "walk.evolve": ("walk.evolve", "walk.step"),
    "walk.measure": ("walk.vertex_probability", "walk.all_vertex_probabilities"),
    "walk.parse": ("walk.CoinAssignment.from_text", "walk.state_from_text"),
    "graph.parse": ("graph.PortGraph.from_edge_lines",),
    "coins.unitarity": ("coins.unitarity_defect",),
    "encoding.encode": (
        "encoding.initial_state",
        "encoding.spatial_initial_state",
        "encoding.sequential_initial_state",
        "encoding.quantum_initial_state",
    ),
    "machines.build": (
        "machines.machine_for_length",
        "machines.spatial_eq",
        "machines.spatial_ab",
        "machines.sequential_ab",
        "machines.sequential_eq",
        "machines.sequential_word",
    ),
    "metrics.jaro": ("metrics.jaro",),
    "metrics.fidelity": ("metrics.fidelity",),
}
STAGE_OF = {name: stage for stage, names in STAGES.items() for name in names}

# functions whose arguments and results are kept for the counts and gauges
OBSERVED = (
    "walk.evolve",
    "coins.unitarity_defect",
    "machines.word_acceptance",
    "walk.CoinAssignment.from_text",
    "walk.state_from_text",
)

# complex128 amplitude and int64 index sizes for the computed byte model
_C, _I = 16, 8


def _qualified(fn) -> str:
    return f"{fn.__module__.removeprefix('walklang.')}.{fn.__qualname__}"


class Tracer:
    """Install span wrappers on the loaded ``walklang`` modules."""

    def __init__(self, expected=tuple(STAGE_OF) + OBSERVED):
        self.expected = tuple(dict.fromkeys(expected))
        self.names: list[str] = []
        self.spans: list = []
        self.observed: list = []
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self._originals: dict[str, object] = {}
        self._restore: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        for modname, module in sorted(sys.modules.items()):
            if modname != "walklang" and not modname.startswith("walklang."):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and self._public(value):
                    self._rebind(module, attr, value, self._wrapper(value))
                elif inspect.isclass(value) and value.__module__ == modname:
                    for name, desc in list(vars(value).items()):
                        if name.startswith("_") or not isinstance(
                            desc, (classmethod, staticmethod)
                        ):
                            continue
                        wrapped = type(desc)(self._wrapper(desc.__func__))
                        self._rebind(value, name, desc, wrapped)
        return self

    def restore(self) -> None:
        """Put every original function and classmethod back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def missing(self) -> list[str]:
        """Expected names that no loaded module defines any more."""
        return [name for name in self.expected if name not in self._originals]

    @staticmethod
    def _public(fn) -> bool:
        return fn.__module__.startswith("walklang") and not fn.__name__.startswith("_")

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrapper(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = _qualified(fn)
        fid = len(self.names)
        self.names.append(name)
        self._originals[name] = fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observed = self.observed if name in OBSERVED else None

        if inspect.isgeneratorfunction(fn):
            # one span per item, so lazy work lands where it is consumed
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    spans.append(None)
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[index] = (fid, start, end, stack[-1])
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (fid, start, end, stack[-1])
                if observed is not None:
                    observed.append((name, args, kwargs, result))
                return result

        self._wrappers[id(fn)] = traced
        return traced

    # -- results -------------------------------------------------------------

    def write(self, path, run_id: str) -> None:
        """Write the spans as tab-separated ``run name start end parent`` rows."""
        with open(path, "w") as out:
            out.write("run\tname\tstart_ns\tend_ns\tparent\n")
            for fid, start, end, parent in self.spans:
                out.write(f"{run_id}\t{self.names[fid]}\t{start}\t{end}\t{parent}\n")

    def summary(self) -> dict:
        """Per-layer self times, stage times and calls, counts and gauges."""
        spans = self.spans
        covered = [0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        stage_by_fid = [STAGE_OF.get(name) for name in self.names]
        layer_by_fid = [name.split(".", 1)[0] for name in self.names]
        layer_ns: dict[str, int] = defaultdict(int)
        stage_ns: dict[str, int] = defaultdict(int)
        stage_calls: dict[str, int] = defaultdict(int)
        stage_of_span = [None] * len(spans)
        wall_ns = 0
        for i, (fid, start, end, parent) in enumerate(spans):
            own = stage_by_fid[fid]
            outer = stage_of_span[parent] if parent >= 0 else None
            stage = stage_of_span[i] = own or outer
            self_ns = end - start - covered[i]
            layer_ns[layer_by_fid[fid]] += self_ns
            if stage is not None:
                stage_ns[stage] += self_ns
            if own is not None and own != outer:
                stage_calls[own] += 1
            if parent < 0:
                wall_ns += end - start

        out = {f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS}
        out["other.self_s"] = sum(
            ns for layer, ns in layer_ns.items() if layer not in LAYERS
        ) / 1e9
        for stage in STAGES:
            out[f"{stage}_s"] = stage_ns[stage] / 1e9
            out[f"{stage}_calls"] = stage_calls[stage]
        out.update(self._counts())
        evolve_ns = stage_ns["walk.evolve"]
        out["walk.ns_per_port_step"] = (
            evolve_ns / out["walk.port_steps"] if out["walk.port_steps"] else 0.0
        )
        out["trace.wall_s"] = wall_ns / 1e9
        out["trace.self_sum_error_ns"] = wall_ns - sum(layer_ns.values())
        out["trace.spans"] = len(spans)
        out["trace.missing_names"] = len(self.missing)
        return out

    def _counts(self) -> dict:
        import numpy as np

        c = dict.fromkeys(
            ("walk.steps", "walk.port_steps", "walk.coin_macs", "walk.bytes_computed",
             "walk.nonfinite", "walk.parse_bytes", "coins.unitarity_entries",
             "cli.nan_acceptance", "trace.hook_errors"),
            0,
        )
        c.update(dict.fromkeys(
            ("walk.max_norm_drift", "cli.max_clamp", "coins.max_unitarity_defect"), 0.0
        ))
        squares: dict[int, int] = {}
        for name, args, kwargs, result in self.observed:
            try:
                a = inspect.signature(self._originals[name]).bind(*args, **kwargs).arguments
                if name == "walk.evolve":
                    steps = int(a["steps"])
                    ports = a["state"].graph.num_ports
                    coins = a["coins"]
                    if id(coins) not in squares:
                        squares[id(coins)] = sum(d * d for d in coins.graph.degrees())
                    c["walk.steps"] += steps
                    c["walk.port_steps"] += ports * steps
                    c["walk.coin_macs"] += squares[id(coins)] * steps
                    # per step: read every coin block, state in and out of the
                    # coin, the shift's index array, state in and out of the shift
                    c["walk.bytes_computed"] += steps * (
                        _C * squares[id(coins)] + (4 * _C + _I) * ports
                    )
                    amps = np.asarray(result.amplitudes)
                    finite = np.isfinite(amps)
                    c["walk.nonfinite"] += int(amps.size - np.count_nonzero(finite))
                    if finite.all():
                        drift = abs(float(np.linalg.norm(amps)) - 1.0)
                        c["walk.max_norm_drift"] = max(c["walk.max_norm_drift"], drift)
                elif name == "coins.unitarity_defect":
                    c["coins.unitarity_entries"] += int(np.asarray(a["matrix"]).size)
                    c["coins.max_unitarity_defect"] = max(
                        c["coins.max_unitarity_defect"], float(result)
                    )
                elif name == "machines.word_acceptance":
                    p = float(result)
                    if p != p:
                        c["cli.nan_acceptance"] += 1
                    else:
                        c["cli.max_clamp"] = max(c["cli.max_clamp"], p - 1.0, -p)
                else:
                    c["walk.parse_bytes"] += len(a["text"])
            except (KeyError, TypeError, AttributeError, ValueError):
                c["trace.hook_errors"] += 1
        return c
