"""Spans around the public entry points of each layer, recorded from outside.

The program is not modified: :class:`Tracer` replaces each entry point
(a class attribute, or a module function in every ``repro`` module that
bound it by name) with a wrapper that records a span while tracing is
enabled.  Spans nest on one stack on the coordinator's main thread; work
done inside pool workers comes back through the ``PlanStats`` the
workers already return.

A span's *self* time is its duration minus the durations of its child
spans.  Per operation, the self times of every span plus the operation's
own uncovered time (``unattributed``) add up to the operation's wall time.
A layer's *inclusive* time counts only its outermost spans, so a layer
that calls itself is not counted twice.

:class:`PlanCapture` is the only patch an untraced run installs: it keeps
the :class:`~repro.execution.sliced.SlicedExecutor` of each executed plan
so the benchmark can read the slicing it ran, and measures no time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class OpTrace:
    """Spans and captures of one traced operation (or of the setup)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        self.tensors = 0
        self.searches: List[Tuple[int, object]] = []  # (trials, tree)
        self.checkpoint_bytes = 0

    def attributed_s(self) -> float:
        return sum(self.self_s.values()) + self.unattributed_s


def _replace_function(module_name: str, attr: str, make: Callable) -> None:
    """Wrap a module function everywhere a ``repro`` module bound it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def _replace_method(cls: type, attr: str, make: Callable) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def _classes_defining(base: type, attr: str) -> List[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class PlanCapture:
    """Keeps every executed ``SlicedExecutor`` in :attr:`executors`."""

    def __init__(self) -> None:
        from repro.execution.sliced import SlicedExecutor

        self.executors: List[object] = []

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def run(executor, *args, **kwargs):
                result = fn(executor, *args, **kwargs)
                self.executors.append(executor)
                return result

            return run

        _replace_method(SlicedExecutor, "run", make)


class Tracer:
    """Records spans around each layer's entry points while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.current: Optional[OpTrace] = None
        self._stack: List[List] = []  # [name, start, child seconds]
        self._main = threading.get_ident()
        self._install()

    # ------------------------------------------------------------------
    def _span(self, name: str, hook: Optional[Callable] = None) -> Callable:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled or threading.get_ident() != self._main:
                    return fn(*args, **kwargs)
                outer = all(frame[0] != name for frame in self._stack)
                frame = [name, time.perf_counter(), 0.0]
                self._stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - frame[1]
                    self._stack.pop()
                    self._stack[-1][2] += duration
                    op = self.current
                    op.self_s[name] += duration - frame[2]
                    if outer:
                        op.incl_s[name] += duration
                if hook is not None:
                    hook(self.current, args, result)
                return result

            return wrapper

        return make

    def _install(self) -> None:
        from repro.core.secondary import SecondarySlicer
        from repro.core.slice_finder import LifetimeSliceFinder
        from repro.core.slice_refiner import SimulatedAnnealingSliceRefiner
        from repro.execution.backend import ExecutionBackend
        from repro.execution.checkpoint import CheckpointJob
        from repro.execution.plan import CompiledPlan
        from repro.execution.sampling import CorrelatedSampler
        from repro.execution.sliced import SlicedExecutor
        from repro.paths.optimizer import HyperOptimizer
        from repro.pipeline import SimulationPlanner
        from repro.tensornet.circuit_to_tn import CircuitToTensorNetwork

        def count_tensors(op: OpTrace, args: Tuple, _result) -> None:
            op.tensors += args[0].num_tensors

        def keep_search(op: OpTrace, args: Tuple, tree) -> None:
            op.searches.append((len(args[0].trials), tree))

        def count_bytes(op: OpTrace, args: Tuple, _result) -> None:
            op.checkpoint_bytes += int(args[2].nbytes)

        span = self._span
        _replace_method(CircuitToTensorNetwork, "convert", span("tensornet.build"))
        _replace_function(
            "repro.tensornet.simplify", "simplify_network",
            span("tensornet.simplify", count_tensors),
        )
        _replace_method(HyperOptimizer, "search", span("paths.search", keep_search))
        _replace_method(LifetimeSliceFinder, "find", span("core.find"))
        _replace_method(SimulatedAnnealingSliceRefiner, "refine", span("core.refine"))
        _replace_method(SecondarySlicer, "plan", span("core.secondary"))
        _replace_method(SimulationPlanner, "plan_tree", span("pipeline.plan_tree"))
        _replace_function("repro.execution.plan", "compile_plan", span("plan.compile"))
        _replace_method(CompiledPlan, "warm_cache", span("plan.warm"))
        _replace_method(CompiledPlan, "execute", span("plan.execute"))
        _replace_method(SlicedExecutor, "run", span("sliced"))
        _replace_method(SlicedExecutor, "amplitude", span("sliced"))
        for cls in _classes_defining(ExecutionBackend, "run_subtasks"):
            _replace_method(cls, "run_subtasks", span("backend.run"))
        for cls in _classes_defining(ExecutionBackend, "session"):
            _replace_method(cls, "session", span("backend.session"))
        # record_chunk and flush are part of the same layer: nested inside a
        # record span they add self time but no second inclusive count
        _replace_method(CheckpointJob, "record", span("checkpoint.record", count_bytes))
        _replace_method(CheckpointJob, "record_chunk", span("checkpoint.record"))
        _replace_method(CheckpointJob, "flush", span("checkpoint.record"))
        _replace_method(CorrelatedSampler, "build_network", span("sampling.build"))
        _replace_method(CorrelatedSampler, "plan_tree", span("sampling.plan"))

    # ------------------------------------------------------------------
    def begin(self) -> OpTrace:
        """Start a root span; every span until :meth:`end` belongs to it."""
        self.current = OpTrace()
        self._stack = [["op", time.perf_counter(), 0.0]]
        self.enabled = True
        return self.current

    def end(self) -> OpTrace:
        root = self._stack.pop()
        op = self.current
        op.wall_s = time.perf_counter() - root[1]
        op.unattributed_s = op.wall_s - root[2]
        self.enabled = False
        if self._stack:
            raise RuntimeError(f"spans left open: {[frame[0] for frame in self._stack]}")
        return op
