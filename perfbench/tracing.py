"""Wrap-and-span tracing of the program's layers, from outside the program.

The traced run patches each layer's public entry points with a wrapper
that records a span (name, start, end, parent span, request id, phase)
and a few counts taken from the call's arguments or result.  Nothing in
``src/`` changes: a wrapper replaces every name a caller looks up, which
means every module attribute (and every registry-dict entry, such as
``repro.sca.matrix.STYLE_BUILDERS``) that holds the original function,
or the method on its class.  :func:`patched` restores every name on
exit, including names bound to a wrapper by a module imported while
tracing was on.

Spans stay in memory; :meth:`Tracer.write` dumps them as JSON lines
when the run ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request: Optional[str]
    phase: str
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span store plus the request/phase context the wrappers stamp."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        self.phase = "setup"
        self._local = threading.local()
        #: Distinct (acquirer fingerprint minus noise, plaintext) pairs
        #: of the current repetition.
        self.inputs: set = set()
        self._acquirer_keys: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``count(args,
        kwargs, result)`` returns the span's counts.  A call to the
        :data:`REQUEST_SPAN` layer begins a new request."""
        starts_request = name == REQUEST_SPAN

        def traced(*args, **kwargs):
            if starts_request:
                self.request = f"{name}:{len(self.spans)}"
            stack = self._stack()
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.request,
                        self.phase)
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note_input(self, acquirer, plaintext: int) -> None:
        key = self._acquirer_keys.get(acquirer)
        if key is None:
            fingerprint = dict(acquirer.fingerprint())
            fingerprint.pop("noise", None)
            key = json.dumps(fingerprint, sort_keys=True)
            self._acquirer_keys[acquirer] = key
        self.inputs.add((key, int(plaintext)))

    def self_times(self) -> List[float]:
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request, "phase": span.phase,
                    "counts": span.counts}) + "\n")


#: The layer whose every call begins a request: a Fig. 3 sweep point
#: starts with its bias solve.  Other workloads set ``Tracer.request``
#: themselves or through :func:`_request_hooks`.
REQUEST_SPAN = "cells.bias"


# -- what gets wrapped --------------------------------------------------------

def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _traces(args, kwargs, result):
    return {"traces": len(result)}


def _events(args, kwargs, result):
    return {"events": len(result.transitions)}


def _transient(args, kwargs, result):
    stats = result.stats
    return {"steps": stats.steps_taken, "halvings": stats.halvings,
            "newton_failures": stats.newton_failures}


def _dc(args, kwargs, result):
    diagnostics = result.diagnostics
    return {"newton_iters": diagnostics.total_iterations
            if diagnostics is not None else 0}


def _stored_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _matrix(args, kwargs, result):
    return {"cells": len(result.cells),
            "acquisitions": result.acquisitions,
            "reused": result.acquisitions_reused}


#: (span name, "module:function" or "module:Class.method", counter).
#: Functions are patched wherever a ``repro`` module holds them; methods
#: on their class.
TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("netlist.logicsim", "repro.netlist.logicsim:LogicSimulator.run",
     _events),
    ("netlist.logicsim", "repro.netlist.logicsim:LogicSimulator.initialize",
     None),
    ("power.compose", "repro.power.trace:activity_current", None),
    ("power.compose", "repro.power.trace:differential_baseline", None),
    ("power.compose", "repro.power.trace:wddl_baseline", None),
    ("power.compose", "repro.power:wddl_current", None),
    ("power.measure", "repro.power.noise:MeasurementChain.measure",
     lambda a, k, r: {"traces": 1}),
    ("power.measure", "repro.power.noise:MeasurementChain.measure_block",
     _traces),
    ("power.model_init", "repro.power:BlockPowerModel.__init__", None),
    ("sca.acquirer_init", "repro.sca.acquisition:TraceAcquirer.__init__",
     None),
    ("sca.acquire", "repro.sca.acquisition:TraceAcquirer.acquire", _traces),
    ("sca.pool", "repro.sca.acquisition:AcquisitionPool.acquire", None),
    ("sca.cpa", "repro.sca.cpa:cpa_attack", _rows),
    ("sca.mtd", "repro.sca.metrics:mtd", None),
    ("sca.highorder", "repro.sca.highorder:second_order_cpa", None),
    ("sca.highorder", "repro.sca.highorder:mlpa_attack", None),
    ("sca.tvla", "repro.sca.ttest:welch_t", None),
    ("sca.matrix", "repro.sca.matrix:run_matrix", _matrix),
    ("cells.library", "repro.cells:build_cmos_library", None),
    ("cells.library", "repro.cells:build_mcml_library", None),
    ("cells.library", "repro.cells:build_pg_mcml_library", None),
    ("cells.library", "repro.cells:build_wddl_library", None),
    ("cells.library", "repro.cells:library_at_corner", None),
    ("cells.preflight", "repro.cells:preflight_library", None),
    ("synth.reduced_aes", "repro.sca.attack:build_reduced_aes", None),
    ("cells.characterize", "repro.cells:characterize_mcml_cell", None),
    ("cells.bias", "repro.cells:solve_bias", None),
    ("spice.transient", "repro.spice.transient:run_transient", _transient),
    ("spice.dc", "repro.spice.dc:solve_dc", _dc),
    ("service.ledger.append", "repro.service.ledger:JobLedger.append", None),
    ("service.ledger.refresh", "repro.service.ledger:JobLedger.refresh",
     None),
    ("service.store.put", "repro.service.store:ResultStore.put",
     _stored_bytes),
    ("service.store.get", "repro.service.store:ResultStore.get", None),
    ("service.claim", "repro.service.queue:JobQueue.claim", None),
    ("service.complete", "repro.service.queue:JobQueue.complete", None),
)


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _holders(callers=()):
    """Every namespace a caller may look a ``repro`` function up in: the
    program's modules, the ``callers`` modules, and dicts they hold."""
    modules = [module for name, module in list(sys.modules.items())
               if module is not None and name.startswith("repro")]
    for module in modules + list(callers):
        namespace = vars(module)
        yield namespace
        for value in list(namespace.values()):
            if type(value) is dict:
                yield value


def _swap(mapping: Dict[int, Callable], callers) -> None:
    """Rebind every holder entry whose value's id is in ``mapping``."""
    for namespace in _holders(callers):
        for key, value in list(namespace.items()):
            replacement = mapping.get(id(value))
            if replacement is not None and value is not replacement:
                namespace[key] = replacement


def _request_hooks(tracer: Tracer):
    """Non-span hooks: request boundaries and distinct-input bookkeeping."""
    from repro.sca.acquisition import TraceAcquirer
    from repro.sca.matrix import _GridRunner

    ideal = TraceAcquirer.ideal_samples
    run_cell = _GridRunner.run_cell

    def ideal_samples(self, plaintext):
        tracer.note_input(self, plaintext)
        return ideal(self, plaintext)

    def cell(self, matrix_cell):
        tracer.request = f"cell:{matrix_cell.label()}"
        return run_cell(self, matrix_cell)

    return [(TraceAcquirer, "ideal_samples", ideal, ideal_samples),
            (_GridRunner, "run_cell", run_cell, cell)]


@contextmanager
def patched(tracer: Tracer, callers=()):
    """Install every wrapper for the duration of the block.

    ``callers`` are modules outside the program that call it by
    imported name (the benchmark's workloads)."""
    methods: List[Tuple[type, str, Callable, Callable]] = []
    functions: Dict[int, Callable] = {}
    originals: Dict[int, Callable] = {}
    for name, target, count in TARGETS:
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            original = vars(owner)[attr]
            methods.append((owner, attr, original,
                            tracer.wrap(name, original, count)))
        else:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, count)
            functions[id(original)] = wrapper
            originals[id(wrapper)] = original
    methods += _request_hooks(tracer)
    for owner, attr, _original, wrapper in methods:
        setattr(owner, attr, wrapper)
    _swap(functions, callers)
    try:
        yield tracer
    finally:
        for owner, attr, original, _wrapper in methods:
            setattr(owner, attr, original)
        _swap(originals, callers)
