"""Order-independent trace acquisition.

The Fig. 6 / TVLA campaigns push thousands of event simulations through
the power models and the measurement chain — the repo's heaviest
workload.  This module is the one path every campaign, matrix cell and
job-service chunk acquires through, and its output is **byte-identical**
however a campaign's plaintexts are split into chunks and in whatever
order the chunks run:

* noise is counter-based (:class:`repro.power.MeasurementChain` derives
  trace *i*'s generator from ``(campaign entropy, i)``), so a chunk
  consumes no stream state another chunk needs — the job service
  shards a campaign on this, and checkpointed campaigns resume on it;
* mismatch residuals are a pure function of ``(netlist, mismatch_seed)``
  — every :class:`BlockPowerModel` built for a campaign draws the same
  die;
* a chunk's rows are placed by trace index.

:class:`TraceAcquirer` owns the hoisted per-campaign state (one power
model, one event simulator, the precomputed data-independent baseline
for differential styles), so none of it is rebuilt per chunk, and its
leakage table: the ideal samples of a plaintext byte are simulated once
per acquirer, however often the campaign draws that byte.
:class:`AcquisitionPool` is a campaign's chunked, instrumented session
over one acquirer; :func:`acquire_traces` is the one-shot entry point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AttackError
from ..obs import NULL_TELEMETRY
from ..netlist import GateNetlist, LogicSimulator
from ..power import (
    BlockPowerModel,
    MeasurementChain,
    TraceGrid,
    activity_current,
    differential_baseline,
    wddl_baseline,
    wddl_current,
)
from ..units import ns, ps

#: Trace capture window (the reduced AES settles well within this).
DEFAULT_WINDOW = ns(2.0)
#: Current sampling step for attack traces.
DEFAULT_DT = ps(25.0)
#: Plaintexts acquired per chunk (one ``sca.acquisition.chunk`` span).
DEFAULT_CHUNK = 16


def validate_plaintexts(plaintexts: Sequence[int]) -> List[int]:
    """Whole-batch validation, before any trace is acquired.

    A bad byte in the middle of a campaign must not leave half the work
    done (and the noise counter advanced) before raising.  Only Python
    and NumPy integers in ``0..255`` are plaintext bytes: a float, a
    bool or a numeric string is rejected, never truncated.
    """
    values: List[int] = []
    bad: List[object] = []
    for p in plaintexts:
        if isinstance(p, (int, np.integer)) and not isinstance(p, bool) \
                and 0 <= p <= 0xFF:
            values.append(int(p))
        else:
            bad.append(p)
    if bad:
        shown = ", ".join(repr(b) for b in bad[:8])
        more = "" if len(bad) <= 8 else f" (+{len(bad) - 8} more)"
        raise AttackError(f"plaintext bytes out of range: {shown}{more}")
    return values


class TraceAcquirer:
    """One campaign's trace function: simulate, compose, measure.

    Owns everything that is loop-invariant across the campaign's traces
    — the power model, the event simulator, the key stimulus, and (for
    differential styles) the pre-composed data-independent baseline —
    so per-chunk work is only the per-trace part.
    """

    def __init__(self, netlist: GateNetlist, key: int,
                 chain: Optional[MeasurementChain] = None,
                 grid: Optional[TraceGrid] = None,
                 mismatch_seed: int = 0, t_apply: float = 0.0):
        if not 0 <= key <= 0xFF:
            raise AttackError(f"key byte out of range: {key}")
        self.netlist = netlist
        self.key = key
        self.chain = chain if chain is not None else MeasurementChain()
        self.grid = grid if grid is not None else \
            TraceGrid(0.0, DEFAULT_WINDOW, DEFAULT_DT)
        if not t_apply < self.grid.t1:
            raise AttackError(
                f"t_apply={t_apply:g} must fall before the capture "
                f"window's end t1={self.grid.t1:g}")
        self.mismatch_seed = mismatch_seed
        self.t_apply = t_apply
        self.model = BlockPowerModel(netlist, seed=mismatch_seed)
        self.simulator = LogicSimulator(netlist)
        self._key_stimuli = [
            (t_apply, f"k{b}", bool((key >> (7 - b)) & 1))
            for b in range(8)]
        self._key_inputs = {f"k{b}": bool((key >> (7 - b)) & 1)
                            for b in range(8)}
        if self.model.style == "cmos":
            self._baseline = None
        elif self.model.style == "wddl":
            self._baseline = wddl_baseline(self.model, self.grid)
        else:
            self._baseline = differential_baseline(self.model, self.grid)
        #: Leakage table: plaintext byte -> read-only ideal samples.
        self._table: Dict[int, np.ndarray] = {}

    def fingerprint(self) -> Dict[str, object]:
        """JSON-serialisable identity of this acquirer's trace function.

        Two acquirers with equal fingerprints produce byte-identical
        traces for equal ``(plaintexts, trace_offset)`` — the property
        the campaign job service's content-addressed result store and
        the checkpoint resume guard both key on.  Everything that
        shapes a trace is present: the netlist identity, the key, the
        mismatch die, the capture grid, and the measurement chain's own
        fingerprint (entropy + seeding scheme).
        """
        return {
            "netlist": self.netlist.name,
            "style": self.model.style,
            "key": self.key,
            "mismatch_seed": self.mismatch_seed,
            "t_apply": float(self.t_apply),
            "grid": {"t0": float(self.grid.t0), "t1": float(self.grid.t1),
                     "dt": float(self.grid.dt)},
            "noise": self.chain.fingerprint(),
        }

    def _wddl_samples(self, plaintext: int) -> np.ndarray:
        """One WDDL precharge/evaluate cycle.

        ``reset()`` is the precharge phase — the all-zero wave has
        discharged every rail pair (positive-monotonic gates propagate
        it combinationally).  ``initialize()`` is the evaluate phase:
        the settled single-rail values say which rail of each pair
        charged, and the waveform composes analytically from the static
        arrival profile — each gate evaluates exactly once per cycle,
        so there is no data-dependent transition stream to simulate.
        """
        sim = self.simulator
        sim.reset()
        inputs = dict(self._key_inputs)
        inputs.update({f"p{b}": bool((plaintext >> (7 - b)) & 1)
                       for b in range(8)})
        sim.initialize(inputs)
        values = {
            inst.name: sim.values[inst.pins[inst.cell.outputs[0]]]
            for inst in self.netlist.instances.values()
            if not inst.cell.pseudo}
        return wddl_current(self.model, values, self.grid,
                            baseline=self._baseline)

    def ideal_samples(self, plaintext: int) -> np.ndarray:
        """Pre-instrument current samples for one plaintext.

        Served from this acquirer's leakage table: the first request for
        a byte simulates and composes it, every later one returns the
        same read-only row.  The table is exact because the samples are
        a pure function of the byte — ``reset()`` clears every piece of
        simulator state, and the model, baseline, key stimuli, grid and
        ``t_apply`` are fixed at construction.  It fills lazily (a
        96-trace campaign never simulates the ~170 bytes it does not
        draw) and lives exactly as long as the acquirer.
        """
        row = self._table.get(plaintext)
        if row is None:
            row = self._simulate(plaintext)
            row.flags.writeable = False
            self._table[plaintext] = row
        return row

    def _simulate(self, plaintext: int) -> np.ndarray:
        """Uncached ideal samples: simulate and compose ``plaintext``."""
        if self.model.style == "wddl":
            return self._wddl_samples(plaintext)
        self.simulator.reset()
        stimuli = list(self._key_stimuli)
        stimuli += [(self.t_apply, f"p{b}",
                     bool((plaintext >> (7 - b)) & 1)) for b in range(8)]
        trace = self.simulator.run(stimuli, duration=self.grid.t1)
        return activity_current(self.model, trace, self.grid,
                                baseline=self._baseline)

    def acquire(self, plaintexts: Sequence[int],
                trace_offset: int = 0) -> np.ndarray:
        """Measured traces, one row per plaintext.

        ``trace_offset`` is the campaign-global index of the first
        plaintext — it keys the noise, so a chunk produces the same
        bytes wherever and whenever it runs.  The ideal samples fill
        one ``(n, S)`` block that goes through
        :meth:`~repro.power.MeasurementChain.measure_block` once; the
        noise stays per-trace Philox, so this is byte-identical to
        measuring each trace on its own.
        """
        pts = validate_plaintexts(plaintexts)
        block = np.empty((len(pts), self.grid.n))
        for row, plaintext in enumerate(pts):
            block[row] = self.ideal_samples(plaintext)
        return self.chain.measure_block(block, first_index=trace_offset)


class AcquisitionPool:
    """A campaign's chunked acquisition session over one acquirer.

    Acquires in :data:`DEFAULT_CHUNK` pieces and reports them on
    ``telemetry``: an ``sca.acquisition.acquire`` span per call, an
    ``sca.acquisition.chunk`` child span per chunk, the
    ``sca.acquisition.chunk_seconds`` histogram and the
    ``sca.acquisition.traces`` counter.  Chunking changes no byte (see
    the module docstring).
    """

    def __init__(self, acquirer: TraceAcquirer, telemetry=None):
        self.acquirer = acquirer
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def acquire(self, plaintexts: Sequence[int],
                trace_offset: int = 0) -> np.ndarray:
        """Measured traces for ``plaintexts``, rows in plaintext order."""
        pts = validate_plaintexts(plaintexts)
        tele = self.telemetry
        starts = range(0, len(pts), DEFAULT_CHUNK)
        rows = np.empty((len(pts), self.acquirer.grid.n))
        with tele.span("sca.acquisition.acquire", traces=len(pts),
                       chunks=len(starts), chunk_size=DEFAULT_CHUNK):
            for index, begin in enumerate(starts):
                chunk = pts[begin:begin + DEFAULT_CHUNK]
                with tele.span("sca.acquisition.chunk", chunk=index,
                               offset=trace_offset + begin, n=len(chunk)), \
                        tele.timer("sca.acquisition.chunk_seconds"):
                    rows[begin:begin + len(chunk)] = self.acquirer.acquire(
                        chunk, trace_offset=trace_offset + begin)
                tele.counter("sca.acquisition.traces").inc(len(chunk))
        return rows


def acquire_traces(netlist: GateNetlist, key: int,
                   plaintexts: Sequence[int],
                   chain: Optional[MeasurementChain] = None,
                   grid: Optional[TraceGrid] = None,
                   mismatch_seed: int = 0, t_apply: float = 0.0,
                   trace_offset: int = 0, telemetry=None) -> np.ndarray:
    """One-shot acquisition: simulate, compose, and measure
    ``plaintexts``.

    Trace ``i`` draws its noise from index ``trace_offset + i``, so the
    result is a pure function of the inputs — byte-identical for any
    ``telemetry`` and to any chunked acquisition of the same slice.
    """
    acquirer = TraceAcquirer(netlist, key, chain=chain, grid=grid,
                             mismatch_seed=mismatch_seed, t_apply=t_apply)
    return AcquisitionPool(acquirer, telemetry=telemetry).acquire(
        plaintexts, trace_offset=trace_offset)
