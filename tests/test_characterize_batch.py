"""Batched characterisation vs the serial transient oracle.

:func:`repro.cells.characterize_mcml_cells` builds every testbench,
groups them by lockstep signature and runs each group through the
backend seam's batch call.  Its measurements must equal, bit for bit,
what a plain :func:`repro.spice.run_transient` per request produces;
requests of different topologies must land in different groups; a
backend without a batch engine must see one transient per request;
and the lockstep engine's lean, lane-major result storage must equal
the serial waveforms without lanes sharing memory.
"""

import numpy as np
import pytest

from repro.cells import (
    McmlCellGenerator,
    PgMcmlCellGenerator,
    characterize_mcml_cell,
    characterize_mcml_cells,
    function,
    solve_bias,
)
from repro.cells.characterize import _measure, _mcml_testbench
from repro.experiments import fig3
from repro.obs import Telemetry
from repro.spice import run_transient, run_transient_batch
from repro.spice.backend import (
    InternalBackend,
    SimulatorBackend,
    reset_default_backend,
    set_default_backend,
)
from repro.spice.batch import lockstep_signature
from repro.tech import TECH90
from repro.units import ns, ps, uA

#: The benchmark's smoke sweep points.
SMOKE_SWEEP = tuple(uA(x) for x in (35, 50, 75))
#: A coarser step than the library default keeps the oracle affordable;
#: batching must be exact at any step.
DT = ps(1)
WINDOW = ns(0.8)


@pytest.fixture(autouse=True)
def _internal_backend():
    reset_default_backend()
    yield
    reset_default_backend()


def _generators(style: str):
    gated = style == "pgmcml"
    gen_cls = PgMcmlCellGenerator if gated else McmlCellGenerator
    return [gen_cls(sizing=solve_bias(iss, gated=gated).sizing)
            for iss in SMOKE_SWEEP]


def _serial_oracle(fn, generator, fanout):
    bench = _mcml_testbench(fn, generator, fanout, TECH90, WINDOW)
    result = run_transient(bench.circuit, tstop=WINDOW, dt=DT,
                           record=list(bench.record))
    return _measure(bench, result, WINDOW)


def _key(meas):
    return (meas.cell_name, meas.toggled_pin, meas.delay, meas.swing,
            meas.iss)


class _RecordingBackend(InternalBackend):
    """The internal engine, noting the size of every batch call."""

    def __init__(self, telemetry=None):
        self.batches = []
        self.telemetry = telemetry

    def run_transient_batch(self, circuits, tstop, dt, record=None,
                            telemetry=None, **kwargs):
        circuits = list(circuits)
        self.batches.append(len(circuits))
        return super().run_transient_batch(
            circuits, tstop, dt, record=record,
            telemetry=self.telemetry if telemetry is None else telemetry,
            **kwargs)


class _CountingBackend(SimulatorBackend):
    """A backend with no batch engine of its own."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def run_transient(self, circuit, tstop, dt, record=None,
                      telemetry=None, **kwargs):
        self.calls += 1
        return run_transient(circuit, tstop, dt, record=record,
                             telemetry=telemetry, **kwargs)


class TestBatchedEqualsSerial:
    @pytest.mark.parametrize("style", ["mcml", "pgmcml"])
    def test_sweep_matches_per_request_oracle_bitwise(self, style):
        fn = function("BUF")
        requests = [(fn, generator, fanout)
                    for generator in _generators(style)
                    for fanout in (1, 4)]
        backend = _RecordingBackend()
        set_default_backend(backend)
        batched = characterize_mcml_cells(requests, dt=DT, window=WINDOW)
        assert backend.batches == [len(requests)]
        serial = [_serial_oracle(*request) for request in requests]
        assert [_key(m) for m in batched] == [_key(m) for m in serial]

    def test_single_request_is_the_batched_path(self):
        fn = function("BUF")
        generator = _generators("mcml")[1]
        one = characterize_mcml_cell(fn, generator, fanout=4, dt=DT)
        assert _key(one) == _key(_serial_oracle(fn, generator, 4))


class TestGrouping:
    def test_mixed_functions_form_two_groups_in_request_order(self):
        generator = _generators("pgmcml")[1]
        requests = [(function("BUF"), generator, 1),
                    (function("AND2"), generator, 1),
                    (function("BUF"), generator, 4)]
        backend = _RecordingBackend()
        set_default_backend(backend)
        mixed = characterize_mcml_cells(requests, dt=DT, window=WINDOW)
        assert sorted(backend.batches) == [1, 2]
        assert [m.cell_name for m in mixed] == ["BUF", "AND2", "BUF"]
        reset_default_backend()
        alone = [characterize_mcml_cells([request], dt=DT,
                                         window=WINDOW)[0]
                 for request in requests]
        assert [_key(m) for m in mixed] == [_key(m) for m in alone]

    def test_signature_separates_topologies_not_values(self):
        generator = _generators("mcml")[0]
        buf1, buf4, and2 = (
            _mcml_testbench(function(name), generator, fanout, TECH90,
                            WINDOW).circuit
            for name, fanout in (("BUF", 1), ("BUF", 4), ("AND2", 1)))
        assert lockstep_signature(buf1) == lockstep_signature(buf4)
        assert lockstep_signature(buf1) != lockstep_signature(and2)
        hash(lockstep_signature(buf1))


class TestBackendSeam:
    def test_unbatched_backend_sees_one_transient_per_request(self):
        fn = function("BUF")
        requests = [(fn, generator, fanout)
                    for generator in _generators("mcml")[:2]
                    for fanout in (1, 4)]
        counting = _CountingBackend()
        set_default_backend(counting)
        via_counting = characterize_mcml_cells(requests, dt=DT,
                                               window=WINDOW)
        assert counting.calls == len(requests)
        reset_default_backend()
        internal = characterize_mcml_cells(requests, dt=DT, window=WINDOW)
        assert [_key(m) for m in via_counting] == \
            [_key(m) for m in internal]

    def test_fig3_smoke_sweep_runs_as_one_clean_batch(self):
        tele = Telemetry()
        set_default_backend(_RecordingBackend(telemetry=tele))
        result = fig3.run(SMOKE_SWEEP)
        assert len(result.points) == len(SMOKE_SWEEP)
        assert tele.counter("spice.batch.runs").value == 1
        assert tele.counter("spice.batch.lanes").value == 2 * len(
            SMOKE_SWEEP)
        assert tele.counter("spice.batch.serial_fallbacks").value == 0
        assert tele.counter("spice.batch.lane_retries").value == 0


# -- lean lane-major storage ---------------------------------------------------

def _buf_lanes(count: int):
    fn = function("BUF")
    generators = _generators("pgmcml")
    return [_mcml_testbench(fn, generators[k % len(generators)],
                            1 + 3 * (k % 2), TECH90, WINDOW)
            for k in range(count)]


class TestLeanStorage:
    TSTOP = ns(0.2)

    @pytest.mark.parametrize("subset", [False, True])
    def test_recorded_waveforms_equal_serial(self, subset):
        benches = _buf_lanes(3)
        record = list(benches[0].record[2:]) if subset else None
        circuits = [bench.circuit for bench in benches]
        batched = run_transient_batch(circuits, self.TSTOP, DT,
                                      record=record)
        for ckt, b in zip(circuits, batched):
            s = run_transient(ckt, self.TSTOP, DT, record=record)
            assert np.array_equal(s.time, b.time)
            assert list(s.voltages) == list(b.voltages)
            assert list(s.source_currents) == list(b.source_currents)
            for node, wave in s.voltages.items():
                assert np.array_equal(wave, b.voltages[node]), node
            for name, wave in s.source_currents.items():
                assert np.array_equal(wave, b.source_currents[name]), name

    def test_lanes_do_not_alias(self):
        circuits = [bench.circuit for bench in _buf_lanes(3)]
        batched = run_transient_batch(circuits, self.TSTOP, DT)
        arrays = [(k, arr) for k, r in enumerate(batched)
                  for arr in (*r.voltages.values(),
                              *r.source_currents.values())]
        for k, a in arrays:
            for j, b in arrays:
                if a is not b:
                    assert not np.shares_memory(a, b), (k, j)
        out = batched[0].voltages
        node = next(iter(out))
        before = batched[1].voltages[node].copy()
        out[node][:] = -1.0
        assert np.array_equal(batched[1].voltages[node], before)
