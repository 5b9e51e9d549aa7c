"""Tests for the order-independent acquisition engine.

The contract under test: a campaign's trace matrix is a pure function
of (netlist, key, chain entropy, mismatch seed, plaintexts) — the same
bytes come out whether acquisition runs in one call, in chunks of any
size in any order, or is killed and resumed from a checkpoint.
"""

import numpy as np
import pytest

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
    build_wddl_library,
)
from repro.errors import AttackError, CheckpointError, TraceError
from repro.experiments.runner import CheckpointedRun
from repro.netlist import LogicSimulator
from repro.power import MeasurementChain, TraceGrid
from repro.sca import (
    AttackCampaign,
    TraceAcquirer,
    acquire_traces,
    cpa_attack,
    validate_plaintexts,
)
from repro.sca.attack import build_reduced_aes
from repro.units import ns, ps, uA

KEY = 0x2B
PTS = list(range(40))

_BUILDERS = {
    "cmos": build_cmos_library,
    "mcml": build_mcml_library,
    "pgmcml": build_pg_mcml_library,
}


@pytest.fixture(scope="module", params=sorted(_BUILDERS))
def style_setup(request):
    """(style, library, netlist, serial reference matrix) per style."""
    library = _BUILDERS[request.param]()
    netlist, _ = build_reduced_aes(library)
    serial = acquire_traces(netlist, KEY, PTS)
    return request.param, library, netlist, serial


class _KillAfter(CheckpointedRun):
    """Checkpoint runner that dies after N successful chunk saves."""

    def __init__(self, *args, die_after=2, **kwargs):
        super().__init__(*args, **kwargs)
        self.die_after = die_after
        self._saves = 0

    def _save(self, blocks, n_done, fingerprint, state):
        super()._save(blocks, n_done, fingerprint, state)
        self._saves += 1
        if self._saves >= self.die_after:
            raise KeyboardInterrupt


class TestByteIdenticalAcrossExecution:
    """Shuffled chunk order, odd chunking and kill-and-resume all produce
    the one-call matrix byte for byte, per style."""

    def test_shuffled_chunk_order_matches_serial(self, style_setup):
        _, _, netlist, serial = style_setup
        acquirer = TraceAcquirer(netlist, KEY)
        for size in (8, 7):  # 7 leaves a ragged final chunk
            starts = list(range(0, len(PTS), size))
            np.random.default_rng(3).shuffle(starts)
            rows = np.empty_like(serial)
            for begin in starts:
                chunk = PTS[begin:begin + size]
                rows[begin:begin + len(chunk)] = acquirer.acquire(
                    chunk, trace_offset=begin)
            assert np.array_equal(rows, serial)

    def test_kill_and_resume_matches_serial(self, style_setup, tmp_path):
        _, library, _, serial = style_setup
        path = tmp_path / "campaign.npz"
        campaign = AttackCampaign(library, KEY)
        with pytest.raises(KeyboardInterrupt):
            campaign.run_checkpointed(
                _KillAfter(path, chunk_size=8, die_after=2), PTS)

        runner = CheckpointedRun(path, chunk_size=8)
        resumed = AttackCampaign(library, KEY).run_checkpointed(runner, PTS)
        assert runner.stats.chunks_resumed == 2
        assert np.array_equal(resumed.traces, serial)
        reference = cpa_attack(serial, PTS, true_key=KEY)
        assert resumed.cpa.rank_of_true_key() == \
            reference.rank_of_true_key()

    def test_campaign_api_matches_acquire_traces(self, style_setup):
        _, library, _, serial = style_setup
        result = AttackCampaign(library, KEY).run(PTS)
        assert np.array_equal(result.traces, serial)
        reference = cpa_attack(serial, PTS, true_key=KEY)
        assert result.cpa.rank_of_true_key() == \
            reference.rank_of_true_key()


class TestCounterBasedNoise:
    def test_indexed_measure_matches_sequential(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.linspace(0, uA(10), 50)
        sequential = [chain_a.measure(x) for _ in range(4)]
        indexed = [chain_b.measure(x, trace_index=i) for i in range(4)]
        for s, i in zip(sequential, indexed):
            assert np.array_equal(s, i)

    def test_indexed_measure_is_order_independent(self):
        chain = MeasurementChain(seed=9)
        x = np.linspace(0, uA(10), 50)
        forward = [chain.measure(x, trace_index=i) for i in range(4)]
        backward = [chain.measure(x, trace_index=i)
                    for i in reversed(range(4))]
        for i, row in enumerate(reversed(backward)):
            assert np.array_equal(row, forward[i])

    def test_indexed_measure_does_not_advance_counter(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.zeros(20)
        chain_a.measure(x, trace_index=17)  # a worker elsewhere
        assert np.array_equal(chain_a.measure(x), chain_b.measure(x))

    def test_negative_index_rejected(self):
        with pytest.raises(TraceError):
            MeasurementChain().measure(np.zeros(4), trace_index=-1)

    def test_fingerprint_names_scheme_and_entropy(self):
        fp = MeasurementChain(seed=42).fingerprint()
        assert fp["scheme"] == MeasurementChain.SCHEME
        assert fp["entropy"] == "42"

    def test_distinct_traces_get_distinct_noise(self):
        chain = MeasurementChain(noise_sigma=uA(0.5), resolution=0.0)
        x = np.zeros(100)
        assert not np.array_equal(chain.measure(x, trace_index=0),
                                  chain.measure(x, trace_index=1))


class TestValidation:
    def test_bad_plaintexts_listed(self):
        with pytest.raises(AttackError) as err:
            validate_plaintexts([0, -1, 256, "x", 3.7, True, "7"])
        message = str(err.value)
        assert "-1" in message and "256" in message and "'x'" in message
        assert "3.7" in message and "True" in message and "'7'" in message

    def test_overflow_of_bad_values_is_summarised(self):
        with pytest.raises(AttackError, match=r"\+2 more"):
            validate_plaintexts(list(range(256, 266)))

    def test_valid_batch_coerced_to_ints(self):
        assert validate_plaintexts([0, np.int64(7), 255]) == [0, 7, 255]

    def test_whole_batch_checked_before_any_simulation(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        acquirer = TraceAcquirer(netlist, KEY)
        simulated = []
        acquirer.ideal_samples = lambda p: simulated.append(p)
        with pytest.raises(AttackError):
            acquirer.acquire([0, 1, 2, 999])
        assert simulated == []

    def test_t_apply_must_precede_window_end(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        grid = TraceGrid(0.0, ns(2.0), ps(25.0))
        with pytest.raises(AttackError, match="t_apply"):
            TraceAcquirer(netlist, KEY, grid=grid, t_apply=ns(2.0))

    def test_key_byte_checked(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        with pytest.raises(AttackError):
            TraceAcquirer(netlist, 0x100)


class TestCheckpointScheme:
    def test_different_entropy_refuses_to_resume(self, tmp_path):
        library = build_cmos_library()
        pts = list(range(16))
        path = tmp_path / "fp.npz"
        first = AttackCampaign(library, KEY, chain=MeasurementChain(seed=1))
        with pytest.raises(KeyboardInterrupt):
            first.run_checkpointed(
                _KillAfter(path, chunk_size=8, die_after=1), pts)
        second = AttackCampaign(library, KEY,
                                chain=MeasurementChain(seed=2))
        with pytest.raises(CheckpointError, match="different"):
            second.run_checkpointed(CheckpointedRun(path, chunk_size=8),
                                    pts)

    def test_empty_plaintext_list_yields_empty_matrix(self):
        library = build_cmos_library()
        netlist, _ = build_reduced_aes(library)
        out = acquire_traces(netlist, KEY, [])
        assert out.shape[0] == 0 and out.shape[1] > 0


class TestBlockedMeasurement:
    """measure_block is the serial measure applied row by row (PR 7)."""

    def test_block_matches_indexed_rows_bitwise(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        rng = np.random.default_rng(5)
        samples = rng.uniform(0.0, uA(30), size=(7, 40))
        block = chain_a.measure_block(samples, first_index=13)
        for i in range(samples.shape[0]):
            assert np.array_equal(block[i],
                                  chain_b.measure(samples[i],
                                                  trace_index=13 + i))

    def test_block_does_not_advance_counter(self):
        chain_a = MeasurementChain(seed=9)
        chain_b = MeasurementChain(seed=9)
        x = np.zeros(20)
        chain_a.measure_block(np.zeros((3, 20)), first_index=40)
        assert np.array_equal(chain_a.measure(x), chain_b.measure(x))

    def test_block_validation(self):
        chain = MeasurementChain()
        with pytest.raises(TraceError):
            chain.measure_block(np.zeros(8))
        with pytest.raises(TraceError):
            chain.measure_block(np.zeros((2, 8)), first_index=-1)
        empty = chain.measure_block(np.zeros((0, 8)))
        assert empty.shape == (0, 8)


class TestLeakageTable:
    """The per-acquirer leakage table against the uncached simulation."""

    @pytest.mark.parametrize("builder", [
        build_cmos_library, build_mcml_library, build_pg_mcml_library,
        build_wddl_library], ids=["cmos", "mcml", "pgmcml", "wddl"])
    def test_table_matches_uncached_oracle(self, builder, monkeypatch):
        netlist, _ = build_reduced_aes(builder())
        rng = np.random.default_rng(11)
        order = [int(p) for p in rng.permutation(256)]
        order += [int(p) for p in rng.integers(0, 256, size=64)]
        acquirer = TraceAcquirer(netlist, KEY)
        sims = []
        for name in ("run", "initialize"):
            original = getattr(LogicSimulator, name)

            def spy(self, *args, _original=original, **kwargs):
                sims.append(1)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(LogicSimulator, name, spy)
        acquirer.acquire(order)
        assert len(sims) == 256
        monkeypatch.undo()
        fresh = TraceAcquirer(netlist, KEY)
        for p in range(256):
            row = acquirer.ideal_samples(p)
            assert not row.flags.writeable
            assert row is acquirer.ideal_samples(p)
            assert np.array_equal(row, fresh._simulate(p))

    def test_table_lives_with_its_acquirer(self):
        netlist, _ = build_reduced_aes(build_cmos_library())
        first = TraceAcquirer(netlist, KEY)
        second = TraceAcquirer(netlist, KEY)
        row = first.ideal_samples(0x42)
        assert second.ideal_samples(0x42) is not row
        assert np.array_equal(second.ideal_samples(0x42), row)
