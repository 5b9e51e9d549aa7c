"""One-pass MTD and CPA evolution against the prefix re-run oracle.

``mtd`` and ``cpa_evolution`` evaluate CPA at growing prefixes as
snapshots of one pass of per-plaintext-class statistics.  The oracle
below is the materialised path they replace: a full ``cpa_attack`` on
every prefix.  Both must agree on every rank and MTD, and the class
statistics' rho must match ``correlation_matrix`` on every prefix.
"""

import functools

import numpy as np
import pytest

from repro.cells import (
    build_cmos_library,
    build_mcml_library,
    build_pg_mcml_library,
)
from repro.errors import AttackError
from repro.power import MeasurementChain
from repro.sca import (
    cpa_attack,
    cpa_evolution,
    correlation_matrix,
    hd_model,
    hw_model,
    mtd,
)
from repro.sca.acquisition import acquire_traces
from repro.sca.attack import build_reduced_aes
from repro.sca.cpa import ClassStatistics, prefix_correlations
from repro.sca.leakage import all_guess_hypotheses

KEY = 0x2B
N_TRACES = 240
STEPS = (16, 50, N_TRACES + 40)
MODELS = {"hw": hw_model, "hd": hd_model,
          "hd5a": functools.partial(hd_model, reference=0x5A)}
_BUILDERS = {"cmos": build_cmos_library, "mcml": build_mcml_library,
             "pgmcml": build_pg_mcml_library}


def oracle_prefixes(traces, pts, key, step, model=hw_model):
    """Full CPA on every ``step``-th prefix and on the full set."""
    n_total = traces.shape[0]
    counts = list(range(step, n_total + 1, step))
    if not counts or counts[-1] != n_total:
        counts.append(n_total)
    return [(n, cpa_attack(traces[:n], pts[:n], true_key=key, model=model))
            for n in counts]


def oracle_mtd(prefixes, key, stable_windows):
    """MTD over :func:`oracle_prefixes` output, as ``mtd`` defines it."""
    streak, candidate = 0, None
    for n, result in prefixes:
        if result.best_guess == key:
            candidate = n if streak == 0 else candidate
            streak += 1
            if streak >= stable_windows:
                return candidate
        else:
            streak, candidate = 0, None
    return None


@pytest.fixture(scope="module", params=[
    (style, noise) for style in sorted(_BUILDERS) for noise in ("default", 0)],
    ids=lambda p: f"{p[0]}-noise_{p[1]}")
def campaign(request):
    """(traces, plaintexts) of one style under one noise level."""
    style, noise = request.param
    netlist, _ = build_reduced_aes(_BUILDERS[style]())
    chain = MeasurementChain(seed=7) if noise == "default" else \
        MeasurementChain(noise_sigma=0.0, seed=7)
    rng = np.random.default_rng(3)
    pts = [int(p) for p in rng.integers(0, 256, size=N_TRACES)]
    return acquire_traces(netlist, KEY, pts, chain=chain), pts


class TestAgainstPrefixOracle:
    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("step", STEPS)
    def test_mtd_matches(self, campaign, model, step):
        traces, pts = campaign
        model_fn = MODELS[model]
        prefixes = oracle_prefixes(traces, pts, KEY, step, model_fn)
        for stable_windows in (1, 3):
            assert mtd(traces, pts, KEY, step=step,
                       stable_windows=stable_windows, model=model_fn) == \
                oracle_mtd(prefixes, KEY, stable_windows)

    @pytest.mark.parametrize("step", STEPS)
    def test_evolution_matches(self, campaign, step):
        traces, pts = campaign
        evo = cpa_evolution(traces, pts, KEY, step=step)
        oracle = oracle_prefixes(traces, pts, KEY, step)
        assert [p.n_traces for p in evo.points] == [n for n, _ in oracle]
        for point, (_, result) in zip(evo.points, oracle):
            peaks = result.peak_per_guess
            assert point.rank == result.rank_of_true_key()
            assert abs(point.true_peak - peaks[KEY]) <= 1e-12
            assert abs(point.wrong_envelope
                       - np.delete(peaks, KEY).max()) <= 1e-12

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_rho_matches_correlation_matrix_on_every_prefix(self, campaign,
                                                            model):
        traces, pts = campaign
        model_fn = MODELS[model]
        counts = list(range(1, N_TRACES + 1, 11)) + [N_TRACES]
        for n, rho in prefix_correlations(traces, pts, counts, model_fn):
            hypotheses = np.vstack([model_fn(pts[:n], k)
                                    for k in range(256)])
            expected = correlation_matrix(traces[:n], hypotheses)
            assert np.abs(rho - expected).max() <= 1e-12
            flat = np.ptp(traces[:n], axis=0) == 0.0
            assert np.all(rho[:, flat] == 0.0)


class TestClassStatistics:
    def test_constant_columns_read_exactly_zero(self):
        rng = np.random.default_rng(2)
        pts = [int(p) for p in rng.integers(0, 256, size=90)]
        traces = rng.normal(size=(90, 5))
        traces[:, 1] = 3e-6
        traces[:, 3] = 0.1
        stats = ClassStatistics(5)
        stats.update(traces, pts)
        rho = stats.correlation(all_guess_hypotheses(np.arange(256)))
        assert np.all(rho[:, [1, 3]] == 0.0)
        assert np.all(rho[:, [0, 2, 4]] != 0.0)

    def test_flat_traces_keep_the_full_tie(self):
        pts = list(range(100))
        evo = cpa_evolution(np.full((100, 4), 3e-6), pts, 0x3C, step=10)
        assert {p.rank for p in evo.points} == {127.5}

    def test_update_validation(self):
        stats = ClassStatistics(3)
        with pytest.raises(AttackError):
            stats.update(np.zeros((2, 4)), [0, 1])
        with pytest.raises(AttackError):
            stats.update(np.zeros((2, 3)), [0])
        with pytest.raises(AttackError):
            stats.update(np.zeros((1, 3)), [256])
        with pytest.raises(AttackError):
            stats.correlation(all_guess_hypotheses(np.arange(256)))


class TestValidation:
    def test_stable_windows_must_be_positive(self):
        traces = np.random.default_rng(0).normal(size=(32, 4))
        with pytest.raises(AttackError, match="stable_windows"):
            mtd(traces, list(range(32)), 0x11, stable_windows=0)

    def test_empty_trace_set_rejected(self):
        with pytest.raises(AttackError):
            mtd(np.zeros((0, 4)), [], 0x11)
        with pytest.raises(AttackError):
            cpa_evolution(np.zeros((0, 4)), [], 0x11)

    def test_one_dimensional_traces_rejected(self):
        with pytest.raises(AttackError):
            mtd(np.zeros(8), list(range(8)), 0x11)
