"""Tests for leakage models, CPA, DPA, and metrics on synthetic traces."""

import numpy as np
import pytest

from repro.aes import SBOX
from repro.errors import AttackError
from repro.sca import (
    DPAResult,
    MlpaResult,
    cpa_attack,
    correlation_matrix,
    dpa_attack,
    guessing_entropy,
    hamming_distance,
    hamming_weight,
    hd_model,
    hw_model,
    key_rank,
    mtd,
    success_rate,
    welch_t,
)
from repro.sca.leakage import all_guess_hypotheses


class TestLeakageModels:
    def test_hamming_weight(self):
        assert hamming_weight(0x00) == 0
        assert hamming_weight(0xFF) == 8
        assert hamming_weight(0xA5) == 4

    def test_hamming_weight_negative(self):
        with pytest.raises(AttackError):
            hamming_weight(-1)

    def test_hamming_distance(self):
        assert hamming_distance(0xFF, 0x00) == 8
        assert hamming_distance(0x0F, 0x0E) == 1

    def test_hw_model_values(self):
        pts = [0x00, 0x10]
        out = hw_model(pts, key_guess=0x00)
        assert out[0] == hamming_weight(SBOX[0x00])
        assert out[1] == hamming_weight(SBOX[0x10])

    def test_hw_model_validation(self):
        with pytest.raises(AttackError):
            hw_model([0], key_guess=300)
        with pytest.raises(AttackError):
            hw_model([], key_guess=0)
        with pytest.raises(AttackError):
            hw_model([256], key_guess=0)

    def test_hd_model(self):
        out = hd_model([0x00], key_guess=0x00, reference=SBOX[0x00])
        assert out[0] == 0.0

    def test_all_guess_matrix_shape(self):
        hyp = all_guess_hypotheses(list(range(16)))
        assert hyp.shape == (256, 16)


def synthetic_traces(key, n_traces=200, n_samples=20, leak_sample=7,
                     gain=1.0, noise=0.2, seed=0):
    """HW-leaking traces at one sample, Gaussian noise elsewhere."""
    rng = np.random.default_rng(seed)
    plaintexts = rng.integers(0, 256, size=n_traces)
    traces = rng.normal(0.0, noise, size=(n_traces, n_samples))
    leak = np.array([hamming_weight(SBOX[p ^ key]) for p in plaintexts])
    traces[:, leak_sample] += gain * leak
    return traces, plaintexts.tolist()


class TestCorrelationMatrix:
    def test_perfect_correlation(self):
        traces = np.array([[1.0], [2.0], [3.0]])
        hyp = np.array([[1.0, 2.0, 3.0]])
        rho = correlation_matrix(traces, hyp)
        assert rho[0, 0] == pytest.approx(1.0)

    def test_anti_correlation(self):
        traces = np.array([[1.0], [2.0], [3.0]])
        hyp = np.array([[3.0, 2.0, 1.0]])
        assert correlation_matrix(traces, hyp)[0, 0] == pytest.approx(-1.0)

    def test_constant_column_yields_zero(self):
        traces = np.ones((10, 3))
        hyp = np.arange(10, dtype=float).reshape(1, 10)
        rho = correlation_matrix(traces, hyp)
        assert np.all(rho == 0.0)

    def test_shape_validation(self):
        with pytest.raises(AttackError):
            correlation_matrix(np.ones((5, 2)), np.ones((3, 4)))
        with pytest.raises(AttackError):
            correlation_matrix(np.ones(5), np.ones((1, 5)))


class TestCPA:
    def test_recovers_key_from_clean_leak(self):
        traces, pts = synthetic_traces(key=0x3C)
        result = cpa_attack(traces, pts, true_key=0x3C)
        assert result.succeeded
        assert result.rank_of_true_key() == 0

    def test_peak_at_leaking_sample(self):
        traces, pts = synthetic_traces(key=0x3C, leak_sample=7)
        result = cpa_attack(traces, pts, true_key=0x3C)
        assert int(np.abs(result.rho[0x3C]).argmax()) == 7

    def test_fails_on_pure_noise(self):
        rng = np.random.default_rng(42)
        traces = rng.normal(size=(200, 20))
        pts = rng.integers(0, 256, size=200).tolist()
        result = cpa_attack(traces, pts, true_key=0x3C)
        # With no signal the key is essentially random: demand only that
        # the margin criterion reports indistinguishability.
        assert result.distinguishability() < 1.5

    def test_distinguishability_above_one_on_success(self):
        traces, pts = synthetic_traces(key=0x11, gain=3.0, noise=0.1)
        result = cpa_attack(traces, pts, true_key=0x11)
        assert result.distinguishability() > 1.2

    def test_unknown_true_key(self):
        traces, pts = synthetic_traces(key=0x3C)
        result = cpa_attack(traces, pts)
        assert result.succeeded is None
        with pytest.raises(AttackError):
            result.rank_of_true_key()

    def test_repr(self):
        traces, pts = synthetic_traces(key=0x3C)
        assert "CPAResult" in repr(cpa_attack(traces, pts, true_key=0x3C))


class TestDPA:
    def test_recovers_key_single_bit_leak(self):
        rng = np.random.default_rng(3)
        key = 0x42
        pts = rng.integers(0, 256, size=600)
        traces = rng.normal(0, 0.05, size=(600, 10))
        bit = (np.array([SBOX[p ^ key] for p in pts]) >> 2) & 1
        traces[:, 4] += 1.0 * bit
        result = dpa_attack(traces, pts.tolist(), target_bit=2,
                            true_key=key)
        assert result.succeeded

    def test_bit_range_validated(self):
        with pytest.raises(AttackError):
            dpa_attack(np.ones((4, 2)), [0, 1, 2, 3], target_bit=9)

    def test_count_mismatch(self):
        with pytest.raises(AttackError):
            dpa_attack(np.ones((4, 2)), [0, 1])

    def test_rank_query(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 256, size=100)
        traces = rng.normal(size=(100, 5))
        result = dpa_attack(traces, pts.tolist(), true_key=0x10)
        assert 0 <= result.rank_of_true_key() <= 255


class TestMetrics:
    def test_key_rank_top(self):
        scores = np.zeros(256)
        scores[0x77] = 1.0
        assert key_rank(scores, 0x77) == 0

    def test_key_rank_bottom(self):
        scores = np.arange(256, dtype=float)
        assert key_rank(scores, 0) == 255

    def test_key_rank_validation(self):
        with pytest.raises(AttackError):
            key_rank([1.0, 2.0], 0)
        with pytest.raises(AttackError):
            key_rank(np.zeros(256), 300)

    def test_guessing_entropy(self):
        assert guessing_entropy([0, 10, 20]) == pytest.approx(10.0)
        with pytest.raises(AttackError):
            guessing_entropy([])

    def test_success_rate(self):
        assert success_rate([0, 0, 5, 200]) == pytest.approx(0.5)
        assert success_rate([0, 1, 2], order=3) == pytest.approx(1.0)
        with pytest.raises(AttackError):
            success_rate([0], order=0)

    def test_mtd_finds_threshold(self):
        traces, pts = synthetic_traces(key=0x3C, n_traces=240, gain=2.0,
                                       noise=0.3)
        threshold = mtd(traces, pts, true_key=0x3C, step=40)
        assert threshold is not None
        assert threshold <= 240

    def test_mtd_none_without_leak(self):
        rng = np.random.default_rng(0)
        traces = rng.normal(size=(120, 10))
        pts = rng.integers(0, 256, size=120).tolist()
        assert mtd(traces, pts, true_key=0x3C, step=40) is None

    def test_mtd_validation(self):
        with pytest.raises(AttackError):
            mtd(np.ones((4, 2)), [0, 1], true_key=0, step=0)


class TestConstantColumnsReadExactlyZero:
    """A constant non-zero column's float mean misses its value by an
    ulp; the residues must not normalise into a correlation or a t."""

    def test_flat_cpa_is_the_full_tie(self):
        result = cpa_attack(np.full((100, 4), 3e-6), list(range(100)),
                            true_key=0x3C)
        assert np.all(result.rho == 0.0)
        assert result.rank_of_true_key() == 127.5
        assert result.best_guess_tie_width() == 256

    def test_constant_column_beside_a_varying_one(self):
        rng = np.random.default_rng(1)
        traces = rng.normal(size=(60, 2))
        traces[:, 1] = 0.1
        hyp = rng.normal(size=(3, 60))
        rho = correlation_matrix(traces, hyp)
        assert np.all(rho[:, 1] == 0.0)
        for g in range(3):
            assert rho[g, 0] == pytest.approx(
                np.corrcoef(hyp[g], traces[:, 0])[0, 1], abs=1e-12)

    @pytest.mark.parametrize("value,n_a,n_b", [
        (0.1, 100, 37), (7e-6, 100, 37), (3e-6, 50, 47)])
    def test_identical_flat_groups_do_not_leak(self, value, n_a, n_b):
        t = welch_t(np.full((n_a, 3), value), np.full((n_b, 3), value))
        assert np.all(t == 0.0)


class TestTiedArgmaxIsNoHit:
    """On flat traces every guess ties; ``argmax`` then lands on guess 0,
    which must not count as disclosing key 0 (and only key 0)."""

    FLAT = np.full((64, 4), 3e-6)

    @pytest.mark.parametrize("key", [0, 5])
    def test_flat_mtd_never_discloses(self, key):
        assert mtd(self.FLAT, range(64), true_key=key, step=16) is None

    @pytest.mark.parametrize("key", [0, 5])
    def test_flat_cpa_does_not_succeed(self, key):
        result = cpa_attack(self.FLAT, list(range(64)), true_key=key)
        assert result.best_guess == 0
        assert result.best_guess_tie_width() == 256
        assert result.succeeded is False

    @pytest.mark.parametrize("key", [0, 5])
    def test_tied_dpa_and_mlpa_do_not_succeed(self, key):
        flat = np.zeros((256, 4))
        for result in (DPAResult(differentials=flat, best_guess=0,
                                 target_bit=0, true_key=key),
                       MlpaResult(r2=flat, best_guess=0, degree=2,
                                  true_key=key)):
            assert result.succeeded is False
            assert result.rank_of_true_key() == 127.5

    def test_tie_broken_in_favour_of_the_key_succeeds(self):
        scores = np.zeros((256, 4))
        scores[0, 2] = 0.5
        assert DPAResult(differentials=scores, best_guess=0, target_bit=0,
                         true_key=0).succeeded
        assert MlpaResult(r2=scores, best_guess=0, degree=2,
                          true_key=0).succeeded

    def test_unique_winner_still_succeeds(self):
        traces, pts = synthetic_traces(key=0x00, n_traces=240, gain=2.0,
                                       noise=0.3)
        assert cpa_attack(traces, pts, true_key=0x00).succeeded
        assert mtd(traces, pts, true_key=0x00, step=40) is not None
