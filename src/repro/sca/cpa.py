"""Correlation power analysis (Brier, Clavier, Olivier — CHES 2004).

For every key guess, Pearson-correlate the hypothesis vector (one value
per trace) against every time sample of the trace matrix; the correct
key shows the largest |rho| at the samples where the predicted
intermediate is being computed.  Fig. 6 of the paper plots exactly these
per-guess correlation traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import AttackError
from .leakage import all_guess_hypotheses, hw_model
from .ranking import is_unique_best, tie_aware_rank, tie_width


def correlation_matrix(traces: np.ndarray,
                       hypotheses: np.ndarray) -> np.ndarray:
    """Pearson correlation of each hypothesis row with each time sample.

    ``traces`` is (n_traces, n_samples); ``hypotheses`` is
    (n_guesses, n_traces).  Returns (n_guesses, n_samples).  Constant
    columns (zero variance) yield exactly zero correlation rather than
    NaN — a quantised flat trace must read as "no information", not an
    error.
    """
    traces = np.asarray(traces, dtype=float)
    hypotheses = np.asarray(hypotheses, dtype=float)
    if traces.ndim != 2 or hypotheses.ndim != 2:
        raise AttackError("traces and hypotheses must be 2-D")
    if traces.shape[0] != hypotheses.shape[1]:
        raise AttackError(
            f"trace count mismatch: {traces.shape[0]} traces vs "
            f"{hypotheses.shape[1]} hypothesis entries")
    t_centered = traces - traces.mean(axis=0, keepdims=True)
    h_centered = hypotheses - hypotheses.mean(axis=1, keepdims=True)
    t_norm = np.sqrt((t_centered ** 2).sum(axis=0))
    h_norm = np.sqrt((h_centered ** 2).sum(axis=1))
    cov = h_centered @ t_centered  # (guesses, samples)
    denom = np.outer(h_norm, t_norm)
    # Centering a constant non-zero column by its float mean leaves
    # ulp-sized residues that normalise to garbage; mask those columns
    # (and constant hypothesis rows) by peak-to-peak instead.
    varying = np.outer(_varying(hypotheses, axis=1), _varying(traces, axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(varying & (denom > 0.0), cov / denom, 0.0)
    return rho


def _varying(values: np.ndarray, axis: int) -> np.ndarray:
    """True where ``values`` is not constant along ``axis``."""
    if values.shape[axis] == 0:
        return np.zeros(values.shape[1 - axis], dtype=bool)
    return np.ptp(values, axis=axis) > 0.0


class ClassStatistics:
    """CPA sufficient statistics, accumulated over plaintext classes.

    A trace's hypothesis depends only on its plaintext byte, so
    :func:`correlation_matrix` needs the traces only through per-class
    counts, per-class sums (256 x S) and the per-sample sum of squares.
    :meth:`update` folds traces in; :meth:`correlation` evaluates rho
    for every guess of a hypothesis table at the current count in
    O(256 x 256 x S), independent of the number of traces.

    Traces are shifted by the first trace row before accumulating: the
    sums then stay near the spread of the data rather than its offset,
    and a constant column accumulates exact zeros, so it reads exactly
    0 like the materialised path.
    """

    def __init__(self, n_samples: int):
        self.counts = np.zeros(256, dtype=np.int64)
        self.sums = np.zeros((256, n_samples))
        self.squares = np.zeros(n_samples)
        self.varying = np.zeros(n_samples, dtype=bool)
        self._origin: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def update(self, traces: np.ndarray, plaintexts: Sequence[int]) -> None:
        """Fold ``traces`` (rows labelled by ``plaintexts``) in."""
        traces = np.asarray(traces, dtype=float)
        pts = np.asarray(plaintexts, dtype=np.int64).reshape(-1)
        if traces.ndim != 2 or traces.shape[1] != self.sums.shape[1]:
            raise AttackError(
                f"expected (n, {self.sums.shape[1]}) traces, got "
                f"{traces.shape}")
        if traces.shape[0] != pts.size:
            raise AttackError("trace/plaintext count mismatch")
        if pts.size == 0:
            return
        if pts.min() < 0 or pts.max() > 0xFF:
            raise AttackError("plaintext bytes out of range")
        if self._origin is None:
            self._origin = traces[0].copy()
        shifted = traces - self._origin
        np.add.at(self.sums, pts, shifted)
        self.counts += np.bincount(pts, minlength=256)
        self.squares += (shifted ** 2).sum(axis=0)
        self.varying |= (shifted != 0.0).any(axis=0)

    def correlation(self, hypotheses: np.ndarray) -> np.ndarray:
        """rho (n_guesses, S) of ``hypotheses`` (n_guesses, 256 classes)
        against the traces folded in so far."""
        n = self.n
        if n == 0:
            raise AttackError("no traces accumulated")
        counts = self.counts.astype(float)
        sum_h = hypotheses @ counts
        sum_hh = (hypotheses * hypotheses) @ counts
        sum_t = self.sums.sum(axis=0)
        cov = hypotheses @ self.sums - np.outer(sum_h, sum_t) / n
        var_h = np.maximum(sum_hh - sum_h * sum_h / n, 0.0)
        var_t = np.maximum(self.squares - sum_t * sum_t / n, 0.0)
        denom = np.sqrt(np.outer(var_h, var_t))
        varying = np.outer(
            _varying(hypotheses[:, self.counts > 0], axis=1), self.varying)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(varying & (denom > 0.0), cov / denom, 0.0)


def prefix_correlations(traces: np.ndarray, plaintexts: Sequence[int],
                        counts: Sequence[int],
                        model: Callable = hw_model
                        ) -> Iterator[Tuple[int, np.ndarray]]:
    """``(n, rho)`` for each prefix length ``n`` in ascending ``counts``.

    ``rho`` equals ``correlation_matrix`` of the first ``n`` traces
    against every guess (to rounding), from one pass of
    :class:`ClassStatistics` instead of one full CPA per prefix.
    ``model`` must be elementwise in the plaintext byte, as
    :func:`~repro.sca.leakage.hw_model` and
    :func:`~repro.sca.leakage.hd_model` are.
    """
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2:
        raise AttackError("traces must be 2-D")
    stats = ClassStatistics(traces.shape[1])
    hypotheses = all_guess_hypotheses(np.arange(256), model)
    done = 0
    for n in counts:
        stats.update(traces[done:n], plaintexts[done:n])
        done = n
        yield n, stats.correlation(hypotheses)


@dataclass
class CPAResult:
    """Outcome of one CPA attack."""

    rho: np.ndarray            # (256, n_samples)
    best_guess: int
    true_key: Optional[int] = None

    @property
    def peak_per_guess(self) -> np.ndarray:
        """max |rho| over time for each guess — the Fig. 6 ranking."""
        return np.abs(self.rho).max(axis=1)

    @property
    def succeeded(self) -> Optional[bool]:
        if self.true_key is None:
            return None
        return is_unique_best(self.peak_per_guess, self.true_key)

    def rank_of_true_key(self) -> float:
        """0.0 = the true key uniquely has the highest peak.

        Tied peaks rank at the midpoint of the tie class: the flat
        protected-trace outcome (all 256 peaks equal) ranks 127.5 for
        any true key, instead of leaking the key byte back out through
        a stable argsort.
        """
        if self.true_key is None:
            raise AttackError("true key unknown")
        return tie_aware_rank(self.peak_per_guess, self.true_key)

    def best_guess_tie_width(self) -> int:
        """How many guesses share the winning peak.

        ``best_guess`` is an argmax; when this is > 1 that argmax was an
        arbitrary pick among equals (256 on a perfectly flat trace set)
        and "best" carries no information.
        """
        return tie_width(self.peak_per_guess)

    def distinguishability(self) -> float:
        """Peak margin of the true key over the best wrong guess.

        > 1 means the black line of Fig. 6 stands above the grey cloud;
        <= 1 means it is buried (the paper's MCML/PG-MCML picture).
        """
        if self.true_key is None:
            raise AttackError("true key unknown")
        peaks = self.peak_per_guess
        others = np.delete(peaks, self.true_key)
        best_other = float(others.max())
        if best_other == 0.0:
            return float("inf") if peaks[self.true_key] > 0 else 1.0
        return float(peaks[self.true_key] / best_other)

    def __repr__(self) -> str:
        status = ""
        if self.true_key is not None:
            status = (", SUCCESS" if self.succeeded
                      else f", rank {self.rank_of_true_key()}")
        return (f"CPAResult(best={self.best_guess:#04x}"
                f"{status}, peak={self.peak_per_guess.max():.4f})")


def cpa_attack(traces: np.ndarray, plaintexts: Sequence[int],
               true_key: Optional[int] = None,
               model: Callable = hw_model) -> CPAResult:
    """Run CPA over all 256 key guesses."""
    hypotheses = np.vstack([model(plaintexts, k) for k in range(256)])
    rho = correlation_matrix(traces, hypotheses)
    best = int(np.abs(rho).max(axis=1).argmax())
    return CPAResult(rho=rho, best_guess=best, true_key=true_key)
