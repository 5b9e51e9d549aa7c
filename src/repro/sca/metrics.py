"""Attack-evaluation metrics.

The community-standard quantities for comparing countermeasures: key
rank after N traces, guessing entropy (average rank over campaigns),
success rate, and measurements-to-disclosure (MTD) — the smallest trace
count at which the attack stabilises on the correct key.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import AttackError
from .cpa import prefix_correlations
from .leakage import hw_model
from .ranking import is_unique_best, tie_aware_rank


def key_rank(peaks: Sequence[float], true_key: int) -> float:
    """Rank of the true key in a per-guess score vector (0.0 = best).

    Tied scores rank at the midpoint of their tie class, so the flat
    all-equal vector a protected library produces ranks every guess —
    including the true key — at 127.5 instead of at its own byte value
    (a stable argsort would report ``true_key`` itself there, biasing
    guessing entropy by the key).
    """
    scores = np.asarray(peaks, dtype=float)
    if scores.size != 256:
        raise AttackError("expected one score per key guess (256)")
    if not 0 <= true_key <= 0xFF:
        raise AttackError("true key out of range")
    return tie_aware_rank(scores, true_key)


def guessing_entropy(ranks: Sequence[float]) -> float:
    """Average rank over repeated attack campaigns."""
    ranks_arr = np.asarray(ranks, dtype=float)
    if ranks_arr.size == 0:
        raise AttackError("no ranks supplied")
    return float(ranks_arr.mean())


def success_rate(ranks: Sequence[float], order: int = 1) -> float:
    """Fraction of campaigns where the true key ranks within ``order``."""
    ranks_arr = np.asarray(ranks, dtype=float)
    if ranks_arr.size == 0:
        raise AttackError("no ranks supplied")
    if order < 1:
        raise AttackError("order must be >= 1")
    return float((ranks_arr < order).mean())


def mtd(traces: np.ndarray, plaintexts: Sequence[int], true_key: int,
        step: int = 16, stable_windows: int = 3,
        model: Optional[Callable] = None) -> Optional[int]:
    """Measurements to disclosure.

    Evaluates CPA at growing prefixes of the trace set (every ``step``
    traces, and always at the full count) and returns the smallest count
    from which the true key stays the unique best guess (winning an
    argmax tie is no hit) for ``stable_windows`` consecutive evaluations
    — or ``None`` if the attack never stabilises within the available
    traces (the protected-logic outcome).  The
    prefixes are snapshots of one pass of per-plaintext-class
    statistics (:func:`~repro.sca.cpa.prefix_correlations`), so
    ``model`` must be elementwise in the plaintext byte, as
    ``hw_model`` and ``hd_model`` are.
    """
    traces = np.asarray(traces, dtype=float)
    pts = list(plaintexts)
    if traces.shape[0] != len(pts):
        raise AttackError("trace/plaintext count mismatch")
    if step < 1:
        raise AttackError("step must be positive")
    if stable_windows < 1:
        raise AttackError("stable_windows must be at least 1")
    streak = 0
    candidate: Optional[int] = None
    for n, rho in prefix_correlations(traces, pts, prefix_counts(
            traces.shape[0], step), model or hw_model):
        if is_unique_best(np.abs(rho).max(axis=1), true_key):
            if streak == 0:
                candidate = n
            streak += 1
            if streak >= stable_windows:
                return candidate
        else:
            streak = 0
            candidate = None
    return None


def prefix_counts(n_traces: int, step: int) -> List[int]:
    """Every ``step``-th prefix length, always ending at ``n_traces``:
    fewer traces than one step still evaluate once, not silently
    report "never disclosed"."""
    counts = list(range(step, n_traces + 1, step))
    if not counts or counts[-1] != n_traces:
        counts.append(n_traces)
    return counts
