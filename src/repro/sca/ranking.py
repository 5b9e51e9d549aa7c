"""Tie-aware key ranking.

The protected-logic regime produces *flat* score vectors: on an MCML or
PG-MCML target the quantised traces often carry no information at all,
every key guess peaks at exactly the same value (frequently 0.0), and a
stable argsort then "ranks" the true key at its own byte value — a rank
statistic that depends on the key, not on the attack.  Averaged into a
guessing entropy, that bias reports ``key`` instead of the ~127.5 a
no-information attack must score.

The standard correction (Standaert et al., the security-evaluation
framework literature) ranks a guess as the number of strictly better
guesses plus the midpoint of its tie class: a unique winner still ranks
0, and a 256-way tie ranks 127.5 regardless of which byte is the key.
For the same reason an attack succeeds only when the true key is the
*unique* best guess (:func:`is_unique_best`), never by winning a tie.
Every ranking in :mod:`repro.sca` — CPA, DPA, MLPA, and the standalone
:func:`repro.sca.metrics.key_rank` — goes through this module, and the
tie width is surfaced so a "best guess" produced by an argmax over tied
peaks is recognisable as the coin toss it is.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import AttackError


def tie_aware_rank(scores: Sequence[float], index: int) -> float:
    """Rank of ``scores[index]``, counting ties at their midpoint.

    ``rank = (# strictly greater scores) + (tie_width - 1) / 2`` where
    the tie class is every guess scoring exactly ``scores[index]``.  A
    unique maximum ranks 0.0; an all-equal vector ranks
    ``(len - 1) / 2`` for every index.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise AttackError("scores must be a non-empty 1-D vector")
    if not 0 <= index < arr.size:
        raise AttackError(
            f"index {index} out of range for {arr.size} scores")
    value = arr[index]
    greater = int(np.count_nonzero(arr > value))
    ties = int(np.count_nonzero(arr == value))
    return float(greater + (ties - 1) / 2.0)


def tie_width(scores: Sequence[float], index: int = None) -> int:
    """Number of guesses sharing a score (default: the maximum).

    A ``tie_width > 1`` at the maximum means any argmax-derived "best
    guess" was an arbitrary pick among that many equals — the flat
    protected-trace outcome.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise AttackError("scores must be a non-empty 1-D vector")
    value = arr.max() if index is None else arr[index]
    return int(np.count_nonzero(arr == value))


def is_unique_best(scores: Sequence[float], index: int) -> bool:
    """Whether ``scores[index]`` beats every other score strictly.

    This is the success test of an attack: an argmax that merely lands
    on ``index`` inside a tie (a flat trace set ties all 256 guesses)
    is not a key hit.  Equivalent to a tie-aware rank of exactly 0.
    """
    arr = np.asarray(scores, dtype=float)
    return int(np.count_nonzero(arr >= arr[index])) == 1


def rank_and_ties(scores: Sequence[float],
                  index: int) -> Tuple[float, int, int]:
    """``(tie-aware rank, tie width at index, tie width at max)``."""
    return (tie_aware_rank(scores, index), tie_width(scores, index),
            tie_width(scores))
