"""Geometric stage schedule shared by the stage-based learners.

Visits to a fixed (h, s, a) triple are grouped into consecutive stages.
The first stage has length H and each subsequent stage grows by a factor
(1 + 1/H), rounded down:

    e_1 = H,        e_{i+1} = floor((1 + 1/H) * e_i)

A Q update fires exactly when the cumulative visit count hits a stage end
sum_{i<=j} e_i, using only the samples of the just-finished stage.
Geometric growth keeps the number of stages -- and hence the number of
possible greedy-policy switches -- logarithmic in the visit count, while
the slow (1 + 1/H) rate wastes at most an O(1) fraction of samples.

Schedules are immutable, built once per (H, n_max) and shared across all
(h, s, a) counters (advantage.stage_tables: across a driver call's runs).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
import math

import numpy as np


class OutOfRangeError(Exception):
    """Visit count outside the precomputed schedule range [1, n_max]."""

    def __init__(self, n: int, n_max: int):
        super().__init__(f"visit count {n} outside schedule range [1, {n_max}]")
        self.n = n
        self.n_max = n_max


@dataclass
class StageSchedule:
    """Precomputed stage lengths and stage-end visit counts for one horizon.

    lengths[j] is the length e_{j+1} of the (j+1)-th stage; ends[j] is the
    cumulative visit count sum_{i<=j+1} e_i at which the (j+1)-th update
    fires.  ends[-1] >= n_max so any visit count in range is covered.
    """

    H: int
    n_max: int
    lengths: np.ndarray  # (n_stages,) int64
    ends: np.ndarray     # (n_stages,) int64, strictly increasing
    _end_list: list = field(repr=False)  # plain ints for bisect

    def is_stage_end(self, n: int) -> bool:
        """True iff the n-th visit completes a stage."""
        return self._end_list[self.stage_index(n) - 1] == n

    def stage_index(self, n: int) -> int:
        """1-based index of the stage the n-th visit falls in."""
        if not 1 <= n <= self.n_max:
            raise OutOfRangeError(n, self.n_max)
        return bisect_left(self._end_list, n) + 1

    @property
    def n_stages(self) -> int:
        return len(self.lengths)


def build_schedule(H: int, n_max: int) -> StageSchedule:
    """Build the stage schedule covering visit counts up to n_max.

    The recurrence floor((1 + 1/H) * e) is evaluated in exact integer
    arithmetic as e + e // H; a float product rounds the wrong way for
    some (H, e), e.g. H=11, e=239.  The ends are int64, so they stay below 2**63.
    """
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    if not 1 <= n_max < 2 ** 63:
        raise ValueError(f"n_max must be in [1, 2**63), got {n_max}")

    lengths: list[int] = []
    ends: list[int] = []
    e = H
    total = 0
    while total < n_max:
        lengths.append(e)
        total += e
        ends.append(total)
        e = e + e // H
    if total >= 2 ** 63:
        raise ValueError(f"n_max {n_max}: the last stage end {total} leaves the int64 range")
    return StageSchedule(
        H=H,
        n_max=n_max,
        lengths=np.asarray(lengths, dtype=np.int64),
        ends=np.asarray(ends, dtype=np.int64),
        _end_list=ends,
    )


def stage_count_bound(H: int, n: int) -> float:
    """Deterministic cap 4H*ln(n/(2H) + 1) on the number of stage ends <= n.

    Stage lengths grow at rate >= 1 + 1/(2H), so j stages cover at least
    2H^2((1+1/(2H))^j - 1) visits; solving for j and using
    ln(1+1/(2H)) >= 1/(4H) gives the (slightly loose) cap above.
    """
    return 4.0 * H * math.log(n / (2.0 * H) + 1.0)
