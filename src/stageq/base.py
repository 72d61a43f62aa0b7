"""Shared skeleton for the tabular optimistic Q-learners.

Every learner in this package keeps flat-list Q and V tables initialized
optimistically to H - h + 1 (V carries an all-zero boundary row at index
H), acts greedily with lowest-index tie-breaking, and is model-free: it is
constructed from the MDP's dimensions and deterministic reward table only,
never its transition kernels.  Subclasses implement observe(h, s, a,
s_next), which returns None, and keep the cumulative counters
stage_end_count / q_update_count / ref_fixed_count current.  Those counters
are the only record of what a transition did: run_episode's report and
the concurrent runner's "did Q change" test are both differences of them.

The greedy policy is kept as state rather than recomputed: _greedy holds
the lowest-index argmax of every Q row, one entry per flat (h, s) index.
Every write to Q goes through _row_max, which rescans that one row and
refreshes its _greedy entry, so select_action is a list read.
greedy_actions_flat returns a copy, because callers hold their snapshot
while learning goes on.

Trajectory locality: run_episode writes Q, V and _greedy only at the
(h, s, a) cells (and their (h, s) rows) of the trajectory it returns.  The
audit loop in harness relies on this to re-test optimism and count switches
on those H cells alone, so an update that touched any other cell would
make the audit miss it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import EpisodicMdp, sample_episode


@dataclass
class EpisodeReport:
    """What one episode did to the learner's tables."""

    stage_ends: int
    q_updates: int   # updates that actually changed a Q entry
    refs_fixed: int

    @property
    def q_changed(self) -> bool:
        return self.q_updates > 0


class TabularQLearnerBase:
    """Common state, acting and rollout logic; see module docstring."""

    name = "base"

    def __init__(self, mdp: EpisodicMdp):
        S, A, H = mdp.S, mdp.A, mdp.H
        self.S, self.A, self.H = S, A, H
        self._rew = np.asarray(mdp.r, dtype=float).reshape(-1).tolist()
        self._q = [float(H - h) for h in range(H) for _ in range(S * A)]
        self._v = [float(H - h) for h in range(H) for _ in range(S)] + [0.0] * S
        self._n = [0] * (H * S * A)
        self._greedy = [0] * (H * S)   # rows start tied, so argmax 0
        self.stage_end_count = 0
        self.q_update_count = 0
        self.ref_fixed_count = 0

    # ------------------------------------------------------------ acting

    def select_action(self, h: int, s: int) -> int:
        """Greedy in Q_h(s, .); ties break to the lowest action index."""
        return self._greedy[h * self.S + s]

    def _row_max(self, i2: int) -> float:
        """Rescan Q row i2 = h*S + s after a write to it: store the row's
        lowest-index argmax in _greedy and return the row max."""
        q = self._q
        base = i2 * self.A
        best, arg = q[base], 0
        for a in range(1, self.A):
            val = q[base + a]
            if val > best:
                best, arg = val, a
        self._greedy[i2] = arg
        return best

    def observe(self, h: int, s: int, a: int, s_next: int) -> None:
        raise NotImplementedError

    def run_episode(self, mdp: EpisodicMdp, rng, episode_index: int = 0):
        """Roll out one episode, learning online; returns (traj, EpisodeReport)."""
        e0, u0, r0 = self.stage_end_count, self.q_update_count, self.ref_fixed_count
        traj = sample_episode(mdp, self, rng, episode_index)
        return traj, EpisodeReport(stage_ends=self.stage_end_count - e0,
                                   q_updates=self.q_update_count - u0,
                                   refs_fixed=self.ref_fixed_count - r0)

    # ----------------------------------------------------------- exports

    def greedy_actions_flat(self):
        """Greedy action per (h, s) as a flat list; a copy the caller may keep."""
        return self._greedy[:]

    def q_at(self, i3: int) -> float:
        """Q at flat index i3 = (h*S + s)*A + a, read-only."""
        return self._q[i3]

    def q_array(self) -> np.ndarray:
        return np.asarray(self._q, dtype=float).reshape(self.H, self.S, self.A)

    def v_array(self) -> np.ndarray:
        return np.asarray(self._v, dtype=float).reshape(self.H + 1, self.S)

    def n_array(self) -> np.ndarray:
        return np.asarray(self._n, dtype=np.int64).reshape(self.H, self.S, self.A)
