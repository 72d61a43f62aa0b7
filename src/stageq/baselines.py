"""Baseline learners: stage-based Hoeffding Q-learning and classic Q-UCB.

HoeffdingStageLearner is the advantage learner with the reference machinery
removed: same stage schedule, same optimistic init, but the stage-end update
keeps only the plain route

    Q_h(s, a) <- min{ r + mean(V_next over stage) + 2*sqrt(H^2*iota/n_stage),
                      Q_h(s, a) },

so its Q is still non-increasing and it still switches policies only at
stage ends.  Comparing it with the advantage learner isolates what the
reference-advantage split buys.

ClassicQUcbLearner is incremental optimistic Q-learning with the rescaled
learning rate alpha_t = (H+1)/(H+t) and a Hoeffding bonus:

    Q_h(s, a) <- (1-alpha_t) Q_h(s, a)
                 + alpha_t (r + V_{h+1}(s') + c_b*sqrt(H^3*iota/t)),
    V_h(s)    <- min(H-h+1, max_a Q_h(s, a)).

It updates at every step, so its Q is neither monotone nor bounded by its
init (at t=1, alpha=1 and the bonus alone exceeds H); the invariants that
do hold exactly are 0 <= Q <= H-h+1 + c_b*sqrt(H^3*iota) and
0 <= V <= H-h+1.  Q initializes to H-h+1 like the stage learners (the
incremental scheme is usually written with init H; any init >= Q* keeps
the optimism argument and the per-layer value matches the others here).
"""

from __future__ import annotations

from math import sqrt
from typing import Optional

from .advantage import (AlgoConstants, NotAtStageEnd, hoeffding_width,
                        safe_ratio, DEFAULT_N_MAX)
from .base import TabularQLearnerBase
from .mdp import EpisodicMdp
from .stages import OutOfRangeError, StageSchedule, build_schedule

import numpy as np


class HoeffdingStageLearner(TabularQLearnerBase):
    """Stage-based optimistic Q-learning without the reference split."""

    name = "hoeffding-stage"

    def __init__(self, mdp: EpisodicMdp, constants: Optional[AlgoConstants] = None,
                 n_max: int = DEFAULT_N_MAX, schedule: Optional[StageSchedule] = None):
        super().__init__(mdp)
        self.constants = constants or AlgoConstants()
        self.schedule = schedule if schedule is not None else build_schedule(self.H, n_max)
        if self.schedule.H != self.H:
            raise ValueError("schedule horizon does not match the MDP")
        self._ends = self.schedule.end_set()
        self._n_max = self.schedule.n_max
        z = self.H * self.S * self.A
        self._nchk = [0] * z
        self._ups_chk = [0.0] * z

    def observe(self, h: int, s: int, a: int, s_next: int):
        """Record one transition; returns (stage_end, q_changed, False)."""
        i3 = (h * self.S + s) * self.A + a
        n = self._n[i3] + 1
        self._n[i3] = n
        if n > self._n_max:
            raise OutOfRangeError(n, self._n_max)
        self._nchk[i3] += 1
        self._ups_chk[i3] += self._v[(h + 1) * self.S + s_next]
        stage_end = n in self._ends
        q_changed = False
        if stage_end:
            q_changed = self._stage_update(h * self.S + s, i3)
        return stage_end, q_changed, False

    def stage_update(self, h: int, s: int, a: int) -> bool:
        i3 = (h * self.S + s) * self.A + a
        n = self._n[i3]
        if n < 1 or n not in self._ends:
            raise NotAtStageEnd(f"N[h={h}][s={s}][a={a}] = {n} is not a stage end")
        return self._stage_update(h * self.S + s, i3)

    def _stage_update(self, i2, i3) -> bool:
        nc = self._nchk[i3]
        cand = (self._rew[i3] + safe_ratio(self._ups_chk[i3], nc)
                + hoeffding_width(self.H, self.constants.iota, nc))
        self.stage_end_count += 1
        changed = cand < self._q[i3]
        if changed:
            self._q[i3] = cand
            self._v[i2] = self._row_max(i2)
            self.q_update_count += 1
        self._nchk[i3] = 0
        self._ups_chk[i3] = 0.0
        return changed

    def ncheck_array(self) -> np.ndarray:
        return np.asarray(self._nchk, dtype=np.int64).reshape(self.H, self.S, self.A)

    def check_invariants(self) -> None:
        q, v = self.q_array(), self.v_array()
        H = self.H
        inits = (H - np.arange(H, dtype=float))[:, None, None]
        assert np.all(q <= inits + 1e-12), "Q above its optimistic init"
        assert np.all(q >= 0.0), "negative Q"
        assert np.allclose(v[:H], q.max(axis=2), atol=1e-12), "V != row-max of Q"
        assert np.all(v[H] == 0.0), "nonzero boundary V row"


class ClassicQUcbLearner(TabularQLearnerBase):
    """Incremental optimistic Q-learning, alpha_t = (H+1)/(H+t)."""

    name = "classic-qucb"

    def __init__(self, mdp: EpisodicMdp, constants: Optional[AlgoConstants] = None,
                 cb: float = 2.0):
        super().__init__(mdp)
        if cb <= 0:
            raise ValueError(f"c_b must be positive, got {cb}")
        self.constants = constants or AlgoConstants()
        self.cb = cb
        self._h3iota = float(self.H) ** 3 * self.constants.iota

    def observe(self, h: int, s: int, a: int, s_next: int):
        """One incremental update; returns (False, True, False)."""
        S, A, H = self.S, self.A, self.H
        i3 = (h * S + s) * A + a
        t = self._n[i3] + 1
        self._n[i3] = t
        alpha = (H + 1.0) / (H + t)
        target = (self._rew[i3] + self._v[(h + 1) * S + s_next]
                  + self.cb * sqrt(self._h3iota / t))
        q = self._q
        q[i3] = (1.0 - alpha) * q[i3] + alpha * target
        best = self._row_max(h * S + s)
        ceiling = float(H - h)  # H - h + 1 in 1-based steps
        self._v[h * S + s] = ceiling if best > ceiling else best
        self.q_update_count += 1
        return False, True, False

    def check_invariants(self) -> None:
        q, v = self.q_array(), self.v_array()
        H = self.H
        inits = (H - np.arange(H, dtype=float))[:, None, None]
        cap = inits + self.cb * sqrt(self._h3iota)
        assert np.all(q >= 0.0), "negative Q"
        assert np.all(q <= cap + 1e-9), "Q above its inductive cap"
        assert np.all(v >= 0.0) and np.all(v[:H] <= inits[:, 0, 0][:, None] + 1e-12), \
            "V outside [0, H-h+1]"
        assert np.allclose(v[:H], np.minimum(q.max(axis=2), inits[:, :1, 0]), atol=1e-12), \
            "V != min(H-h+1, row-max of Q)"