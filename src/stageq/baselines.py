"""Baseline learner: classic Q-UCB.

(The other baseline, hoeffding-stage, is the stage learner with its
reference route switched off; it lives in the advantage module.)

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

Its episodes run through the base class's drivers, so with a C compiler
the kernel plays them (mode MODE_CLASSIC_QUCB, repeating observe below
operation for operation); observe itself is the path without a compiler,
the reference the kernel must match, and the replay path for recorded
trajectories.  Every step is a Q update, so every stretch is one episode.
"""

from __future__ import annotations

from math import inf, sqrt
from typing import Optional

import numpy as np

from . import kernel
from .advantage import AlgoConstants
from .base import TabularQLearnerBase
from .mdp import EpisodicMdp


class ClassicQUcbLearner(TabularQLearnerBase):
    """Incremental optimistic Q-learning, alpha_t = (H+1)/(H+t)."""

    name = "classic-qucb"

    def __init__(self, mdp: EpisodicMdp, constants: Optional[AlgoConstants] = None,
                 cb: float = 2.0):
        super().__init__(mdp)
        if not 0.0 < cb < inf:     # NaN fails too
            raise ValueError(f"cb must be finite and positive, got {cb}")
        self.constants = constants or AlgoConstants()
        self.cb = cb
        self._h3iota = float(self.H) ** 3 * self.constants.iota
        if self._lib is not None:
            self._bind_kernel(mode=kernel.MODE_CLASSIC_QUCB, cb=cb, h3iota=self._h3iota)

    def observe(self, h: int, s: int, a: int, s_next: int) -> None:
        """One incremental update; every call counts as a Q update."""
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