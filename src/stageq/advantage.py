"""Stage-based optimistic Q-learning with reference-advantage updates.

The learner keeps optimistic tables Q_h(s, a) and V_h(s) = max_a Q_h(s, a),
both initialized to H - h + 1 and only ever revised downward, plus a
per-state reference table Vref_h(s) initialized to H.  Visits to each
(h, s, a) are grouped by a geometric stage schedule; at each stage end the
learner takes the minimum of two optimistic estimates of the step target
r + E[V_{h+1}]:

  * a plain last-stage mean with a Hoeffding-width bonus
        r + mean(V_next over the stage) + 2*sqrt(H^2 * iota / n_stage), and
  * a variance-reduced split  r + mean(Vref_next over ALL visits)
        + mean(V_next - Vref_next over the stage) + b,
    where b combines empirical-Bernstein widths of both pieces with
    lower-order terms.

Once a state's total visit count at step h reaches the trigger N0, the
current V_h(s) is frozen into Vref_h(s) (write-once).  The reference part
of the split then stops moving, so its all-visits mean concentrates at
rate sqrt(Var(Vref)/n) -- the variance reduction that removes the extra
sqrt(H) from the regret of plain optimistic Q-learning.

Default constants: failure probability p=0.01 with iota = ln(2/p); bonus
multipliers (c1, c2, c3) = (2, 2, 5); accuracy target beta = 1/sqrt(H);
trigger N0 = c4 * S * A * H^5 * iota / beta^2.  These are the published
theory values -- at desk scale they keep bonuses larger than any value gap
(the first Q change needs a stage longer than 4*H^2*iota), so experiment
configs routinely shrink c1..c3 or override N0; every knob is explicit.

The class attribute `reference` switches the reference route.
HoeffdingStageLearner (`hoeffding-stage`) only sets it to False: its stage
update keeps the plain target alone,

    Q_h(s, a) <- min{ r + mean(V_next over stage) + 2*sqrt(H^2*iota/n_stage),
                      Q_h(s, a) },

and its trigger is infinite, so no reference ever freezes and Vref stays
at H.  Its Q is still non-increasing and it still switches policies only at
stage ends.  That is the paper's ablation: comparing the two isolates what
the reference-advantage split buys.

All counts, accumulators and tables live in fixed-size flat buffers
(array('d') and array('q')) that both Python and the compiled kernel read
and write in place; the episode drivers (run_episode, run_stretch,
run_rounds) are the base class's, and the kernel repeats observe and
_stage_update below (see the base module).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import inf, isnan, log, sqrt
from typing import Optional

import numpy as np

from . import kernel
from .base import EpisodeReport, TabularQLearnerBase
from .mdp import EpisodicMdp
from .stages import OutOfRangeError, build_schedule

__all__ = ["AlgoConstants", "UcbAdvantageLearner", "HoeffdingStageLearner",
           "EpisodeReport", "safe_ratio", "DEFAULT_N_MAX"]

DEFAULT_N_MAX = 1 << 20


@dataclass(frozen=True)
class AlgoConstants:
    """Knobs shared by the stage-based learners.

    beta=None resolves to 1/sqrt(H); n0_override, when set, replaces the
    theory trigger c4*S*A*H^5*iota/beta^2 entirely.
    """

    p: float = 0.01
    c1: float = 2.0
    c2: float = 2.0
    c3: float = 5.0
    c4: float = 1.0
    beta: Optional[float] = None
    n0_override: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        # written as "not 0 < x < inf", so that NaN fails too
        for name in ("c1", "c2", "c3", "c4", "beta"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.n0_override is not None and isnan(self.n0_override):
            raise ValueError("n0_override must not be NaN")

    @property
    def iota(self) -> float:
        return log(2.0 / self.p)

    def resolved_beta(self, H: int) -> float:
        return self.beta if self.beta is not None else 1.0 / sqrt(H)

    def reference_trigger(self, S: int, A: int, H: int) -> float:
        """Visit count at which Vref_h(s) freezes (N0)."""
        if self.n0_override is not None:
            return float(self.n0_override)
        beta = self.resolved_beta(H)
        return self.c4 * S * A * H**5 * self.iota / beta**2


def safe_ratio(num: float, den: float) -> float:
    """num/den with the 0/0 := 0 convention used by the update targets."""
    return num / den if den > 0 else 0.0


def hoeffding_width(H: int, iota: float, n: int) -> float:
    """Plain confidence width 2*sqrt(H^2*iota/n) for an n-sample value mean."""
    return 2.0 * sqrt(H * H * iota / n)


class UcbAdvantageLearner(TabularQLearnerBase):
    """Reference-advantage learner; model-free (sees dims + rewards only)."""

    name = "advantage"
    reference = True   # False: Hoeffding target only, references never freeze

    def __init__(self, mdp: EpisodicMdp, constants: Optional[AlgoConstants] = None,
                 n_max: int = DEFAULT_N_MAX):
        super().__init__(mdp)
        S, A, H = self.S, self.A, self.H
        self.constants = constants or AlgoConstants()
        self.schedule = build_schedule(H, n_max)
        self._n_max = self.schedule.n_max

        c = self.constants
        self._iota = iota = c.iota
        iota34 = iota ** 0.75
        self._n0 = c.reference_trigger(S, A, H) if self.reference else float("inf")
        # At the stage end with visit count n = ends[j] the stage count is
        # nc = lengths[j], so the c3 lower-order term and the Hoeffding width
        # depend on n alone.  Keyed by n, plain ints, same expressions as
        # the update always used (np.power rounds differently).
        self._stage_consts = {
            n: (c.c3 * (H * iota / n + H * iota / nc
                        + H * iota34 / n ** 0.75 + H * iota34 / nc ** 0.75),
                hoeffding_width(H, iota, nc))
            for n, nc in zip(self.schedule._end_list, self.schedule.lengths.tolist())}

        # reference table with zero boundary row, and the five stage/global
        # accumulators: mu_chk/ups_chk/sig_chk reset each stage end,
        # mu_ref/sig_ref never reset
        z = H * S * A
        self._vref = array("d", [float(H)]) * (H * S) + array("d", [0.0]) * S
        self._nchk = array("q", [0]) * z
        self._mu_chk = array("d", [0.0]) * z
        self._ups_chk = array("d", [0.0]) * z
        self._sig_chk = array("d", [0.0]) * z
        self._mu_ref = array("d", [0.0]) * z
        self._sig_ref = array("d", [0.0]) * z
        self._n_state = array("q", [0]) * (H * S)
        self._ref_fixed = array("b", [0]) * (H * S)
        if self._lib is not None:
            ends = self.schedule._end_list
            # the kernel's stage-end tables; kept alive here, the struct
            # holds only their addresses
            self._kbufs = (array("q", [0]) * z, array("q", ends),
                           array("d", [self._stage_consts[n][0] for n in ends]),
                           array("d", [self._stage_consts[n][1] for n in ends]))
            self._bind_kernel(
                **{name: getattr(self, "_" + name) for name in (
                    "vref", "nchk", "mu_chk", "ups_chk", "sig_chk", "mu_ref", "sig_ref",
                    "n_state", "ref_fixed")},
                **dict(zip(("end_idx", "ends", "lower", "bbar"), self._kbufs)),
                n_max=self._n_max, n0=self._n0, c1=c.c1, c2=c.c2, iota=self._iota,
                mode=kernel.MODE_ADVANTAGE if self.reference else kernel.MODE_HOEFFDING_STAGE)

    def observe(self, h: int, s: int, a: int, s_next: int) -> None:
        """Record one transition.

        Accumulates the stage statistics (the new sample belongs to the
        current stage), fires the stage update when the visit count hits a
        stage end, and afterwards applies the write-once reference fix when
        the state's total visits reach the trigger.
        """
        S, A = self.S, self.A
        i2 = h * S + s
        i3 = i2 * A + a
        vi = (h + 1) * S + s_next
        v_next = self._v[vi]
        vref_next = self._vref[vi]
        d = v_next - vref_next

        n = self._n[i3] + 1
        self._n[i3] = n
        if n > self._n_max:
            raise OutOfRangeError(n, self._n_max)
        self._nchk[i3] += 1
        self._mu_chk[i3] += d
        self._ups_chk[i3] += v_next
        self._sig_chk[i3] += d * d
        self._mu_ref[i3] += vref_next
        self._sig_ref[i3] += vref_next * vref_next

        if n in self._stage_consts:
            self._stage_update(i2, i3)

        ns = self._n_state[i2] + 1
        self._n_state[i2] = ns
        if ns >= self._n0 and not self._ref_fixed[i2]:
            self._vref[i2] = self._v[i2]
            self._ref_fixed[i2] = True
            self.ref_fixed_count += 1

    def _stage_update(self, i2, i3) -> None:
        """min{Hoeffding target, reference-advantage target, old Q}, the
        middle one only with the reference route on; then
        V_h(s) = max_a Q_h(s, a) and the stage accumulators reset.  A Q
        update whose reference candidate was strictly the smaller one counts
        in reference_wins."""
        n = self._n[i3]
        nc = self._nchk[i3]
        lower, b_bar = self._stage_consts[n]
        r = self._rew[i3]
        cand = r + safe_ratio(self._ups_chk[i3], nc) + b_bar
        ref_won = False
        if self.reference:
            c = self.constants
            iota = self._iota
            mu_ref_bar = safe_ratio(self._mu_ref[i3], n)
            nu_ref = max(0.0, safe_ratio(self._sig_ref[i3], n) - mu_ref_bar * mu_ref_bar)
            mu_chk_bar = safe_ratio(self._mu_chk[i3], nc)
            nu_chk = max(0.0, safe_ratio(self._sig_chk[i3], nc) - mu_chk_bar * mu_chk_bar)
            b = (c.c1 * sqrt(nu_ref * iota / n)
                 + c.c2 * sqrt(nu_chk * iota / nc)
                 + lower)
            cand2 = r + mu_ref_bar + mu_chk_bar + b
            if cand2 < cand:
                cand = cand2
                ref_won = True

        self.stage_end_count += 1
        if cand < self._q[i3]:
            self._q[i3] = cand
            self._v[i2] = self._row_max(i2)
            self.q_update_count += 1
            self.reference_wins += ref_won

        self._nchk[i3] = 0
        self._mu_chk[i3] = 0.0
        self._ups_chk[i3] = 0.0
        self._sig_chk[i3] = 0.0

    # ----------------------------------------------------------- exports

    def vref_array(self) -> np.ndarray:
        return np.array(self._vref, dtype=float).reshape(self.H + 1, self.S)

    def ncheck_array(self) -> np.ndarray:
        return np.array(self._nchk, dtype=np.int64).reshape(self.H, self.S, self.A)

    def ref_fixed_array(self) -> np.ndarray:
        return np.array(self._ref_fixed, dtype=bool).reshape(self.H, self.S)

    def check_invariants(self) -> None:
        """Assert the structural table invariants (cheap; test/strict use)."""
        q, v, vref = self.q_array(), self.v_array(), self.vref_array()
        H = self.H
        inits = (H - np.arange(H, dtype=float))[:, None, None]
        assert np.all(q <= inits + 1e-12), "Q above its optimistic init"
        # r + mean(V_next) + width is never negative; the reference target
        # subtracts a stage mean of Vref and can be, when bonuses are small
        assert self.reference or np.all(q >= 0.0), "negative Q"
        assert np.allclose(v[:H], q.max(axis=2), atol=1e-12), "V != row-max of Q"
        assert np.all(v[H] == 0.0) and np.all(vref[H] == 0.0), "nonzero boundary row"
        fixed = self.ref_fixed_array()
        assert np.all(vref[:H][~fixed] == float(H)), "unfixed Vref moved"
        nchk = self.ncheck_array()
        n = self.n_array()
        for (h, s, a) in zip(*np.nonzero(n)):
            idx = self.schedule.stage_index(int(n[h, s, a]))
            done = self.schedule.ends[idx - 1] == n[h, s, a]
            mass = self.schedule.ends[idx - 2] if idx > 1 else 0
            expect = 0 if done else n[h, s, a] - mass
            assert nchk[h, s, a] == expect, "Ncheck != visits since last stage end"


class HoeffdingStageLearner(UcbAdvantageLearner):
    """Stage-based optimistic Q-learning without the reference split."""

    name = "hoeffding-stage"
    reference = False
