"""Regret, switching-cost and optimism metrics for experiment runs.

Per-episode regret compares the exact optimal value at the episode's
realized initial state with the exact value of the greedy policy the
learner held at the episode's start:  V*_1(s_1^k) - V^{pi_k}_1(s_1^k).
Both come from exact dynamic programming, not rollouts; policy values are
cached by policy table (V only), so runs where the greedy policy rarely
changes pay almost nothing, and a new policy recomputes only the layers at
and above the deepest one where it differs from the last policy evaluated.

Local switching cost counts per-(h, s) action flips between consecutive
episode policies, n_switch = sum_k #{(h, s): pi_k(h, s) != pi_{k+1}(h, s)}.
For the stage-based learners the greedy policy can only move at stage-end
Q updates, which gives the deterministic ceiling switching_bound() below.

Optimism violations count Q-table entries strictly below Q* - tol; for the
monotone learners an entry that dips under Q* stays under, so the count is
naturally non-decreasing over a run.  run_experiment reports
cum_optimism_violations as the running maximum of that count, taken after
each Q-changing episode.  For the stage learners this is the current count.
classic-qucb's Q moves both ways, so its entries can climb back above Q*;
there the column is the peak count seen so far, not the current one.

The audit loop pays O(H) per Q-changing episode for the switch and
optimism counts, because a learner writes Q (and so its greedy table) only
at the (h, s, a) cells of the episode it just ran: OptimismTracker re-tests
those H cells and SwitchTracker.record_rows compares those H rows.
check_optimism, count_switches and SwitchTracker.record are the full-scan
references they must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .mdp import (DeterministicPolicy, EpisodicMdp, ValueTables, checked_actions,
                  evaluate_layers, policy_evaluation)

EPISODE_CSV_HEADER = ("k,episode_regret,cum_regret,cum_switching_cost,"
                      "cum_q_updates,cum_optimism_violations,ref_states_fixed")


@dataclass
class EpisodeRecord:
    """One audit row; all cum_* fields are non-decreasing in k."""

    k: int                       # 1-based episode index
    episode_regret: float
    cum_regret: float
    cum_switching_cost: int
    cum_q_updates: int
    cum_optimism_violations: int
    ref_states_fixed: int

    def csv_row(self) -> str:
        return (f"{self.k},{self.episode_regret!r},{self.cum_regret!r},"
                f"{self.cum_switching_cost},{self.cum_q_updates},"
                f"{self.cum_optimism_violations},{self.ref_states_fixed}")


class PolicyValueCache:
    """Exact policy values V^pi keyed by the flat action table; V only.

    Greedy policies recur as Q argmaxes flip back and forth, so caching by
    table (not just by version) makes repeated evaluations free.  A miss
    starts from the V of the last policy returned: V[h] depends only on the
    actions at layers >= h, so evaluate_layers recomputes only the layers at
    and above the deepest one where the two tables differ.  The result equals
    a fresh policy_evaluation(...).V bit for bit; ValueTables.Q is None.
    """

    def __init__(self, mdp: EpisodicMdp):
        self.mdp = mdp
        self._store: dict = {}
        self._last = None          # key of the last table returned

    def values(self, actions_flat) -> ValueTables:
        key = tuple(actions_flat)
        hit = self._store.get(key)
        if hit is None:
            mdp = self.mdp
            H, S = mdp.H, mdp.S
            acts = checked_actions(mdp, np.asarray(key, dtype=np.int64).reshape(H, S))
            last = self._last
            if last is None:
                V = np.zeros((H + 1, S))
                top = H - 1
            else:
                # a miss differs from the stored last table in some layer
                V = self._store[last].V.copy()
                top = next(h for h in range(H - 1, -1, -1)
                           if key[h * S:(h + 1) * S] != last[h * S:(h + 1) * S])
            evaluate_layers(mdp, acts, V, top)
            hit = ValueTables(V=V, Q=None)
            self._store[key] = hit
        self._last = key
        return hit


def episode_regret(mdp: EpisodicMdp, vstar: ValueTables, policy: DeterministicPolicy,
                   s1: int, cache: PolicyValueCache | None = None) -> float:
    """V*_1(s1) - V^pi_1(s1), exact; >= 0 up to DP rounding (~1e-12)."""
    if cache is not None:
        vpi = cache.values(np.asarray(policy.actions).reshape(-1))
    else:
        vpi = policy_evaluation(mdp, policy)
    return float(vstar.V[0, s1] - vpi.V[0, s1])


def count_switches(prev_actions, new_actions) -> int:
    """Number of (h, s) cells whose greedy action differs."""
    return sum(1 for p, q in zip(prev_actions, new_actions) if p != q)


class SwitchTracker:
    """Accumulates local switching cost over a stream of episode policies."""

    def __init__(self):
        self._prev = None
        self.total = 0

    def record(self, actions_flat) -> int:
        """Feed episode k's policy (flat (h, s) action list); returns the
        increment against episode k-1's policy (0 for the first)."""
        inc = 0
        if self._prev is not None:
            inc = count_switches(self._prev, actions_flat)
            self.total += inc
        self._prev = list(actions_flat)
        return inc

    def record_rows(self, actions_flat, rows) -> int:
        """record() after a first record(), comparing only the flat (h, s)
        indices in rows; the caller vouches that actions_flat equals the
        previous policy at every other row (the audit passes the rows the
        last episode visited)."""
        prev = self._prev
        inc = sum(1 for i in rows if prev[i] != actions_flat[i])
        self.total += inc
        self._prev = list(actions_flat)
        return inc


def switching_bound(S: int, A: int, H: int, T: int) -> float:
    """Deterministic ceiling 4 H^2 S A ln(T/(2 S A H^2) + 1) on n_switch.

    Each (h, s) can flip only when one of its A counters hits a stage end;
    summing the per-counter stage-count bound and using concavity of ln in
    the total step count T gives the ceiling.  Vacuously 0 at T = 0.
    """
    return 4.0 * H * H * S * A * log(T / (2.0 * S * A * H * H) + 1.0)


def check_optimism(q_learner: np.ndarray, q_star: np.ndarray, tol: float = 1e-9) -> int:
    """Count learner Q entries strictly below Q* - tol.

    q_learner has shape (H, S, A); q_star may carry the boundary row
    (H+1, S, A) and is sliced to match.
    """
    H = q_learner.shape[0]
    return int(np.count_nonzero(q_learner < q_star[:H] - tol))


class OptimismTracker:
    """check_optimism kept current by re-testing only the cells that moved.

    One flag per flat (h, s, a) cell says whether the learner's Q there is
    below Q* - tol; the flags and their count come from one full scan of
    q_learner, and update() re-tests the H cells of an episode's trajectory.
    """

    def __init__(self, q_learner: np.ndarray, q_star: np.ndarray, tol: float = 1e-9):
        H, self._S, self._A = q_learner.shape
        thr = q_star[:H] - tol
        self._thr = thr.reshape(-1).tolist()
        self._below = (q_learner < thr).reshape(-1).tolist()
        self.count = sum(self._below)

    def update(self, q_at, traj) -> int:
        """Re-test the cells (h, s, a) of traj [(s, a, r, s_next)] after the
        episode that produced it; q_at(i) reads Q at flat index i.  Returns
        the current count."""
        S, A, thr, below = self._S, self._A, self._thr, self._below
        count = self.count
        for h, (s, a, _r, _s_next) in enumerate(traj):
            i = (h * S + s) * A + a
            now = q_at(i) < thr[i]
            if now != below[i]:
                below[i] = now
                count += 1 if now else -1
        self.count = count
        return count


def write_episode_csv(records, path) -> None:
    """Write audit rows; float fields use repr so files are byte-stable."""
    with open(path, "w") as f:
        f.write(EPISODE_CSV_HEADER + "\n")
        for rec in records:
            f.write(rec.csv_row() + "\n")
