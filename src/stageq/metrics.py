"""Regret, switching-cost and optimism metrics for experiment runs.

Per-episode regret compares the exact optimal value at the episode's
realized initial state with the exact value of the greedy policy the
learner held at the episode's start:  V*_1(s_1^k) - V^{pi_k}_1(s_1^k).
Both come from exact dynamic programming, not rollouts.  PolicyValueCache
keeps only the last greedy table, the transition rows and rewards it
selects, and its V, so runs where the greedy policy rarely changes pay
almost nothing, and a new table recomputes only the layers at and above
the deepest one where it differs from the last, one dot product per state.

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
those H cells, and PolicyValueCache compares those H rows and counts the
ones that differ as switches.  check_optimism, count_switches,
SwitchTracker.record and policy_evaluation are the full-scan references
they must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from .mdp import EpisodicMdp, ValueTables

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
    """Exact V^pi of the last greedy table, kept current from table to table.

    Holds one table (a flat list), the rows of P and r it selects (P_pi, an
    (H, S, 1, S) array, and r_pi, (H, S)), its V and the running switch
    count, whatever the run length.  values() compares the new table with
    the last one at `rows` (default: every row): no difference returns the
    same ValueTables; otherwise the differing rows are checked (integers in
    [0, A)), written into the table and its gathered rows, added to
    `switches`, and V is recomputed from a copy of the last V.  V[h]
    depends only on the actions at layers >= h, so the recursion
    V[h] = r_pi[h] + P_pi[h] . V[h+1] restarts at the deepest differing
    layer: S dot products per layer, where evaluate_layers takes S*A.
    Each is the same length-S dot product of the same row and V[h+1] that
    evaluate_layers computes, so the result equals a fresh
    policy_evaluation(...).V bit for bit; Q is None.

    Like the MDP's own caches, the gathered rows keep the P and r they came
    from, which become read-only; rebinding mdp.P or mdp.r gathers every
    row again and recomputes every layer.
    """

    def __init__(self, mdp: EpisodicMdp):
        H, S = mdp.H, mdp.S
        self.mdp = mdp
        self.switches = 0          # differing rows summed over calls after the first
        self._flat = [None] * (H * S)   # no table yet: every row differs
        self._P_pi = np.zeros((H, S, 1, S))
        self._r_pi = np.zeros((H, S))
        self._src = (None, None)   # the mdp.P and mdp.r gathered from
        self._tables = None

    def values(self, actions_flat, rows=None) -> ValueTables:
        """V^pi of the flat (h, s) table actions_flat.  rows, if given, lists
        the distinct flat indices where it may differ from the last table
        (the audit passes the rows the last episode visited); the caller
        vouches for every other row.  ValueError on a bad action (outside
        [0, A) or not an integer) or length leaves the cache as it was."""
        mdp, last, first = self.mdp, self._flat, self._tables is None
        if len(actions_flat) != len(last):
            raise ValueError(f"policy has {len(actions_flat)} entries, not {len(last)}")
        if rows is None or first:
            rows = range(len(last))
        diff = [i for i in rows if actions_flat[i] != last[i]]
        P, r = mdp.P, mdp.r
        rebound = P is not self._src[0] or r is not self._src[1]
        if not diff and not rebound:
            return self._tables
        new = [actions_flat[i] for i in diff]
        if diff:
            if min(new) < 0 or max(new) >= mdp.A:
                raise ValueError(f"policy actions outside [0, {mdp.A})")
            ints = [int(a) for a in new]    # NaN raises ValueError here
            if ints != new:
                raise ValueError("policy actions must be integers")
            new = ints
        H, S = mdp.H, mdp.S
        P_pi, r_pi = self._P_pi, self._r_pi
        for i, a in zip(diff, new):
            last[i] = a
        if rebound:
            P.setflags(write=False)
            r.setflags(write=False)
            acts = np.array(last, dtype=np.int64).reshape(H, S)
            layer, state = np.indices((H, S))
            P_pi[:, :, 0] = P[layer, state, acts]
            r_pi[:] = r[layer, state, acts]
            self._src = (P, r)
            top = H - 1
        else:
            for i, a in zip(diff, new):
                h, s = divmod(i, S)
                P_pi[h, s, 0] = P[h, s, a]
                r_pi[h, s] = r[h, s, a]
            top = max(diff) // S
        V = np.zeros((H + 1, S)) if first else self._tables.V.copy()
        self.switches += 0 if first else len(diff)
        col = V[:, :, None]        # each V[h] as the (S, 1) column dot writes
        for h in range(top, -1, -1):   # dot, then + r_pi[h]: the same sum, no temporaries
            P_pi[h].dot(V[h + 1], out=col[h])
            V[h] += r_pi[h]
        self._tables = ValueTables(V=V, Q=None)
        return self._tables


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
