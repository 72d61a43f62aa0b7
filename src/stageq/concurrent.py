"""Round-synchronized multi-agent exploration with low policy churn.

Each round freezes the learner's greedy policy, has M agents roll out one
episode apiece under it, then replays the trajectories into the learner one
at a time up to the first whose replay changes a Q entry (it counts as
consumed; the rest of the batch is discarded).  The run stops at the end of
the first round whose consumed total reaches the sample budget, so it can
overshoot the budget by at most M - 1.

Structural invariants (asserted in tests, not here):
  * a round consumes fewer than M trajectories only if it triggered an update;
  * rounds <= U + ceil(budget / M) + 1, with U the number of update rounds.

Sampling a round under the frozen policy and replaying it up to the first
Q-changing trajectory gives, bit for bit, what playing those episodes
online up to the first Q-changing one gives: before that episode Q does
not change, so the greedy policy is the frozen one; inside it, an update
at step h rewrites only layer-h tables, which no later step of the episode
reads.  The discarded rest of an update round would have drawn (M - 1 - j)
* H uniforms after the round's j-th episode (0-based), and nothing else.
So run_concurrent has the learner play the episodes online (run_rounds,
many rounds a call), skipping exactly those, and
keeps the generation index of each Q-changing episode (an array('q')):
with M and the episodes generated, that is the whole round log, as every
other round is full.  ConcurrentResult.rounds is a read-only metrics.Table
kept as just those; its RoundLog rows are built at the first read
(round_columns).  write_rounds_csv builds the columns with NumPy a window
of rounds at a time and writes each through metrics.write_table.  With
M = 1 this is the learner run live for `budget` episodes on the same
environment stream.

FrozenActor and replay_into are the pieces of the sample-then-replay round
that this replaces; tests rebuild that round from them as the reference.

The returned policy is the frozen policy of consumed trajectory
int(u * total_consumed), u being the one draw from the caller's separate
pick stream, taken first.  As total_consumed lies in [budget, budget +
M - 1], only rounds starting at a consumed count in [int(u * budget) -
M + 1, int(u * (budget + M - 1))] can hold it: the runner plays those one
at a time and keeps the greedy policy at each one's start (< 2M of them).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mdp import DEFAULT_STARTS, DeterministicPolicy, EpisodicMdp, InitialStates
from .metrics import Table, write_table

ROUNDS_CSV_HEADER = "round,consumed,update_triggered,policy_version"
ROUND_WINDOW = 1 << 13     # rounds.csv's rounds built and written per write_table call


class BudgetTooSmall(ValueError):
    """The resolved sample budget is below one trajectory."""


@dataclass(frozen=True)
class ConcurrentConfig:
    """Agent count and accuracy target; the budget derives from both.

    The default budget scales like S*A*H^3 * ln(S*A*H/epsilon) / epsilon^2
    trajectories (times c5), counting consumed trajectories across all
    rounds.  k_eps_override replaces the formula entirely.
    """

    agents: int = 1
    epsilon: float = 0.1
    c5: float = 1.0
    k_eps_override: Optional[float] = None

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError(f"agents must be >= 1, got {self.agents}")
        if not 0 < self.epsilon < math.inf:     # NaN fails too
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 0 < self.c5 < math.inf:
            raise ValueError(f"c5 must be finite and positive, got {self.c5}")
        if self.k_eps_override is not None and not math.isfinite(self.k_eps_override):
            raise ValueError(f"k_eps_override must be finite, got {self.k_eps_override}")

    def budget(self, S: int, A: int, H: int) -> int:
        if self.k_eps_override is not None:
            raw = float(self.k_eps_override)
        else:
            try:
                raw = (self.c5 * S * A * H ** 3
                       * math.log(S * A * H / self.epsilon) / self.epsilon ** 2)
            except (OverflowError, ZeroDivisionError):    # epsilon ** 2 out of range
                raw = math.inf
            if not math.isfinite(raw):
                raise ValueError(f"trajectory budget for epsilon={self.epsilon}, "
                                 f"c5={self.c5} is not finite")
        n = math.ceil(raw)
        if n < 1:
            raise BudgetTooSmall(
                f"resolved trajectory budget {raw:.3g} is below 1; "
                f"raise c5/k_eps_override or shrink epsilon")
        return n


@dataclass
class RoundLog:
    round: int                # 1-based
    consumed: int
    update_triggered: bool
    policy_version: int       # update rounds strictly before this one


@dataclass
class ConcurrentResult:
    rounds: object            # RoundLog rows; run_concurrent's is a read-only Table
    budget: int
    total_consumed: int
    total_generated: int
    update_rounds: int
    output_policy: DeterministicPolicy
    picked_trajectory: int    # 0-based index among consumed trajectories
    learner: object


class FrozenActor:
    """Plays a fixed flat action table; has no observe hook."""

    def __init__(self, actions_flat, S: int):
        self._actions = actions_flat
        self._S = S

    def select_action(self, h: int, s: int) -> int:
        return self._actions[h * self._S + s]


def replay_into(learner, traj) -> bool:
    """Feed one recorded trajectory through the learner's
    observe_trajectory; True if Q changed."""
    u0 = learner.q_update_count
    learner.observe_trajectory(traj)
    return learner.q_update_count != u0


def round_count_bound(update_rounds: int, budget: int, agents: int) -> int:
    """Deterministic cap on rounds: every non-update round consumes M."""
    return update_rounds + math.ceil(budget / agents) + 1


def run_concurrent(mdp: EpisodicMdp, learner, config: ConcurrentConfig,
                   env_rng, pick_rng, init: InitialStates = DEFAULT_STARTS) -> ConcurrentResult:
    """Run rounds until the consumed-trajectory budget is met.

    env_rng/pick_rng are uniform streams (see the harness): one drives all
    episode sampling in generation order, the other supplies the single
    draw that picks the output policy.  The start states init are indexed
    by global generation order, so a pre-committed initial-state sequence
    is spread across agents deterministically.  The rounds are played online
    by the learner's run_rounds (see the module docstring).  RuntimeError
    once consumed passes budget + M - 1, which a correct run never reaches.
    """
    M = config.agents
    budget = config.budget(mdp.S, mdp.A, mdp.H)
    u = pick_rng.random()
    hi = int(u * (budget + M - 1))
    limit = int(u * budget) - M + 1     # the first round start that can hold the pick
    policies = {}                       # greedy policy at each round start from there to hi
    changes = array("q")                # generation index of each Q-changing episode
    generated = consumed = 0
    while True:
        if generated % M == 0 and consumed >= limit:     # a round start at the limit
            if consumed >= budget:
                break
            if consumed <= hi:          # keep its frozen policy, and play it alone
                policies[consumed] = learner.greedy_actions_flat()
            limit = consumed + 1 if consumed <= hi else budget
        played, consumed = learner.run_rounds(mdp, env_rng, generated, M, consumed, limit,
                                              changes, init)
        generated += played
        if consumed > budget + M - 1:   # past every round start a run can stop at
            raise RuntimeError(f"run_rounds consumed {consumed} without ending at a round start")

    pick = int(u * consumed)
    chosen_flat = policies[max(c for c in policies if c <= pick)]
    policy = DeterministicPolicy(
        np.asarray(chosen_flat, dtype=np.int64).reshape(mdp.H, mdp.S))
    return ConcurrentResult(rounds=Table(RoundLog, (changes, generated, M), round_columns),
                            budget=budget, total_consumed=consumed,
                            total_generated=generated, update_rounds=len(changes),
                            output_policy=policy, picked_trajectory=pick,
                            learner=learner)


def round_columns(changes, generated: int, M: int):
    """_round_window's columns of all generated // M rounds, as Python cells."""
    _, consumed, triggered, version = _round_window(changes, M, 0, generated // M)
    return (range(1, len(consumed) + 1), array("q", consumed.tobytes()),
            triggered.astype(bool).tolist(), array("q", version.tobytes()))


def _round_window(changes, M: int, lo: int, hi: int) -> list:
    """The RoundLog columns of rounds lo + 1 .. hi of M episodes as int64
    arrays, from the sorted generation indices of the Q-changing episodes
    (an array('q')): each round full but for the round g // M of change g."""
    g = np.frombuffer(changes, np.int64)
    before, end = np.searchsorted(g, (lo * M, hi * M))     # the window's changes
    g = g[before:end]
    consumed, triggered = np.full(hi - lo, M, np.int64), np.zeros(hi - lo, np.int64)
    consumed[g // M - lo], triggered[g // M - lo] = g % M + 1, 1
    version = np.cumsum(triggered) - triggered + before     # update rounds before
    return [np.arange(lo + 1, hi + 1), consumed, triggered, version]


def write_rounds_csv(rounds, path) -> None:
    """rounds.csv from the change indices: the columns of ROUND_WINDOW
    rounds at a time, built with NumPy (_round_window), each written by
    metrics.write_table, so memory is bounded by the window, not the round
    count.  rounds is run_concurrent's Table, or any sequence of RoundLog
    rows that is a run's log, checked column by column against the log
    its change indices give (else ValueError)."""
    if isinstance(rounds, Table) and rounds.build is round_columns:
        changes, generated, M = rounds.source
    else:
        columns = Table.columns_of(RoundLog, rounds)
        rnd, consumed, triggered, _ = columns
        M = max([1, *consumed])         # any M >= each round's count serves if none is full
        # sorted, as a log's are, so rows in another order fail the check below
        changes = array("q", sorted(r * M - M + c - 1
                                    for r, c, t in zip(rnd, consumed, triggered) if t))
        generated = len(rnd) * M
        if any(list(a) != list(b)
               for a, b in zip(round_columns(changes, generated, M), columns)):
            raise ValueError("rows are not the round log of a concurrent run")
    R = generated // M
    with open(path, "w") as f:
        f.write(ROUNDS_CSV_HEADER + "\n")
        for lo in range(0, R, ROUND_WINDOW):
            write_table(f, None, _round_window(changes, M, lo, min(lo + ROUND_WINDOW, R)))
