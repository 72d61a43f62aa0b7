"""Round-synchronized multi-agent exploration with low policy churn.

Each round freezes the learner's current greedy policy, has M agents roll
out one episode apiece under that frozen policy, then replays the collected
trajectories into the learner one at a time, stopping at the first
trajectory whose replay changes a Q entry (that trajectory counts as
consumed; the rest of the batch is discarded).  The run stops at the end of
the first round where the total number of consumed trajectories reaches the
sample budget, so it can overshoot the budget by at most M - 1.

Structural invariants (asserted in tests, not here):
  * a round consumes fewer than M trajectories only if it triggered an update;
  * rounds <= U + ceil(budget / M) + 1, with U the number of update rounds.

Rounds are played as learner stretches.  Sampling a round under the frozen
policy and replaying it up to the first Q-changing trajectory gives, bit
for bit, what playing those episodes online up to the first Q-changing one
gives: before that episode Q does not change, so the greedy policy is the
frozen one; inside it, an update at step h rewrites only layer-h tables,
which no later step of the episode reads.  So run_concurrent has the
learner play episodes online (run_stretch, the compiled kernel where it
builds) from the round start to the first Q change or the
round-aligned budget end, and derives the rounds from the episodes played.
The discarded rest of an update round would have drawn one uniform per
step, (M - 1 - j) * H in all after the round's j-th episode (0-based), and
nothing else; the runner skips exactly those, so the stream stands where
sampling them would have left it.  With M = 1 this is the learner run live
for `budget` episodes on the same environment stream.

FrozenActor and replay_into are the pieces of the sample-then-replay round
that this invariant replaces; tests rebuild that round from them as the
reference.

The returned policy is the frozen policy of one consumed trajectory chosen
uniformly at random, which takes a single draw from the caller's pick
stream after the loop ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .mdp import DeterministicPolicy, EpisodicMdp
from .metrics import write_csv

ROUNDS_CSV_HEADER = "round,consumed,update_triggered,policy_version"
ROUNDS_CSV_ROW = "%d,%d,%d,%d"      # update_triggered as 0 or 1


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
    rounds: list
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
                   env_rng, pick_rng) -> ConcurrentResult:
    """Run rounds until the consumed-trajectory budget is met.

    env_rng/pick_rng are uniform streams (see the harness): one drives all
    episode sampling in generation order, the other supplies the single
    draw that picks the output policy.  Initial states are indexed by
    global generation order, so a pre-committed initial-state sequence is
    spread across agents deterministically.  The rounds are played as
    learner stretches (see the module docstring).
    """
    M, H = config.agents, mdp.H
    budget = config.budget(mdp.S, mdp.A, H)
    rounds = []
    policies = []               # (frozen flat policy, trajectories consumed under it)
    total_consumed = 0
    total_generated = 0
    update_rounds = 0

    while total_consumed < budget:
        policy_flat = learner.greedy_actions_flat()
        k = total_generated
        stop = k + math.ceil((budget - total_consumed) / M) * M
        changed = False
        while not changed and k < stop:
            played, changed = learner.run_stretch(mdp, env_rng, k, stop)
            k += played
        # full rounds, then the changing episode's place j in its round
        played = k - total_generated
        full, j = divmod(played - 1, M) if changed else (played // M, 0)
        for _ in range(full):
            rounds.append(RoundLog(round=len(rounds) + 1, consumed=M,
                                   update_triggered=False,
                                   policy_version=update_rounds))
        consumed = full * M
        total_generated += consumed
        if changed:
            rounds.append(RoundLog(round=len(rounds) + 1, consumed=j + 1,
                                   update_triggered=True,
                                   policy_version=update_rounds))
            consumed += j + 1
            total_generated += M
            update_rounds += 1
            env_rng.skip((M - 1 - j) * H)     # the round's discarded episodes
        total_consumed += consumed
        policies.append((policy_flat, consumed))

    pick = pick_rng.integers(total_consumed)
    acc = 0
    chosen_flat = policies[-1][0]
    for flat, cnt in policies:
        if pick < acc + cnt:
            chosen_flat = flat
            break
        acc += cnt
    policy = DeterministicPolicy(
        np.asarray(chosen_flat, dtype=np.int64).reshape(mdp.H, mdp.S))
    return ConcurrentResult(rounds=rounds, budget=budget,
                            total_consumed=total_consumed,
                            total_generated=total_generated,
                            update_rounds=update_rounds,
                            output_policy=policy, picked_trajectory=pick,
                            learner=learner)


def write_rounds_csv(rounds, path) -> None:
    write_csv(path, ROUNDS_CSV_HEADER, ROUNDS_CSV_ROW,
              map(attrgetter(*ROUNDS_CSV_HEADER.split(",")), rounds))
