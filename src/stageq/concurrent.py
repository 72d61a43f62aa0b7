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
  * rounds <= U + ceil(budget / M) + 1, with U the number of update rounds;
  * with M = 1 the whole procedure is step-for-step identical to running the
    learner live for `budget` episodes on the same environment stream,
    because an in-episode update at step h only rewrites layer-h tables,
    which that episode never reads again.

The returned policy is the frozen policy of one consumed trajectory chosen
uniformly at random, which takes a single draw from the caller's pick
stream after the loop ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mdp import DeterministicPolicy, EpisodicMdp, sample_episode

ROUNDS_CSV_HEADER = "round,consumed,update_triggered,policy_version"


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
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not self.c5 > 0:
            raise ValueError(f"c5 must be > 0, got {self.c5}")

    def budget(self, S: int, A: int, H: int) -> int:
        if self.k_eps_override is not None:
            raw = float(self.k_eps_override)
        else:
            raw = (self.c5 * S * A * H ** 3
                   * math.log(S * A * H / self.epsilon) / self.epsilon ** 2)
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

    def csv_row(self) -> str:
        return (f"{self.round},{self.consumed},"
                f"{int(self.update_triggered)},{self.policy_version}")


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
    observe_trajectory (the compiled kernel for the stage learners, when
    built); True if Q changed."""
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
    spread across agents deterministically.
    """
    M = config.agents
    budget = config.budget(mdp.S, mdp.A, mdp.H)
    rounds = []
    policies = []               # frozen flat policy per round
    consumed_per_round = []
    total_consumed = 0
    total_generated = 0
    update_rounds = 0

    while total_consumed < budget:
        policy_flat = learner.greedy_actions_flat()
        actor = FrozenActor(policy_flat, mdp.S)
        trajs = []
        for m in range(M):
            trajs.append(sample_episode(mdp, actor, env_rng,
                                        episode_index=total_generated + m))
        total_generated += M

        consumed = 0
        triggered = False
        for traj in trajs:
            consumed += 1
            if replay_into(learner, traj):
                triggered = True
                break
        total_consumed += consumed
        rounds.append(RoundLog(round=len(rounds) + 1, consumed=consumed,
                               update_triggered=triggered,
                               policy_version=update_rounds))
        policies.append(policy_flat)
        consumed_per_round.append(consumed)
        if triggered:
            update_rounds += 1

    pick = pick_rng.integers(total_consumed)
    acc = 0
    chosen_flat = policies[-1]
    for flat, cnt in zip(policies, consumed_per_round):
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
    with open(path, "w") as f:
        f.write(ROUNDS_CSV_HEADER + "\n")
        for r in rounds:
            f.write(r.csv_row() + "\n")
