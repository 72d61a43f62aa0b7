"""Independent brute-force oracles for exact-DP verification.

Nothing here uses Bellman recursion: optimal values come from enumerating
every deterministic policy over the remaining layers and evaluating each by
summing probability * reward over all state paths.  Exponential in S*H, so
only usable on tiny shapes, which is the point — an oracle with a different
failure mode than the code under test.

sample_then_replay_concurrent is the concurrent runner as it was before
rounds became learner stretches: each round samples M trajectories under
the frozen greedy policy, then replays them until the first one that
changes Q.  run_concurrent must match it bit for bit.

episode_regret is the regret of one episode computed from scratch, with a
full policy_evaluation: the formula the audit loop's cached values must
agree with.

validate_by_rows is mdp.validate as it was before its checks became
whole-array masks: one (h, s, a) row at a time in scan order.  validate
must raise the same exception, with the same message, on any instance;
bad_rows_by_test is its first mask, which mdp.bad_rows must equal.

assert_view_matches checks a log kept as columns (metrics.Table) against
the plain list of row objects it stands for, read every way a list is.
"""

import itertools

import numpy as np

from stageq.concurrent import ConcurrentResult, FrozenActor, RoundLog, replay_into
from stageq.mdp import (DeterministicPolicy, NonStochasticRow,
                        RewardOutOfRange, policy_evaluation, sample_episode)


def all_tail_policies(A: int, layers: int, S: int) -> np.ndarray:
    """(A**(layers*S), layers, S) array: every action table, mixed radix."""
    n = A ** (layers * S)
    idx = np.arange(n, dtype=np.int64)
    digits = np.empty((n, layers * S), dtype=np.int64)
    for d in range(layers * S - 1, -1, -1):
        digits[:, d] = idx % A
        idx //= A
    return digits.reshape(n, layers, S)


def brute_policy_value(mdp, actions, s_start: int) -> float:
    """V^pi_1(s_start) by full path enumeration (S**H paths)."""
    total = 0.0
    for path in itertools.product(range(mdp.S), repeat=mdp.H):
        prob, rew, s = 1.0, 0.0, s_start
        for h, nxt in enumerate(path):
            a = int(actions[h][s])
            rew += float(mdp.r[h, s, a])
            prob *= float(mdp.P[h, s, a, nxt])
            s = nxt
        total += prob * rew
    return total


def brute_value_tables(mdp):
    """(V_star (H+1,S), Q_star (H,S,A)) via tail-policy enumeration.

    For each start layer h0 and state s, evaluates every policy over layers
    h0..H-1 by path expansion; V* is the max, and Q*(h0,s,a) the max over
    policies whose first action at s is a.
    """
    S, A, H = mdp.S, mdp.A, mdp.H
    P, r = mdp.P, mdp.r
    v_star = np.zeros((H + 1, S))
    q_star = np.empty((H, S, A))
    for h0 in range(H):
        L = H - h0
        pis = all_tail_policies(A, L, S)
        for s_start in range(S):
            returns = np.zeros(pis.shape[0])
            for path in itertools.product(range(S), repeat=L):
                prob = np.ones(pis.shape[0])
                rew = np.zeros(pis.shape[0])
                s = s_start
                for j, nxt in enumerate(path):
                    h = h0 + j
                    a = pis[:, j, s]
                    rew += r[h, s, a]
                    prob *= P[h, s, a, nxt]
                    s = nxt
                returns += prob * rew
            v_star[h0, s_start] = returns.max()
            first = pis[:, 0, s_start]
            for a in range(A):
                q_star[h0, s_start, a] = returns[first == a].max()
    return v_star, q_star


def episode_regret(mdp, vstar, policy, s1: int) -> float:
    """V*_1(s1) - V^pi_1(s1), exact; >= 0 up to DP rounding (~1e-12)."""
    return float(vstar.V[0, s1] - policy_evaluation(mdp, policy).V[0, s1])


# shapes with A**(S*H) <= 6561 so the enumeration stays cheap; S*A*H <= 24
ORACLE_SHAPES = [
    (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (2, 2, 4),
    (4, 2, 2), (2, 4, 2), (3, 3, 2), (3, 2, 3), (2, 3, 3),
    (2, 2, 5), (2, 2, 6), (3, 2, 4), (4, 2, 3), (3, 4, 2),
    (2, 4, 3), (4, 3, 2), (2, 6, 2), (6, 2, 2), (2, 3, 4),
]


def sample_then_replay_concurrent(mdp, learner, config, env_rng, pick_rng, init):
    """run_concurrent's reference: sample a round, then replay it."""
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
                                        episode_index=total_generated + m, init=init))
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


def validate_by_rows(mdp, tol: float = 1e-12) -> None:
    """The row-by-row scan validate replaced (shape checks left out)."""
    P, r = np.asarray(mdp.P, dtype=float), np.asarray(mdp.r, dtype=float)
    finite = bool(np.isfinite(P).all())
    for h in range(mdp.H):
        for s in range(mdp.S):
            for a in range(mdp.A):
                row = P[h, s, a]
                if not finite and not np.isfinite(row).all():
                    raise NonStochasticRow(h, s, a, f"non-finite entry in {row.tolist()}")
                if np.any(row < 0.0):
                    raise NonStochasticRow(h, s, a, f"negative entry {row.min()}")
                gap = abs(row.sum() - 1.0)
                if gap > tol:
                    raise NonStochasticRow(h, s, a, f"row sums to {row.sum()!r}")
                rv = r[h, s, a]
                if not 0.0 <= rv <= 1.0:
                    raise RewardOutOfRange(h, s, a, rv)


def bad_rows_by_test(P, r, tol: float = 1e-12):
    """The (h, s, a) mask validate built before its negated-comparison
    form: a non-finite, a negative, or an off-sum row, or a reward outside
    [0, 1]."""
    with np.errstate(invalid="ignore"):
        return (~np.isfinite(P).all(-1) | (P < 0.0).any(-1)
                | (np.abs(P.sum(-1) - 1.0) > tol) | ~((0.0 <= r) & (r <= 1.0)))


def assert_view_matches(view, rows, picks=None):
    """view reads as the list rows: as a whole, by length, iterated, at
    each index in picks (default: every index, negative ones too) and at
    each (a, b) slice; and changing an item read from it changes nothing."""
    n = len(rows)
    assert view == rows and rows == view and list(view) == rows and len(view) == n
    picks = picks or {"at": range(-n, n), "slices": [(0, n), (1, -1), (n // 2, None)]}
    for i in picks["at"]:
        assert view[i] == rows[i]
    for a, b in picks["slices"]:
        assert view[a:b] == rows[a:b] and list(view[a:b]) == rows[a:b]
    if n:
        assert view[-1] == rows[-1]
        first = view[0]
        for name in vars(first):
            setattr(first, name, -1)
        assert view[0] == rows[0] != first
