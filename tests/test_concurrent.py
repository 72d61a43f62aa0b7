import math
from collections import Counter

import numpy as np
import pytest
from oracles import sample_then_replay_concurrent

from stageq import (AlgoConstants, BudgetTooSmall, ConcurrentConfig,
                    EnvSpec, FrozenActor, InitialStates, OutOfRangeError,
                    UcbAdvantageLearner, UniformStream, build_schedule,
                    make_learner, make_random_mdp, round_count_bound,
                    run_concurrent, run_concurrent_experiment, seeded_stream,
                    write_rounds_csv)
from stageq.concurrent import ROUNDS_CSV_HEADER

REDUCED = AlgoConstants(p=0.1, c1=0.2, c2=0.2, c3=0.05)


def _run(mdp, cc, constants=REDUCED, seed=0):
    n_max = (cc.budget(mdp.S, mdp.A, mdp.H) + cc.agents) * mdp.H + 1
    lr = UcbAdvantageLearner(mdp, constants, n_max=n_max)
    return run_concurrent(mdp, lr, cc,
                          seeded_stream(seed, 0, "env"),
                          seeded_stream(seed, 0, "policy-pick"))


# ----------------------------------------------------------------- budget

def test_budget_formula():
    cc = ConcurrentConfig(agents=4, epsilon=0.1, c5=1.0)
    S, A, H = 2, 2, 3
    raw = 2 * 2 * 27 * math.log(12 / 0.1) / 0.01
    assert cc.budget(S, A, H) == math.ceil(raw)
    assert ConcurrentConfig(k_eps_override=37.2).budget(S, A, H) == 38


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        ConcurrentConfig(k_eps_override=0.0).budget(2, 2, 2)
    with pytest.raises(BudgetTooSmall):
        # epsilon >= S*A*H makes the log factor non-positive
        ConcurrentConfig(epsilon=8.0).budget(2, 2, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        ConcurrentConfig(agents=0)
    for bad in (0.0, -0.1, float("inf"), float("nan")):
        # inf once reached budget's log(S*A*H/epsilon) as a bare domain error
        with pytest.raises(ValueError, match="epsilon"):
            ConcurrentConfig(epsilon=bad)
    for bad in (-1.0, float("inf")):
        with pytest.raises(ValueError, match="c5"):
            ConcurrentConfig(c5=bad)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="k_eps_override"):
            ConcurrentConfig(k_eps_override=bad)


# ------------------------------------------------------------- accounting

def test_round_accounting_invariants():
    mdp = make_random_mdp(3, 2, 4, seed=0, init=InitialStates.seeded(3))
    cc = ConcurrentConfig(agents=4, k_eps_override=600)
    res = _run(mdp, cc, seed=1)

    assert res.budget == 600
    assert res.total_consumed >= res.budget
    assert res.total_consumed - res.budget < cc.agents  # overshoot < M
    assert res.total_generated == cc.agents * len(res.rounds)
    assert sum(r.consumed for r in res.rounds) == res.total_consumed

    update_rounds = 0
    for i, r in enumerate(res.rounds):
        assert r.round == i + 1
        assert 1 <= r.consumed <= cc.agents
        if r.consumed < cc.agents:
            assert r.update_triggered  # early break only on an update
        assert r.policy_version == update_rounds
        if r.update_triggered:
            update_rounds += 1
    assert update_rounds == res.update_rounds
    assert update_rounds > 0  # non-vacuous with reduced constants

    assert len(res.rounds) <= round_count_bound(res.update_rounds, res.budget, cc.agents)
    # every round except the last begins strictly under budget
    partial = 0
    for r in res.rounds[:-1]:
        partial += r.consumed
        assert partial < res.budget


def test_all_rounds_full_when_learner_never_updates():
    mdp = make_random_mdp(2, 2, 3, seed=1)
    cc = ConcurrentConfig(agents=5, k_eps_override=40)
    res = _run(mdp, cc, constants=AlgoConstants())  # theory constants: inert here
    assert res.update_rounds == 0
    assert all(r.consumed == 5 and not r.update_triggered for r in res.rounds)
    assert len(res.rounds) == math.ceil(40 / 5)
    # frozen policy never moved, so the returned policy is the initial greedy
    assert np.all(res.output_policy.actions == 0)


def test_picked_trajectory_in_range_and_deterministic():
    mdp = make_random_mdp(3, 2, 4, seed=2)
    cc = ConcurrentConfig(agents=8, k_eps_override=200)
    a = _run(mdp, cc, seed=5)
    b = _run(mdp, cc, seed=5)
    assert 0 <= a.picked_trajectory < a.total_consumed
    assert a.picked_trajectory == b.picked_trajectory
    assert np.array_equal(a.output_policy.actions, b.output_policy.actions)
    assert a.rounds == b.rounds


def test_generation_order_indexes_initial_states():
    # cyclic starts spread across the agents in generation order: with
    # M=2 and cycle (0, 1), every round generates one episode from each
    # start state; with no updates everything is consumed, so layer-0
    # state visit counts split exactly evenly
    mdp = make_random_mdp(2, 2, 3, seed=3, init=InitialStates.cyclic([0, 1]))
    cc = ConcurrentConfig(agents=2, k_eps_override=100)
    res = _run(mdp, cc, constants=AlgoConstants())
    assert res.update_rounds == 0
    n = res.learner.n_array()
    assert n[0, 0].sum() == 50
    assert n[0, 1].sum() == 50


def test_m1_round_stream_identical_to_single_agent():
    mdp = make_random_mdp(3, 2, 4, seed=4, init=InitialStates.seeded(11))
    cc = ConcurrentConfig(agents=1, k_eps_override=500)
    seed = 9
    res = _run(mdp, cc, constants=REDUCED, seed=seed)
    assert len(res.rounds) == 500  # M=1 consumes exactly one per round

    # replay live: same learner config, same env stream, same episode order
    n_max = (500 + 1) * mdp.H + 1
    live = UcbAdvantageLearner(mdp, REDUCED, n_max=n_max)
    rng = seeded_stream(seed, 0, "env")
    live_changed = []
    for k in range(500):
        _, report = live.run_episode(mdp, rng, k)
        live_changed.append(report.q_changed)

    assert [r.update_triggered for r in res.rounds] == live_changed
    conc = res.learner
    assert conc._q == live._q
    assert conc._v == live._v
    assert conc._vref == live._vref
    assert conc._n == live._n
    assert conc.q_update_count == live.q_update_count
    assert conc.ref_fixed_count == live.ref_fixed_count


# ------------------------------------------- stretches against the reference

# fixed, seeded and cyclic starts; hoeffding-stage lowers Q in a test-sized
# run only at a short horizon, hence the H = 2 instance.  Some M = 8 runs
# (classic-qucb on the H = 5 instances, advantage with cyclic starts) skip
# a discarded batch across the end of the stream's block.
EQUIV_INSTANCES = [
    ("fixed-4x3x5", lambda: make_random_mdp(4, 3, 5, seed=0)),
    ("seeded-4x3x5", lambda: make_random_mdp(4, 3, 5, seed=1,
                                             init=InitialStates.seeded(3))),
    ("cyclic-4x3x5", lambda: make_random_mdp(4, 3, 5, seed=2,
                                             init=InitialStates.cyclic([0, 1, 2, 3]))),
    ("fixed-3x4x2", lambda: make_random_mdp(3, 4, 2, seed=3)),
]
TIGHT = AlgoConstants(p=0.5, c1=0.05, c2=0.05, c3=0.01, n0_override=60)
STATE = ("_q", "_v", "_vref", "_n", "_nchk", "_mu_chk", "_ups_chk", "_sig_chk",
         "_mu_ref", "_sig_ref", "_n_state", "_ref_fixed", "_greedy",
         "stage_end_count", "q_update_count", "ref_fixed_count", "reference_wins")


def learner_state(lr):
    """Every table and counter the learner has."""
    return {name: getattr(lr, name) for name in STATE if hasattr(lr, name)}


def run_both(mdp, algo, cc, n_max, seed=0):
    """(result, next env uniform, learner) from run_concurrent, then the
    reference, each on a fresh learner; a raised OutOfRangeError stands in
    for the result."""
    out = []
    for runner in (run_concurrent, sample_then_replay_concurrent):
        lr = make_learner(algo, mdp, TIGHT, n_max=n_max, cb=0.05)
        env = seeded_stream(seed, 0, "env")
        try:
            res = runner(mdp, lr, cc, env, seeded_stream(seed, 0, "policy-pick"))
        except OutOfRangeError as exc:
            res = exc.n
        out.append((res, env.random(), lr))
    return out


@pytest.mark.parametrize("M", [1, 3, 8])
@pytest.mark.parametrize("algo", ["advantage", "hoeffding-stage", "classic-qucb"])
@pytest.mark.parametrize("make_mdp", [i[1] for i in EQUIV_INSTANCES],
                         ids=[i[0] for i in EQUIV_INSTANCES])
def test_stretch_rounds_match_sample_then_replay(make_mdp, algo, M, path):
    mdp = make_mdp()
    cc = ConcurrentConfig(agents=M, k_eps_override=300)
    (got, u_got, lr), (want, u_want, lr_ref) = run_both(
        mdp, algo, cc, n_max=(300 + M) * mdp.H + 1)
    assert (lr._lib is not None) == (path == "kernel")
    assert got.rounds == want.rounds
    for name in ("budget", "total_consumed", "total_generated", "update_rounds",
                 "picked_trajectory"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.output_policy.actions, want.output_policy.actions)
    assert learner_state(lr) == learner_state(lr_ref)
    assert u_got == u_want     # the stream stands where sampling left it
    assert got.update_rounds > 0 or algo == "hoeffding-stage" and mdp.H > 2


@pytest.mark.parametrize("algo", ["advantage", "hoeffding-stage"])
def test_out_of_range_raises_like_sample_then_replay(algo, path):
    mdp = make_random_mdp(3, 4, 2, seed=3, init=InitialStates.seeded(5))
    cc = ConcurrentConfig(agents=3, k_eps_override=300)
    (got, _, lr), (want, _, lr_ref) = run_both(mdp, algo, cc, n_max=40)
    assert got == want == 41
    assert learner_state(lr) == learner_state(lr_ref)


def test_rounds_m8_plays_one_stretch_per_update(path):
    # rounds-m8's instance at a smaller budget.  Every run_stretch call
    # ends at a Q change, at the round-aligned budget end (once, last) or,
    # in the kernel, at one of the learner's own limits: the end of its
    # block of 256 start states, or fewer than H uniforms left in the block
    # at hand.  A runner that asked for one trajectory or one round per
    # call would end its calls at their stop instead.
    mdp = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2).build()
    cc = ConcurrentConfig(agents=8, k_eps_override=4000)
    lr = make_learner("advantage", mdp,
                      AlgoConstants(n0_override=400, p=0.1, c1=1.2, c2=1.2, c3=0.06),
                      n_max=(4000 + 8) * mdp.H + 1)
    ends = Counter()
    stretch = lr.run_stretch

    def counted(mdp, rng, first, stop):
        played, changed = stretch(mdp, rng, first, stop)
        if changed:
            ends["q"] += 1
        elif first + played == stop:
            ends["stop"] += 1
        elif len(rng._block) - rng._i < mdp.H:
            ends["uniforms"] += 1
        else:
            ends["starts" if (first + played) % 256 == 0 else "other"] += 1
        return played, changed

    lr.run_stretch = counted
    env = seeded_stream(0, 0, "env")
    res = run_concurrent(mdp, lr, cc, env, seeded_stream(0, 0, "policy-pick"))
    assert ends["q"] == res.update_rounds > 0
    assert ends["stop"] <= 1 and ends["other"] == 0
    assert ends["uniforms"] <= res.total_generated * mdp.H // UniformStream.BLOCK + 1
    assert ends["starts"] <= res.total_generated // 256 + 1
    assert (ends["uniforms"] + ends["starts"] > 0) == (path == "kernel")


def test_frozen_actor_plays_table():
    actor = FrozenActor([1, 0, 2, 1], S=2)
    assert actor.select_action(0, 0) == 1
    assert actor.select_action(0, 1) == 0
    assert actor.select_action(1, 0) == 2
    assert not hasattr(actor, "observe")


def test_rounds_csv_golden(tmp_path):
    mdp = make_random_mdp(2, 2, 3, seed=1)
    cc = ConcurrentConfig(agents=5, k_eps_override=13)
    res = _run(mdp, cc, constants=AlgoConstants())
    path = tmp_path / "rounds.csv"
    write_rounds_csv(res.rounds, path)
    text = path.read_text().splitlines()
    assert text[0] == ROUNDS_CSV_HEADER
    assert text[1] == "1,5,0,0"
    assert len(text) == 1 + len(res.rounds)


def test_harness_wrapper_runs_and_writes(tmp_path):
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    cc = ConcurrentConfig(agents=3, k_eps_override=30)
    res = run_concurrent_experiment(env, cc, seed=2, out_dir=tmp_path)
    assert (tmp_path / "rounds.csv").exists()
    assert res.total_consumed >= 30


def test_oracle_agent_runs_rounds():
    # the oracle never learns: every round is full and the output policy
    # is the optimal one
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    cc = ConcurrentConfig(agents=3, k_eps_override=30)
    res = run_concurrent_experiment(env, cc, algo="oracle", seed=2)
    assert res.update_rounds == 0 and len(res.rounds) == 10
    assert res.output_policy.actions.ravel().tolist() == res.learner.greedy_actions_flat()
