"""Gate for the learner hot path.

UcbAdvantageLearner.run_episode is a fused copy of sample_episode feeding
observe, with the reference route on (advantage) or off (hoeffding-stage).
It must reproduce the reference path (TabularQLearnerBase's run_episode)
bit for bit: the same trajectories, reports and tables.  Every
learner keeps its greedy policy as a table refreshed on each Q write; after
every episode and every replayed trajectory it must equal np.argmax of Q.
"""

import numpy as np
import pytest

from stageq import (AlgoConstants, ClassicQUcbLearner, HoeffdingStageLearner,
                    InitialStates, OutOfRangeError, UcbAdvantageLearner,
                    make_jao_chain, make_random_mdp, seeded_stream)
from stageq.base import TabularQLearnerBase
from stageq.concurrent import replay_into

# (name, make_mdp, reference trigger N0, episodes)
INSTANCES = [
    ("jao-40", lambda: make_jao_chain(40, epsilon=0.1, delta=0.4, seed=0), 500, 1500),
    ("random-3x2x5", lambda: make_random_mdp(3, 2, 5, seed=0), 200, 2000),
    ("random-10x3x8", lambda: make_random_mdp(10, 3, 8, seed=1,
                                              init=InitialStates.seeded(3)), 100, 1500),
    ("random-4x5x4", lambda: make_random_mdp(4, 5, 4, seed=2,
                                             init=InitialStates.cyclic([0, 1, 2, 3])), 200, 1500),
]
# hoeffding-stage first lowers a Q entry once a stage is longer than about
# 4 H^2 iota samples, which only a short horizon reaches in a test-sized run
SHORT_H = ("random-3x4x2", lambda: make_random_mdp(3, 4, 2, seed=3), 100, 1000)
GREEDY_INSTANCES = INSTANCES + [SHORT_H]
# the reference route on every instance; off where it lowers Q
FUSED_CASES = ([pytest.param(UcbAdvantageLearner, inst, id=inst[0]) for inst in INSTANCES]
               + [pytest.param(HoeffdingStageLearner, SHORT_H, id="noref-" + SHORT_H[0])])
# desk-scale constants of the acceptance checks, and smaller ones that make
# the reference-advantage route bind from the first stage ends
CONSTANT_SETS = {"desk": dict(p=0.1, c1=1.2, c2=1.2, c3=0.06),
                 "tight": dict(p=0.5, c1=0.05, c2=0.05, c3=0.01)}
SEEDS = (0, 1)

TABLES = ("_q", "_v", "_vref", "_n", "_nchk", "_mu_chk", "_ups_chk", "_sig_chk",
          "_mu_ref", "_sig_ref", "_n_state", "_ref_fixed", "_greedy")
COUNTERS = ("stage_end_count", "q_update_count", "ref_fixed_count")


def assert_greedy_current(lr):
    assert lr.greedy_actions_flat() == np.argmax(lr.q_array(), axis=2).ravel().tolist()


def assert_same_state(fast, ref):
    for name in TABLES:
        assert getattr(fast, name) == getattr(ref, name), name
    for name in COUNTERS:
        assert getattr(fast, name) == getattr(ref, name), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cset", sorted(CONSTANT_SETS))
@pytest.mark.parametrize("cls,inst", FUSED_CASES)
def test_fused_episode_matches_reference_path(cls, inst, cset, seed):
    _, make_mdp, n0, K = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS[cset])
    fast = cls(mdp, const, n_max=K * mdp.H + 1)
    ref = cls(mdp, const, n_max=K * mdp.H + 1)
    rng_fast = seeded_stream(seed, 0, "env")
    rng_ref = seeded_stream(seed, 0, "env")
    for k in range(K):
        held = fast.greedy_actions_flat()
        before = list(held)
        traj, report = fast.run_episode(mdp, rng_fast, k)
        traj_ref, report_ref = TabularQLearnerBase.run_episode(ref, mdp, rng_ref, k)
        assert traj == traj_ref
        assert report == report_ref
        assert held == before  # a snapshot does not move with learning
        assert_greedy_current(fast)
    assert_same_state(fast, ref)
    assert rng_fast.random() == rng_ref.random()
    assert fast.q_update_count > 0
    assert (fast.ref_fixed_count > 0) == fast.reference


def test_fused_episode_raises_like_reference_past_n_max():
    mdp = make_random_mdp(2, 2, 3, seed=0)
    const = AlgoConstants(**CONSTANT_SETS["tight"])

    def episodes_until_raise(run_episode, lr):
        rng = seeded_stream(0, 0, "env")
        for k in range(100):
            try:
                run_episode(lr, mdp, rng, k)
            except OutOfRangeError:
                return k
        return None

    fast = UcbAdvantageLearner(mdp, const, n_max=40)
    ref = UcbAdvantageLearner(mdp, const, n_max=40)
    k_fast = episodes_until_raise(UcbAdvantageLearner.run_episode, fast)
    k_ref = episodes_until_raise(TabularQLearnerBase.run_episode, ref)
    assert k_fast is not None and k_fast == k_ref
    assert_same_state(fast, ref)


def make_all_learners(mdp, const, n_max):
    return [UcbAdvantageLearner(mdp, const, n_max=n_max),
            HoeffdingStageLearner(mdp, const, n_max=n_max),
            ClassicQUcbLearner(mdp, const, cb=0.05)]


@pytest.mark.parametrize("inst", GREEDY_INSTANCES, ids=[i[0] for i in GREEDY_INSTANCES])
def test_greedy_table_tracks_q_for_every_learner(inst):
    _, make_mdp, n0, K = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["tight"])
    K = K // 2
    recorded = []
    for lr in make_all_learners(mdp, const, K * mdp.H + 1):
        rng = seeded_stream(0, 0, "env")
        assert_greedy_current(lr)
        for k in range(K):
            traj, _ = lr.run_episode(mdp, rng, k)
            assert_greedy_current(lr)
            recorded.append(traj)
    # replay every learner's trajectories into fresh learners, as the
    # concurrent runner does
    updated = {}
    for lr in make_all_learners(mdp, const, len(recorded) * mdp.H + 1):
        for traj in recorded:
            replay_into(lr, traj)
            assert_greedy_current(lr)
        updated[lr.name] = lr.q_update_count > 0
    assert updated["advantage"] and updated["classic-qucb"]
    assert updated["hoeffding-stage"] or mdp.H > 2
