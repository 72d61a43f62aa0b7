import math

import numpy as np
import pytest

from stageq import (AlgoConstants, ClassicQUcbLearner, EpisodicMdp,
                    HoeffdingStageLearner, backward_induction,
                    build_schedule, hoeffding_width, make_random_mdp,
                    seeded_stream)


def chain_to_one(H=2, S=2, A=1, r0=0.0):
    P = np.zeros((H, S, A, S))
    P[..., 1] = 1.0
    r = np.zeros((H, S, A))
    r[0, 0, 0] = r0
    return EpisodicMdp(S=S, A=A, H=H, P=P, r=r)


# --------------------------------------------------------- hoeffding-stage

def test_hoeffding_update_value_exact():
    # single action, every transition to state 1 whose next-layer value
    # stays at its init 1.0; the first Q change appears at the first stage
    # whose width drops below the optimism gap
    mdp = chain_to_one(H=2, r0=0.0)
    c = AlgoConstants(p=0.999)
    lr = HoeffdingStageLearner(mdp, c)
    ends = build_schedule(2, 100).ends.tolist()  # [2, 5, 9, 15, 24, 37, 65, ...]
    stage_len = {e: l for e, l in zip(ends, build_schedule(2, 100).lengths.tolist())}
    q_before = lr.q_array()[0, 0, 0]
    assert q_before == 2.0
    for n in range(1, 66):
        e0, u0 = lr.stage_end_count, lr.q_update_count
        lr.observe(0, 0, 0, 1)
        assert lr.stage_end_count - e0 == (n in stage_len)
        assert lr.ref_fixed_count == 0
        if n in stage_len:
            expect = 1.0 + hoeffding_width(2, c.iota, stage_len[n])
            if expect < q_before:
                assert lr.q_update_count - u0 == 1
                assert lr.q_array()[0, 0, 0] == expect  # bitwise: same formula inputs
                q_before = expect
            else:
                assert lr.q_update_count == u0
                assert lr.q_array()[0, 0, 0] == q_before
        else:
            assert lr.q_update_count == u0
    assert q_before < 2.0  # at least one real update happened by n=65


def test_hoeffding_monotone_nonnegative_invariants():
    for seed in range(3):
        mdp = make_random_mdp(3, 2, 4, seed=seed)
        lr = HoeffdingStageLearner(mdp)
        rng = seeded_stream(seed, 0, "env")
        prev = list(lr._q)
        for k in range(800):
            lr.run_episode(mdp, rng, k)
            cur = list(lr._q)
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur
        assert min(lr._q) >= 0.0
        lr.check_invariants()


def test_hoeffding_invariants_flag_negative_q():
    lr = HoeffdingStageLearner(make_random_mdp(2, 2, 3, seed=0))
    lr._q[1] = -0.5   # row 0 keeps its max, so only the sign check can fire
    with pytest.raises(AssertionError, match="negative Q"):
        lr.check_invariants()


def test_hoeffding_never_fixes_references():
    mdp = make_random_mdp(2, 2, 3, seed=1)
    lr = HoeffdingStageLearner(mdp)
    rng = seeded_stream(0, 0, "env")
    for k in range(200):
        _, report = lr.run_episode(mdp, rng, k)
        assert report.refs_fixed == 0
    assert lr.ref_fixed_count == 0


# ------------------------------------------------------------ classic qucb

def test_classic_first_visit_takes_full_target():
    # alpha_1 = (H+1)/(H+1) = 1, so Q jumps to the target exactly
    mdp = chain_to_one(H=2, r0=0.25)
    lr = ClassicQUcbLearner(mdp, cb=2.0)
    lr.observe(0, 0, 0, 1)
    iota = lr.constants.iota
    target = 0.25 + 1.0 + 2.0 * math.sqrt(8.0 * iota / 1.0)
    assert lr.q_array()[0, 0, 0] == target


def test_classic_matches_manual_recurrence():
    H = 3
    mdp = make_random_mdp(2, 2, H, seed=5)
    lr = ClassicQUcbLearner(mdp, cb=1.5)
    iota = lr.constants.iota
    q_manual = float(H)  # init at layer 0
    steps = [(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 1)]
    for t, (h, s, a, s2) in enumerate(steps, start=1):
        v_next = lr.v_array()[h + 1, s2]  # layer 1 is untouched by these steps
        lr.observe(h, s, a, s2)
        alpha = (H + 1.0) / (H + t)
        target = mdp.r[h, s, a] + v_next + 1.5 * math.sqrt(H**3 * iota / t)
        q_manual = (1.0 - alpha) * q_manual + alpha * target
        assert lr.q_array()[h, s, a] == q_manual  # literal two-term form


def test_classic_is_not_monotone_and_exceeds_init():
    mdp = make_random_mdp(3, 2, 4, seed=2)
    lr = ClassicQUcbLearner(mdp)
    rng = seeded_stream(1, 0, "env")
    rose = False
    prev = list(lr._q)
    for k in range(50):
        lr.run_episode(mdp, rng, k)
        cur = list(lr._q)
        rose = rose or any(c > p for c, p in zip(cur, prev))
        prev = cur
    assert rose
    assert max(lr._q) > 4.0  # above the optimistic init it started from


def test_classic_value_cap():
    mdp = make_random_mdp(3, 2, 4, seed=3)
    lr = ClassicQUcbLearner(mdp)
    rng = seeded_stream(2, 0, "env")
    for k in range(300):
        lr.run_episode(mdp, rng, k)
    v, q = lr.v_array(), lr.q_array()
    for h in range(4):
        cap = 4 - h
        assert np.all(v[h] <= cap)
        assert np.allclose(v[h], np.minimum(cap, q[h].max(axis=1)), atol=0)
    lr.check_invariants()


def test_classic_counts_every_step_as_update():
    mdp = make_random_mdp(2, 2, 3, seed=0)
    lr = ClassicQUcbLearner(mdp)
    rng = seeded_stream(0, 0, "env")
    _, report = lr.run_episode(mdp, rng, 0)
    assert report.q_updates == 3
    assert report.stage_ends == 0
    lr.observe(0, 0, 0, 1)
    assert (lr.stage_end_count, lr.q_update_count, lr.ref_fixed_count) == (0, 4, 0)


def test_classic_rejects_bad_cb():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        ClassicQUcbLearner(mdp, cb=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cb"):
            ClassicQUcbLearner(mdp, cb=bad)


def test_classic_still_learns_greedy_optimum_on_easy_chain():
    # two actions, one clearly better; the incremental learner should end
    # up preferring it at the first layer
    P = np.zeros((2, 2, 2, 2))
    P[0, 0, 0] = [1.0, 0.0]
    P[0, 0, 1] = [0.0, 1.0]
    P[0, 1, :] = [0.0, 1.0]
    P[1, :, :] = [1.0, 0.0]
    r = np.zeros((2, 2, 2))
    r[1, 1, :] = 1.0
    mdp = EpisodicMdp(S=2, A=2, H=2, P=P, r=r)
    tables, pi = backward_induction(mdp)
    assert pi.actions[0, 0] == 1
    lr = ClassicQUcbLearner(mdp)
    rng = seeded_stream(4, 0, "env")
    for k in range(4000):
        lr.run_episode(mdp, rng, k)
    assert lr.greedy_actions_flat()[0] == 1
