import math
from array import array

import numpy as np
import pytest

from stageq import (AlgoConstants, EpisodicMdp, InitialStates,
                    OutOfRangeError, UcbAdvantageLearner, backward_induction,
                    build_schedule, hoeffding_width, make_random_mdp,
                    safe_ratio, seeded_stream)

# constants small enough that the variance-route candidate is active from
# the first stage end, so bookkeeping tests exercise real updates
TINY = AlgoConstants(p=0.5, c1=1e-9, c2=1e-9, c3=1e-9)


def observe_counted(lr, h, s, a, s_next):
    """Feed one transition; returns how much it moved the learner's
    (stage_end_count, q_update_count, ref_fixed_count)."""
    before = (lr.stage_end_count, lr.q_update_count, lr.ref_fixed_count)
    lr.observe(h, s, a, s_next)
    after = (lr.stage_end_count, lr.q_update_count, lr.ref_fixed_count)
    return tuple(x - y for x, y in zip(after, before))


def deterministic_mdp(H=2, S=2, A=2):
    """Every action in every state moves to state 1 with certainty."""
    P = np.zeros((H, S, A, S))
    P[..., 1] = 1.0
    return EpisodicMdp(S=S, A=A, H=H, P=P, r=np.zeros((H, S, A)))


# -------------------------------------------------------------- constants

def test_constants_validation():
    with pytest.raises(ValueError):
        AlgoConstants(p=0.0)
    with pytest.raises(ValueError):
        AlgoConstants(p=1.0)
    with pytest.raises(ValueError):
        AlgoConstants(c3=0.0)
    with pytest.raises(ValueError):
        AlgoConstants(beta=-1.0)


def test_iota_is_log_two_over_p():
    assert AlgoConstants(p=0.01).iota == pytest.approx(math.log(200.0), rel=1e-15)
    assert AlgoConstants(p=2 / math.e).iota == pytest.approx(1.0, rel=1e-15)


def test_beta_defaults_to_inverse_sqrt_h():
    c = AlgoConstants()
    assert c.resolved_beta(4) == 0.5
    assert AlgoConstants(beta=0.25).resolved_beta(4) == 0.25


def test_reference_trigger_formula():
    c = AlgoConstants(p=0.01, c4=2.0, beta=0.5)
    S, A, H = 3, 2, 5
    expect = 2.0 * S * A * H**5 * math.log(200.0) / 0.25
    assert c.reference_trigger(S, A, H) == pytest.approx(expect, rel=1e-15)
    assert AlgoConstants(n0_override=123.0).reference_trigger(S, A, H) == 123.0


def test_safe_ratio_convention():
    assert safe_ratio(0.0, 0.0) == 0.0
    assert safe_ratio(5.0, 0.0) == 0.0
    assert safe_ratio(3.0, 2.0) == 1.5


def test_hoeffding_width_example():
    assert hoeffding_width(3, 1.0, 36) == 1.0


# ------------------------------------------------------------------- init

def test_optimistic_initialization():
    mdp = make_random_mdp(3, 2, 4, seed=0)
    lr = UcbAdvantageLearner(mdp)
    H = 4
    for h in range(H):
        assert np.all(lr.q_array()[h] == H - h)
        assert np.all(lr.v_array()[h] == H - h)
        assert np.all(lr.vref_array()[h] == H)
    assert np.all(lr.v_array()[H] == 0.0)
    assert np.all(lr.vref_array()[H] == 0.0)
    assert np.all(lr.n_array() == 0)
    assert np.all(lr.ncheck_array() == 0)


def test_select_action_tie_breaks_low():
    mdp = make_random_mdp(2, 3, 2, seed=0)
    lr = UcbAdvantageLearner(mdp)
    # select_action reads the cached greedy table, so each row written here
    # goes through the argmax routine every Q write in the learners uses
    assert lr._row_max(0) == 2.0
    assert lr.select_action(0, 0) == 0  # all equal
    lr._q[0:3] = array("d", [1.0, 2.0, 1.5])
    assert lr._row_max(0) == 2.0
    assert lr.select_action(0, 0) == 1
    lr._q[0:3] = array("d", [2.0, 2.0, 1.0])
    assert lr._row_max(0) == 2.0
    assert lr.select_action(0, 0) == 0


# ------------------------------------------------------------ accumulators

def test_first_observation_accumulators():
    # fresh learner, H=3, first layer: next-step values are V=2, Vref=3
    mdp = make_random_mdp(2, 2, 3, seed=0)
    lr = UcbAdvantageLearner(mdp)
    assert lr.observe(0, 0, 0, 1) is None
    assert (lr.stage_end_count, lr.q_update_count, lr.ref_fixed_count) == (0, 0, 0)
    i3 = (0 * 2 + 0) * 2 + 0
    assert lr._n[i3] == 1 and lr._nchk[i3] == 1
    assert lr._mu_chk[i3] == -1.0     # (H-h) - H at h=1 in 0-based layers
    assert lr._ups_chk[i3] == 2.0
    assert lr._sig_chk[i3] == 1.0
    assert lr._mu_ref[i3] == 3.0
    assert lr._sig_ref[i3] == 9.0


def test_last_layer_uses_zero_boundary():
    mdp = make_random_mdp(2, 2, 3, seed=0)
    lr = UcbAdvantageLearner(mdp)
    lr.observe(2, 1, 1, 0)
    i3 = (2 * 2 + 1) * 2 + 1
    assert lr._mu_chk[i3] == 0.0
    assert lr._ups_chk[i3] == 0.0
    assert lr._sig_chk[i3] == 0.0
    assert lr._mu_ref[i3] == 0.0
    assert lr._sig_ref[i3] == 0.0


def test_stage_end_fires_at_h_visits():
    H = 4
    mdp = make_random_mdp(2, 2, H, seed=0)
    lr = UcbAdvantageLearner(mdp)
    ends = [observe_counted(lr, 1, 0, 0, 1)[0] for _ in range(H + 1)]
    assert ends == [0, 0, 0, 1, 0]


def test_stage_sample_included_before_update():
    # the visit that closes the stage must be inside the stage statistics:
    # with identical deterministic samples the variance-route candidate is
    # r + mu_ref/n + mu_chk/nc = 0.3 + 2 + (1 - 2) = 1.3 (plus tiny bonus),
    # which only comes out right if all H samples are counted
    H = 2
    mdp = deterministic_mdp(H=H, A=1)
    mdp.r[0, 0, 0] = 0.3
    lr = UcbAdvantageLearner(mdp, TINY)
    lr.observe(0, 0, 0, 1)
    assert observe_counted(lr, 0, 0, 0, 1)[1] == 1
    assert lr.q_array()[0, 0, 0] == pytest.approx(1.3, abs=1e-6)
    assert lr.v_array()[0, 0] == pytest.approx(1.3, abs=1e-6)


def test_accumulators_reset_at_stage_end():
    H = 3
    mdp = make_random_mdp(2, 2, H, seed=1)
    lr = UcbAdvantageLearner(mdp, TINY)
    for _ in range(H):
        lr.observe(0, 0, 0, 1)
    i3 = 0
    assert lr._nchk[i3] == 0
    assert lr._mu_chk[i3] == 0.0
    assert lr._ups_chk[i3] == 0.0
    assert lr._sig_chk[i3] == 0.0
    # global accumulators survive
    assert lr._mu_ref[i3] != 0.0
    assert lr._sig_ref[i3] != 0.0
    assert lr._n[i3] == H


def test_visits_beyond_n_max_raise():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    lr = UcbAdvantageLearner(mdp, n_max=5)
    for _ in range(5):
        lr.observe(0, 0, 0, 1)
    with pytest.raises(OutOfRangeError):
        lr.observe(0, 0, 0, 1)


# --------------------------------------------------------------- reference

def test_reference_fix_is_write_once():
    H = 2
    mdp = deterministic_mdp(H=H)
    lr = UcbAdvantageLearner(mdp, AlgoConstants(p=0.5, c1=1e-9, c2=1e-9,
                                                c3=1e-9, n0_override=3))
    fixed_at = []
    for k in range(6):
        if observe_counted(lr, 0, 0, k % 2, 1)[2]:
            fixed_at.append(k + 1)
    assert fixed_at == [3]  # state visits pooled across actions
    assert lr.ref_fixed_count == 1
    assert lr.ref_fixed_array()[0, 0]
    frozen = lr.vref_array()[0, 0]
    for _ in range(4):
        lr.observe(0, 0, 0, 1)
    assert lr.vref_array()[0, 0] == frozen


def test_reference_fix_uses_post_update_value():
    # at n = H the stage update fires first, then the reference freeze in
    # the same observe call; the frozen value must be the NEW V
    H = 2
    mdp = deterministic_mdp(H=H, A=1)
    mdp.r[0, 0, 0] = 0.3
    lr = UcbAdvantageLearner(mdp, AlgoConstants(p=0.5, c1=1e-9, c2=1e-9,
                                                c3=1e-9, n0_override=H))
    lr.observe(0, 0, 0, 1)
    assert observe_counted(lr, 0, 0, 0, 1) == (1, 1, 1)
    assert lr.vref_array()[0, 0] == lr.v_array()[0, 0]
    assert lr.vref_array()[0, 0] == pytest.approx(1.3, abs=1e-6)


def test_unfixed_reference_stays_at_h():
    mdp = make_random_mdp(3, 2, 4, seed=2)
    lr = UcbAdvantageLearner(mdp, TINY)  # default trigger is astronomically far
    rng = seeded_stream(0, 0, "env")
    for k in range(300):
        lr.run_episode(mdp, rng, k)
    assert lr.ref_fixed_count == 0
    assert np.all(lr.vref_array()[:4] == 4.0)


# ------------------------------------------------------- update properties

def test_q_non_increasing_every_episode():
    mdp = make_random_mdp(3, 2, 4, seed=3, init=InitialStates.seeded(5))
    lr = UcbAdvantageLearner(mdp, TINY)
    rng = seeded_stream(1, 0, "env")
    prev = list(lr._q)
    for k in range(400):
        lr.run_episode(mdp, rng, k)
        cur = list(lr._q)
        assert all(c <= p for c, p in zip(cur, prev))
        prev = cur
    assert lr.q_update_count > 0  # non-vacuous


def test_v_is_row_max_and_invariants_hold():
    for seed in range(4):
        mdp = make_random_mdp(3, 2, 5, seed=seed)
        lr = UcbAdvantageLearner(mdp, TINY)
        rng = seeded_stream(seed, 0, "env")
        for k in range(500):
            lr.run_episode(mdp, rng, k)
        q, v = lr.q_array(), lr.v_array()
        assert np.allclose(v[:5], q.max(axis=2), atol=0)
        lr.check_invariants()


def test_invariants_hold_with_reference_fixing():
    mdp = make_random_mdp(3, 2, 4, seed=9)
    lr = UcbAdvantageLearner(mdp, AlgoConstants(p=0.5, c1=0.05, c2=0.05,
                                                c3=0.01, n0_override=200))
    rng = seeded_stream(7, 0, "env")
    for k in range(2000):
        lr.run_episode(mdp, rng, k)
    assert lr.ref_fixed_count > 0
    lr.check_invariants()


def test_reference_target_below_zero_is_not_a_violation():
    # with small bonuses the reference target r + mean(Vref, all visits)
    # + mean(V - Vref, stage) can undershoot 0; unlike the plain route's,
    # that is not a structural invariant, so strict mode must not flag it
    mdp = make_random_mdp(2, 2, 3, seed=10, reward_sparsity=0.7)
    lr = UcbAdvantageLearner(mdp, AlgoConstants(p=0.5, c1=0.01, c2=0.01,
                                                c3=0.01, n0_override=20))
    rng = seeded_stream(0, 0, "env")
    for k in range(60):
        lr.run_episode(mdp, rng, k)
    assert min(lr._q) < 0.0
    lr.check_invariants()


def test_optimism_short_run_default_constants():
    # with theory constants the tables stay above Q* comfortably
    for seed in range(3):
        mdp = make_random_mdp(3, 2, 5, seed=seed)
        tables, _ = backward_induction(mdp)
        lr = UcbAdvantageLearner(mdp)
        rng = seeded_stream(seed, 0, "env")
        for k in range(2000):
            lr.run_episode(mdp, rng, k)
        assert np.all(lr.q_array() >= tables.Q[:5] - 1e-9)


def test_policy_changes_only_on_q_changes():
    mdp = make_random_mdp(3, 2, 4, seed=4)
    lr = UcbAdvantageLearner(mdp, TINY)
    rng = seeded_stream(3, 0, "env")
    prev_policy = lr.greedy_actions_flat()
    for k in range(300):
        _, report = lr.run_episode(mdp, rng, k)
        cur = lr.greedy_actions_flat()
        if cur != prev_policy:
            assert report.q_changed
        prev_policy = cur


# ------------------------------------------------------- shadow replication

def shadow_run(mdp, constants, trajectories):
    """Independent dict-based replica of the learner's update rule."""
    S, A, H = mdp.S, mdp.A, mdp.H
    iota = math.log(2.0 / constants.p)
    n0 = constants.n0_override
    if n0 is None:
        n0 = constants.c4 * S * A * H**5 * iota / constants.resolved_beta(H) ** 2
    ends = set(build_schedule(H, 1 << 20).ends.tolist())
    Q = {(h, s, a): float(H - h) for h in range(H) for s in range(S) for a in range(A)}
    V = {(h, s): float(H - h) if h < H else 0.0 for h in range(H + 1) for s in range(S)}
    Vref = {(h, s): float(H) if h < H else 0.0 for h in range(H + 1) for s in range(S)}
    fixed = {(h, s): False for h in range(H) for s in range(S)}
    n = {}; nch = {}; mu = {}; ups = {}; sig = {}; mur = {}; sgr = {}
    nstate = {}
    z = lambda d, k: d.get(k, 0)
    zf = lambda d, k: d.get(k, 0.0)

    for traj in trajectories:
        for h, (s, a, r, s2) in enumerate(traj):
            key = (h, s, a)
            vn, vr = V[(h + 1, s2)], Vref[(h + 1, s2)]
            n[key] = z(n, key) + 1
            nch[key] = z(nch, key) + 1
            mu[key] = zf(mu, key) + (vn - vr)
            ups[key] = zf(ups, key) + vn
            sig[key] = zf(sig, key) + (vn - vr) ** 2
            mur[key] = zf(mur, key) + vr
            sgr[key] = zf(sgr, key) + vr * vr
            if n[key] in ends:
                nn, nc = n[key], nch[key]
                mrb = mur[key] / nn
                nu_ref = max(0.0, sgr[key] / nn - mrb * mrb)
                mcb = mu[key] / nc
                nu_chk = max(0.0, sig[key] / nc - mcb * mcb)
                b = (constants.c1 * math.sqrt(nu_ref * iota / nn)
                     + constants.c2 * math.sqrt(nu_chk * iota / nc)
                     + constants.c3 * (H * iota / nn + H * iota / nc
                                       + H * iota**0.75 / nn**0.75
                                       + H * iota**0.75 / nc**0.75))
                bb = 2.0 * math.sqrt(H * H * iota / nc)
                cand = min(r + ups[key] / nc + bb, r + mrb + mcb + b, Q[key])
                Q[key] = cand
                V[(h, s)] = max(Q[(h, s, aa)] for aa in range(A))
                nch[key] = 0; mu[key] = 0.0; ups[key] = 0.0; sig[key] = 0.0
            sk = (h, s)
            nstate[sk] = z(nstate, sk) + 1
            if nstate[sk] >= n0 and not fixed[sk]:
                Vref[sk] = V[sk]
                fixed[sk] = True
    return Q, V, Vref


def test_full_run_matches_shadow_replica():
    constants = AlgoConstants(p=0.1, c1=0.2, c2=0.2, c3=0.05, n0_override=150)
    for seed in (0, 1):
        mdp = make_random_mdp(3, 2, 4, seed=seed, init=InitialStates.cyclic([0, 1, 2]))
        lr = UcbAdvantageLearner(mdp, constants)
        rng = seeded_stream(seed, 0, "env")
        trajs = [lr.run_episode(mdp, rng, k)[0] for k in range(800)]
        Q, V, Vref = shadow_run(mdp, constants, trajs)
        q, v, vref = lr.q_array(), lr.v_array(), lr.vref_array()
        for (h, s, a), val in Q.items():
            assert q[h, s, a] == pytest.approx(val, abs=1e-12)
        for (h, s), val in V.items():
            assert v[h, s] == pytest.approx(val, abs=1e-12)
        for (h, s), val in Vref.items():
            assert vref[h, s] == pytest.approx(val, abs=1e-12)
        assert lr.q_update_count > 0 and lr.ref_fixed_count > 0
