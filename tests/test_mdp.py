import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (ORACLE_SHAPES, bad_rows_by_test, brute_policy_value, brute_value_tables,
                     validate_by_rows)
from stageq import (DeterministicPolicy, EpisodicMdp, InitialStates,
                    InvalidDelta, InvalidEpsilon, MdpValidationError,
                    NonStochasticRow,
                    RewardOutOfRange, backward_induction, load_mdp,
                    make_jao_chain, make_random_mdp, policy_evaluation,
                    sample_episode, save_mdp, validate)
from stageq.mdp import ROW_SUM_TOL, START_BLOCK, bad_rows, checked_actions


def two_step_example():
    """S=2, A=2, H=2: staying pays 0.9 now, jumping pays 0.1 now + 1 later."""
    P = np.zeros((2, 2, 2, 2))
    P[0, 0, 0] = [1.0, 0.0]
    P[0, 0, 1] = [0.0, 1.0]
    P[0, 1, :] = [0.0, 1.0]
    P[1, :, :] = [1.0, 0.0]
    r = np.zeros((2, 2, 2))
    r[0, 0, 0] = 0.9
    r[0, 0, 1] = 0.1
    r[1, 1, :] = 1.0
    return EpisodicMdp(S=2, A=2, H=2, P=P, r=r)


class CountingRng:
    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


# ------------------------------------------------------------- validation

def test_validate_accepts_generated_instances():
    for seed in range(5):
        validate(make_random_mdp(4, 3, 6, seed=seed))
    validate(make_jao_chain(40, epsilon=0.1))


@pytest.mark.parametrize("init", [InitialStates.fixed(3), InitialStates.fixed(-1),
                                  InitialStates.cyclic([0, 9])])
def test_initial_state_out_of_range_is_rejected_where_it_is_read(init):
    # the start states are a run's input, not the MDP's: validate passes,
    # and checking them against S, reading a block of them, or sampling an
    # episode from them raises; a start of -1 would otherwise be sampled
    # from row S - 1 with no error
    mdp = make_random_mdp(3, 2, 2, seed=0)
    validate(mdp)
    actor = DeterministicPolicy(np.zeros((2, 3), dtype=int))
    for read in (lambda: init.check(3), lambda: init.block(0, 3),
                 lambda: sample_episode(mdp, actor, CountingRng([0.5, 0.5]), 0, init)):
        with pytest.raises(MdpValidationError, match="initial state"):
            read()
    InitialStates.cyclic([0, 9]).check(10)


def test_validate_rejects_negative_entry():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P[1, 0, 1] = [-0.1, 1.1]
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)
    assert (ei.value.h, ei.value.s, ei.value.a) == (1, 0, 1)


def test_validate_rejects_bad_row_sum():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P[0, 1, 0] = [0.5, 0.6]
    with pytest.raises(NonStochasticRow):
        validate(mdp)
    mdp.P[0, 1, 0] = [0.4, 0.6 + 5e-13]  # inside tolerance
    validate(mdp)


def test_validate_rejects_reward_out_of_range():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.r[0, 0, 1] = 1.5
    with pytest.raises(RewardOutOfRange) as ei:
        validate(mdp)
    assert ei.value.value == 1.5


def test_validate_rejects_nan_row():
    # NaN fails both the negativity and the row-sum test, so it needs its own
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P[1, 1, 0] = [np.nan, np.nan]
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)
    assert (ei.value.h, ei.value.s, ei.value.a) == (1, 1, 0)
    assert "non-finite" in str(ei.value)


def test_validate_rejects_inf_entry_in_scan_order():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P[1, 0, 1] = [np.inf, 0.0]
    mdp.P[0, 1, 1] = [-0.5, 1.5]  # earlier in (h, s, a) order: reported first
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)
    assert (ei.value.h, ei.value.s, ei.value.a) == (0, 1, 1)
    mdp.P[0, 1, 1] = [0.5, 0.5]
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)
    assert (ei.value.h, ei.value.s, ei.value.a) == (1, 0, 1)
    assert "non-finite" in str(ei.value)


def test_validate_first_violation_in_scan_order():
    mdp = make_random_mdp(2, 2, 3, seed=0)
    mdp.r[2, 1, 1] = -0.5
    mdp.P[1, 0, 0] = [2.0, -1.0]
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)  # (1,0,0) comes before (2,1,1) in (h,s,a) order
    assert (ei.value.h, ei.value.s, ei.value.a) == (1, 0, 0)


@pytest.mark.parametrize("field,value", [
    ("S", 4), ("A", 1), ("H", 3), ("P", np.full((2, 2, 2, 2), 0.5)),
    ("r", np.zeros((2, 2, 2)))])
def test_validate_freezes_every_field(field, value):
    # rebinding a field after validate raises at the assignment
    mdp = make_random_mdp(2, 2, 2, seed=0)
    setattr(mdp, field, getattr(mdp, field))     # writable before validate
    validate(mdp)
    before = getattr(mdp, field)
    with pytest.raises(AttributeError, match=f"EpisodicMdp.{field} "):
        setattr(mdp, field, value)
    assert getattr(mdp, field) is before
    assert sample_episode(mdp, DeterministicPolicy(np.zeros((2, 2), dtype=int)),
                          CountingRng([0.5, 0.5]))[0][0] == 0


@pytest.mark.parametrize("field,value", [("kind", "cyclic"), ("states", (-1,)), ("seed", 1)])
def test_initial_states_cannot_be_changed_in_place(field, value):
    # a learner holds a block of start states for up to START_BLOCK
    # episodes, so an in-place change would be ignored until the next block
    init = InitialStates.fixed(0)
    init.block(0, 3)
    with pytest.raises(AttributeError, match=field):
        setattr(init, field, value)
    assert init == InitialStates.fixed(0)
    assert init.state(0, 3) == 0
    assert InitialStates(kind="cyclic", states=[0, 1]).states == (0, 1)   # no list to edit


def test_validate_freezes_P_and_r_in_place():
    # in-place writes raise after validate, not before or after a failed
    # one; an array that is already C-ordered float64 is not copied
    mdp = make_random_mdp(3, 2, 4, seed=0)
    P, r = mdp.P, mdp.r
    mdp.r[0, 0, 0] = 1.5
    with pytest.raises(RewardOutOfRange):
        validate(mdp)
    mdp.r[0, 0, 0] = 0.5
    validate(mdp)
    assert mdp.P is P and mdp.r is r
    with pytest.raises(ValueError, match="read-only"):
        mdp.P[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        mdp.r[0, 0, 0] = 0.0
    validate(mdp)          # again: a frozen MDP stays as it is
    assert mdp.P is P and mdp.r is r


def test_validate_shape_errors():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P = mdp.P[:1]
    with pytest.raises(ValueError):
        validate(mdp)


# ------------------------------------------------------------ exact solvers

def test_two_step_frozen_values():
    mdp = two_step_example()
    tables, pi = backward_induction(mdp)
    assert tables.V[0, 0] == pytest.approx(1.1, abs=1e-15)
    assert pi.actions[0, 0] == 1
    # the myopic policy loses exactly 0.2
    myopic = DeterministicPolicy(np.zeros((2, 2), dtype=np.int64))
    vpi = policy_evaluation(mdp, myopic)
    assert tables.V[0, 0] - vpi.V[0, 0] == pytest.approx(0.2, abs=1e-15)
    assert vpi.V[0, 0] == pytest.approx(0.9, abs=1e-15)


def test_boundary_rows_zero():
    mdp = make_random_mdp(3, 2, 4, seed=1)
    tables, _ = backward_induction(mdp)
    assert np.all(tables.V[4] == 0.0)
    assert np.all(tables.Q[4] == 0.0)


def test_backward_induction_vs_brute_force():
    for S, A, H in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        for seed in (0, 1):
            mdp = make_random_mdp(S, A, H, seed=seed)
            v_b, q_b = brute_value_tables(mdp)
            tables, _ = backward_induction(mdp)
            assert np.abs(tables.V - v_b).max() < 1e-12
            assert np.abs(tables.Q[:H] - q_b).max() < 1e-12


def test_policy_evaluation_vs_path_enumeration():
    mdp = make_random_mdp(3, 2, 4, seed=3)
    gen = np.random.default_rng(0)
    for _ in range(5):
        acts = gen.integers(0, 2, size=(4, 3))
        vpi = policy_evaluation(mdp, DeterministicPolicy(acts))
        for s in range(3):
            assert vpi.V[0, s] == pytest.approx(brute_policy_value(mdp, acts, s), abs=1e-12)


def test_optimal_dominates_random_policies():
    mdp = make_random_mdp(4, 3, 5, seed=7)
    tables, _ = backward_induction(mdp)
    gen = np.random.default_rng(1)
    for _ in range(200):
        acts = gen.integers(0, 3, size=(5, 4))
        vpi = policy_evaluation(mdp, DeterministicPolicy(acts))
        assert np.all(tables.V >= vpi.V - 1e-12)


def test_argmax_tie_breaks_low():
    P = np.zeros((1, 1, 3, 1))
    P[...] = 1.0
    r = np.array([[[0.5, 0.5, 0.2]]])
    tables, pi = backward_induction(EpisodicMdp(S=1, A=3, H=1, P=P, r=r))
    assert pi.actions[0, 0] == 0


def test_policy_evaluation_rejects_bad_policies():
    mdp = make_random_mdp(2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        policy_evaluation(mdp, DeterministicPolicy(np.zeros((3, 2), dtype=np.int64)))
    with pytest.raises(ValueError):
        policy_evaluation(mdp, DeterministicPolicy(np.full((2, 2), 5, dtype=np.int64)))


@pytest.mark.parametrize("bad", [1.5, 0.25, float("nan"), float("inf")])
def test_checked_actions_rejects_non_integer_actions(bad):
    mdp = make_random_mdp(2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        checked_actions(mdp, [[bad, 0], [0, 0]])
    with pytest.raises(ValueError):
        policy_evaluation(mdp, DeterministicPolicy(np.array([[bad, 0.0], [0.0, 0.0]])))
    # integral floats are integers
    assert checked_actions(mdp, [[1.0, 0.0], [0.0, 1.0]]).tolist() == [[1, 0], [0, 1]]


# ----------------------------------------------------------- initial states

def test_initial_states_fixed_and_cyclic():
    assert [InitialStates.fixed(1).state(k, 3) for k in range(4)] == [1, 1, 1, 1]
    cyc = InitialStates.cyclic([0, 2, 1])
    assert [cyc.state(k, 3) for k in range(7)] == [0, 2, 1, 0, 2, 1, 0]
    assert cyc.block(1, 3).tolist() == [(0, 2, 1)[k % 3]
                                        for k in range(START_BLOCK, 2 * START_BLOCK)]
    fixed = InitialStates.fixed(1)
    assert fixed.block(5, 3).tolist() == [1] * START_BLOCK
    assert fixed.block(0, 3) is fixed.block(5, 3)    # one block for every b
    # read-only int64 blocks whose items are Python ints
    for block in (cyc.block(1, 3), fixed.block(0, 3)):
        assert block.readonly and block.obj.dtype == np.int64 and type(block[0]) is int
    with pytest.raises(ValueError):
        InitialStates.cyclic([])


def test_initial_states_reject_an_unknown_kind():
    # a misspelt kind fails where it is built, not at the first episode
    with pytest.raises(ValueError, match="unknown initial-state kind 'fixd'"):
        InitialStates(kind="fixd", states=(0,))


@pytest.mark.parametrize("seed", [None, -1])
def test_initial_states_seeded_needs_a_seed(seed):
    # without one the starts would come from OS entropy, and a rerun would differ
    with pytest.raises(ValueError, match="seed >= 0"):
        InitialStates(kind="seeded", seed=seed)
    if seed is not None:
        with pytest.raises(ValueError, match="seed >= 0"):
            InitialStates.seeded(seed)


@pytest.mark.parametrize("kind", ["fixed", "cyclic"])
def test_initial_states_fixed_and_cyclic_need_states(kind):
    with pytest.raises(ValueError, match="non-empty"):
        InitialStates(kind=kind)


def test_initial_states_seeded_is_pure_function():
    a = InitialStates.seeded(42)
    b = InitialStates.seeded(42)
    got_a = [a.state(k, 4) for k in range(1000)]
    got_b = [b.state(k, 4) for k in range(1000)]
    assert got_a == got_b
    assert set(got_a) == {0, 1, 2, 3}
    # out-of-order access sees the same sequence
    c = InitialStates.seeded(42)
    assert c.state(777, 4) == got_a[777]
    assert c.state(3, 4) == got_a[3]
    # bound to a state count after first use
    with pytest.raises(ValueError):
        a.state(0, 5)


def test_initial_states_seeded_block_is_restartable_and_held_alone():
    S, B = 5, START_BLOCK
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7)))
    ref = [s for _ in range(3) for s in gen.integers(0, S, size=B).tolist()]
    fwd = InitialStates.seeded(7)
    assert [s for b in range(3) for s in fwd.block(b, S)] == ref
    assert [fwd.state(k, S) for k in range(3 * B)] == ref
    back = InitialStates.seeded(7)
    assert [back.state(k, S) for k in range(3 * B - 1, -1, -1)] == ref[::-1]
    sparse = InitialStates.seeded(7)
    for k in (2 * B + 3, 3, B + B // 2, 3 * B - 1, 0, B, B - 1):
        assert sparse.state(k, S) == ref[k]
    # only the last block read is held, however far it lies
    far = InitialStates.seeded(7)
    assert len(far.block(200, S)) == B
    assert far.block(1, S).tolist() == ref[B:2 * B]
    assert far._last[:2] == (1, S) and far._last[2].tolist() == ref[B:2 * B]
    assert far.block(1, S).readonly and type(far.block(1, S)[0]) is int
    with pytest.raises(ValueError, match="state count"):
        far.block(1, S + 1)


@pytest.mark.parametrize("S", [5, 2**31 + 1])
def test_initial_states_seeded_block_is_consecutive_draws_of_256(S):
    # a block of START_BLOCK seeded starts holds the values of as many
    # consecutive draws of 256 (2**31 + 1 makes NumPy reject about half its
    # 32-bit draws), so the block size changes no run's start states
    blocks = (0, 1, 20)
    gen = np.random.default_rng(11)
    draws = np.concatenate([gen.integers(0, S, size=256, dtype=np.int64)
                            for _ in range((max(blocks) + 1) * START_BLOCK // 256)])
    init = InitialStates.seeded(11)
    for b in blocks:
        assert init.block(b, S).tolist() == draws[b * START_BLOCK:(b + 1) * START_BLOCK].tolist()


@pytest.mark.parametrize("init", [InitialStates.fixed(1), InitialStates.cyclic([0, 2]),
                                  InitialStates.seeded(3)], ids=["fixed", "cyclic", "seeded"])
def test_initial_states_negative_block_raises(init):
    # every kind, whether or not a block is held
    for _ in range(2):
        with pytest.raises(ValueError, match="block index -1 "):
            init.block(-1, 3)
        with pytest.raises(ValueError, match="block index -1 "):
            init.state(-1, 3)
        init.block(0, 3)


def test_initial_states_seeds_differ():
    a = [InitialStates.seeded(1).state(k, 4) for k in range(64)]
    b = [InitialStates.seeded(2).state(k, 4) for k in range(64)]
    assert a != b


# ----------------------------------------------------------------- sampling

def test_sample_episode_matches_manual_loop():
    mdp = make_random_mdp(3, 2, 4, seed=5)

    class Actor:
        def select_action(self, h, s):
            return (h + s) % 2

    us = np.random.default_rng(9).random(4).tolist()
    traj = sample_episode(mdp, Actor(), CountingRng(us))
    # replay by hand with the same uniforms
    from bisect import bisect_right
    cum = mdp.cum_rows()
    s = 0
    for h in range(4):
        a = (h + s) % 2
        s_next = bisect_right(cum[h][s][a], us[h])
        assert traj[h] == (s, a, mdp.r[h, s, a], s_next)
        s = s_next


def test_sample_episode_one_uniform_per_step():
    mdp = make_random_mdp(3, 2, 6, seed=5)
    rng = CountingRng(np.random.default_rng(0).random(6).tolist())

    class Actor:
        def select_action(self, h, s):
            return 0

    sample_episode(mdp, Actor(), rng)
    assert rng.calls == 6


def test_sample_episode_uniform_close_to_one_stays_in_range():
    # a degenerate row [1, 0, 0] plus u = 1 - 2^-53 must not index out
    P = np.zeros((1, 3, 1, 3))
    P[0, :, 0, 0] = 1.0
    mdp = EpisodicMdp(S=3, A=1, H=1, P=P, r=np.zeros((1, 3, 1)))

    class Actor:
        def select_action(self, h, s):
            return 0

    traj = sample_episode(mdp, Actor(), CountingRng([1.0 - 2.0 ** -53]))
    assert traj[0][3] == 0


def test_sample_episode_feeds_observe_in_order():
    mdp = make_random_mdp(2, 2, 3, seed=2)
    seen = []

    class Actor:
        def select_action(self, h, s):
            return 0

        def observe(self, h, s, a, s_next):
            seen.append((h, s, a, s_next))

    traj = sample_episode(mdp, Actor(), CountingRng([0.3, 0.6, 0.9]))
    assert seen == [(h, s, a, sn) for h, (s, a, _r, sn) in enumerate(traj)]


def test_monte_carlo_row_frequencies():
    # literal frequency check of the inverse-CDF sampler on row [0.25, 0.75]
    P = np.zeros((1, 2, 1, 2))
    P[0, 0, 0] = [0.25, 0.75]
    P[0, 1, 0] = [1.0, 0.0]
    mdp = EpisodicMdp(S=2, A=1, H=1, P=P, r=np.zeros((1, 2, 1)))

    class Actor:
        def select_action(self, h, s):
            return 0

    gen = np.random.default_rng(123)
    us = gen.random(100_000).tolist()
    hits = 0
    for u in us:
        traj = sample_episode(mdp, Actor(), CountingRng([u]))
        hits += traj[0][3]
    assert abs(hits / 100_000 - 0.75) < 0.01


def test_initial_state_indexing_reaches_generator():
    mdp, init = make_random_mdp(3, 2, 2, seed=0), InitialStates.cyclic([2, 0])

    class Actor:
        def select_action(self, h, s):
            return 0

    t0 = sample_episode(mdp, Actor(), CountingRng([0.5, 0.5]), episode_index=0, init=init)
    t1 = sample_episode(mdp, Actor(), CountingRng([0.5, 0.5]), episode_index=1, init=init)
    assert t0[0][0] == 2 and t1[0][0] == 0
    # without start states every episode starts in state 0
    assert sample_episode(mdp, Actor(), CountingRng([0.5, 0.5]), episode_index=1)[0][0] == 0


# --------------------------------------------------------------- generators

def test_make_random_mdp_deterministic_and_valid():
    a = make_random_mdp(3, 2, 4, seed=11)
    b = make_random_mdp(3, 2, 4, seed=11)
    assert np.array_equal(a.P, b.P) and np.array_equal(a.r, b.r)
    validate(a)
    c = make_random_mdp(3, 2, 4, seed=12)
    assert not np.array_equal(a.P, c.P)


@pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 2), (2, 2, 0), (-1, 2, 2)])
def test_make_random_mdp_rejects_empty_dimensions(dims):
    with pytest.raises(ValueError, match="S, A, H must be positive"):
        make_random_mdp(*dims, seed=0)
    if dims[2] == 0:
        with pytest.raises(ValueError, match="H must be positive"):
            make_jao_chain(0, epsilon=0.0)


def test_make_random_mdp_sparsity():
    full = make_random_mdp(3, 2, 4, seed=0, reward_sparsity=1.0)
    assert np.all(full.r == 0.0)
    some = make_random_mdp(5, 3, 6, seed=0, reward_sparsity=0.5)
    frac = np.mean(some.r == 0.0)
    assert 0.3 < frac < 0.7
    with pytest.raises(ValueError):
        make_random_mdp(2, 2, 2, seed=0, reward_sparsity=1.5)


def test_jao_structure():
    H = 64
    mdp = make_jao_chain(H, epsilon=0.1)
    validate(mdp)
    assert (mdp.S, mdp.A) == (2, 2)
    # delta defaults to 16/H = 0.25 at H=64; the favored row is [0.65, 0.35]
    assert np.all(mdp.r[:, 1, :] == 1.0) and np.all(mdp.r[:, 0, :] == 0.0)
    for h in range(H):
        assert np.allclose(mdp.P[h, 1, 0], [0.25, 0.75])
        star = int(np.argmax(mdp.P[h, 0, :, 1]))
        assert np.allclose(mdp.P[h, 0, star], [0.65, 0.35])
        assert np.allclose(mdp.P[h, 0, 1 - star], [0.75, 0.25])


def test_jao_optimal_policy_prefers_star_action():
    H = 40
    acts = np.array([h % 2 for h in range(H)], dtype=np.int64)
    mdp = make_jao_chain(H, epsilon=0.1, optimal_actions=acts)
    _, pi = backward_induction(mdp)
    # at every layer except the last, the hidden action is strictly better
    # in the rewardless state; at the last layer both actions tie and the
    # tie-break picks 0
    for h in range(H - 1):
        assert pi.actions[h, 0] == acts[h]
    assert pi.actions[H - 1, 0] == 0


def test_jao_frozen_three_layer_values():
    mdp = make_jao_chain(3, epsilon=0.1, delta=0.4, optimal_actions=[1, 1, 0])
    tables, _ = backward_induction(mdp)
    assert tables.V[0, 0] == pytest.approx(1.05, abs=1e-12)
    assert tables.V[0, 1] == pytest.approx(2.16, abs=1e-12)


def test_jao_epsilon_zero_allowed():
    mdp = make_jao_chain(40, epsilon=0.0)
    validate(mdp)
    assert np.allclose(mdp.P[:, 0, 0], mdp.P[:, 0, 1])


def test_jao_validation_errors():
    with pytest.raises(InvalidDelta):
        make_jao_chain(8, epsilon=0.1)  # 16/8 = 2 >= 1/2
    with pytest.raises(InvalidDelta):
        make_jao_chain(40, epsilon=0.1, delta=0.5)
    with pytest.raises(InvalidEpsilon):
        make_jao_chain(40, epsilon=0.3)  # above min(8/H, delta/2) = 0.2
    with pytest.raises(InvalidEpsilon):
        make_jao_chain(40, epsilon=-0.1)
    with pytest.raises(ValueError):
        make_jao_chain(4, epsilon=0.0, delta=0.3, optimal_actions=[0, 1])


def test_jao_deterministic_in_seed():
    a = make_jao_chain(16, epsilon=0.2, delta=0.45, seed=3)
    b = make_jao_chain(16, epsilon=0.2, delta=0.45, seed=3)
    assert np.array_equal(a.P, b.P)


# ------------------------------------------------------------------ file IO

def test_save_load_round_trip(tmp_path):
    mdp = make_random_mdp(3, 2, 4, seed=21)
    path = tmp_path / "m.mdp"
    save_mdp(mdp, path)
    back = load_mdp(path)
    assert (back.S, back.A, back.H) == (3, 2, 4)
    assert np.array_equal(back.P, mdp.P)  # %.17g round-trips float64 exactly
    assert np.array_equal(back.r, mdp.r)


def test_load_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mdp"
    path.write_text(
        "# tiny instance\n"
        "1 1 1\n"
        "\n"
        "P 0 0 0 1.0   # self loop\n"
        "R 0 0 0 0.5\n")
    mdp = load_mdp(path)
    assert mdp.r[0, 0, 0] == 0.5


@pytest.mark.parametrize("body,fragment", [
    ("", "empty"),
    ("1 1\nP 0 0 0 1.0\nR 0 0 0 0.0", ":1:"),
    ("x 1 1\nP 0 0 0 1.0\nR 0 0 0 0.0", ":1:"),
    ("1 1 1\nP 0 0 1.0\nR 0 0 0 0.0", ":2:"),
    ("1 1 1\nP 0 0 0 1.0\nR 0 0 0 oops", ":3:"),
    ("1 1 1\nP 0 0 5 1.0\nR 0 0 0 0.0", "out of range"),
    ("1 1 1\nZ 0 0 0 1.0\nR 0 0 0 0.0", "unknown record"),
    ("1 1 1\nR 0 0 0 0.0", "missing P"),
    ("1 1 1\nP 0 0 0 1.0", "missing R"),
    ("1 1 1\nP 0 0 0 1.0\nR 0 0 0 0.0\nP 0 0 0 1.0",
     ":4: duplicate P record for h=0 s=0 a=0 (first at line 2)"),
    ("1 1 1\nR 0 0 0 0.0\nP 0 0 0 1.0\nR 0 0 0 0.5",
     ":4: duplicate R record for h=0 s=0 a=0 (first at line 2)"),
    ("1 1 1\nP 0 0 0 1.0\nR 0 0 0 nan", ":3: non-finite value 'nan'"),
    ("1 1 1\nP 0 0 0 inf\nR 0 0 0 0.0", ":2: non-finite value 'inf'"),
])
def test_load_error_diagnostics(tmp_path, body, fragment):
    path = tmp_path / "bad.mdp"
    path.write_text(body)
    with pytest.raises(ValueError) as ei:
        load_mdp(path)
    assert fragment in str(ei.value)


def test_mdp_and_its_file_carry_no_start_states(tmp_path):
    # start states are a run's input: neither the MDP nor its file has any
    mdp = make_random_mdp(2, 2, 2, seed=0)
    path = tmp_path / "m.mdp"
    save_mdp(mdp, path)
    back = load_mdp(path)
    assert [f for f in vars(back) if not f.startswith("_")] == ["S", "A", "H", "P", "r"]
    assert not hasattr(back, "init") and not hasattr(back, "initial_state")
    assert path.read_text().splitlines()[0] == "2 2 2"


def test_cum_rows_cached_and_final_entry_one():
    mdp = make_random_mdp(3, 2, 2, seed=4)
    rows = mdp.cum_rows()
    assert rows is mdp.cum_rows()
    for h in range(2):
        for s in range(3):
            for a in range(2):
                assert rows[h][s][a][-1] == 1.0


def test_cached_arrays_reject_later_writes():
    # writes before any sampling are fine (validate's tests rely on that);
    # the first cache freezes the MDP, since a write would leave sampling
    # on the old kernel
    mdp = make_random_mdp(2, 2, 2, seed=0)
    mdp.P[0, 0, 0] = [0.5, 0.5]
    mdp.r[0, 0, 0] = 0.5
    mdp.cum_rows()
    with pytest.raises(ValueError, match="read-only"):
        mdp.P[0, 0, 0] = [1.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        mdp.r[0, 0, 0] = 0.0
    assert mdp.cum_rows()[0][0][0] == [0.5, 1.0]
    assert mdp.reward_rows()[0][0][0] == 0.5
    P2 = mdp.P.copy()
    P2[0, 0, 0] = [1.0, 0.0]
    with pytest.raises(AttributeError, match="EpisodicMdp.P"):
        mdp.P = P2
    with pytest.raises(AttributeError, match="EpisodicMdp.r"):
        mdp.r = np.full_like(mdp.r, 0.75)
    assert mdp.cum_rows()[0][0][0] == [0.5, 1.0]
    assert mdp.reward_rows()[0][0][0] == 0.5


def near_tol_mdp():
    """A valid 2x2x2 MDP whose row (0, 0, 0) sums to the largest double
    within ROW_SUM_TOL above 1, in any order: inside the kernel filter's
    margin, so stageq_cum_rows flags it and validate clears it."""
    mdp = make_random_mdp(2, 2, 2, seed=0)
    top = 1.0 + ROW_SUM_TOL
    while top - 1.0 > ROW_SUM_TOL:
        top = np.nextafter(top, 0.0)
    mdp.P[0, 0, 0] = [top - 0.5, 0.5]
    return mdp


def test_cum_array_validates_only_an_unvalidated_mdp(monkeypatch, path):
    # the drivers build the rows without a validate of their own: an MDP
    # that validate has passed is not validated again; without the kernel
    # any other MDP is validated (and frozen) there, and with it validate
    # runs only for a row its pass flagged, here a row within ROW_SUM_TOL
    # but inside the filter's margin.  Each ends validated and frozen
    import stageq.mdp as mdp_module
    checked, unchecked = (make_random_mdp(2, 2, 2, seed=0) for _ in range(2))
    near = near_tol_mdp()
    validate(checked)
    seen, real = [], mdp_module.validate
    monkeypatch.setattr(mdp_module, "validate", lambda m: seen.append(m) or real(m))
    checked.cum_array()
    unchecked.cum_rows()
    near.cum_array()
    assert seen == ([unchecked, near] if path == "fallback" else [near])
    for mdp in (checked, unchecked, near):
        assert mdp._validated and not mdp.P.flags.writeable and not mdp.r.flags.writeable


def spoil(mdp, kinds: str) -> None:
    """Write a bad row of each comma-separated kind into a 4x3x3 mdp."""
    P, r = mdp.P, mdp.r
    for kind in kinds.split(","):
        if kind == "nan":
            P[1, 2, 0, 1] = np.nan
        elif kind == "negative":       # entry 2's mass moved to entry 0: the sum holds
            P[2, 0, 1, 0] += P[2, 0, 1, 2]
            P[2, 0, 1, 2] = -1e-300
        elif kind == "+inf":
            P[0, 3, 2, 2] = np.inf
        elif kind.startswith("sum"):
            P[1, 1, 1, 1] += float(kind[3:])
        elif kind == "r<0":
            r[0, 1, 2] = -1e-300
        elif kind == "r>1":
            r[2, 2, 1] = np.nextafter(1.0, 2.0)
        else:
            r[1, 0, 0] = np.nan


# one bad row of each kind, and two where the later in (h, s, a) scan order
# is written first: validate reports the earlier
SPOILS = ["nan", "negative", "+inf", "sum+1e-9", "sum-1e-9", "r<0", "r>1", "r-nan",
          "negative,r-nan", "+inf,r<0"]


@pytest.mark.parametrize("kinds", SPOILS)
def test_cum_array_raises_what_validate_raises(kinds, path):
    # an unvalidated MDP with bad rows: cum_array raises validate's
    # exception, message included, on both paths (with the kernel, after
    # its pass flagged the row), and leaves the MDP unfrozen and
    # unvalidated, with no rows built, as validate leaves it
    mdps = [make_random_mdp(4, 3, 3, seed=7) for _ in range(2)]
    for mdp in mdps:
        spoil(mdp, kinds)
    want = raised(validate, mdps[0])
    assert want is not None and want == raised(EpisodicMdp.cum_array, mdps[1])
    for mdp in mdps:
        assert not (mdp._frozen or mdp._validated) and mdp._cum is None
        assert mdp.P.flags.writeable and mdp.r.flags.writeable


def straddling_rows(gen, n: int):
    """Rows of n entries >= 0 whose NumPy sum (row.sum(), pairwise from 9
    entries on) and in-order sum (np.cumsum) fall on opposite sides of
    1 + ROW_SUM_TOL or of 1 - ROW_SUM_TOL: three at least of each way round,
    at each side."""
    found = {}
    while min(map(len, found.values()), default=0) < 3 or len(found) < 4:
        side = int(gen.choice([-1, 1]))
        w = gen.random(n)
        row = w / w.sum() * (1.0 + side * ROW_SUM_TOL + int(gen.integers(-8, 9)) * 2.0 ** -52)
        numpy_ok = abs(row.sum() - 1.0) <= ROW_SUM_TOL
        in_order_ok = abs(np.cumsum(row)[-1] - 1.0) <= ROW_SUM_TOL
        if numpy_ok != in_order_ok:
            found.setdefault((side, in_order_ok), []).append(row)
    return [row for rows in found.values() for row in rows]


@pytest.mark.parametrize("n", [9, 16, 17, 50, 128, 129])
def test_cum_array_rejects_what_validate_rejects_at_the_sum_boundary(n, path):
    # the kernel's pass sums each row in order, and NumPy pairwise: for
    # rows whose two sums straddle 1 +- ROW_SUM_TOL, cum_array on an
    # unvalidated MDP raises exactly where validate raises (the filter's
    # margin flags every row whose in-order sum is near the bound), and the
    # per-test oracle flags the rows validate rejects.  Each MDP (S = n,
    # A = H = 1) holds one such row among rows of exact dyadic sums
    gen = np.random.default_rng(n)
    rejected = 0
    for i, row in enumerate(straddling_rows(gen, n)):
        P = np.zeros((1, n, 1, n))
        P[0, :, 0, :2] = 0.5
        P[0, i % n, 0] = row
        mdps = [EpisodicMdp(S=n, A=1, H=1, P=P.copy(), r=np.zeros((1, n, 1))) for _ in range(2)]
        want = raised(validate, mdps[0])
        assert raised(EpisodicMdp.cum_array, mdps[1]) == want
        assert bad_rows_by_test(P, mdps[0].r)[0, :, 0].tolist() == [
            want is not None and s == i % n for s in range(n)]
        rejected += want is not None
    assert 0 < rejected < i + 1


VIOLATIONS = ("nan", "inf", "-inf", "negative", "sum", "r>1", "r<0", "r-nan", "r-inf", "r+inf")


def corrupt(mdp, gen, kind):
    """Write one violation of the given kind at a random (h, s, a)."""
    h, s, a = (int(gen.integers(n)) for n in (mdp.H, mdp.S, mdp.A))
    j = int(gen.integers(mdp.S))
    if kind in ("nan", "inf", "-inf"):
        mdp.P[h, s, a, j] = float(kind)
    elif kind == "negative":
        mdp.P[h, s, a, j] = -gen.random() - 1e-9
    elif kind == "sum":
        mdp.P[h, s, a, j] += gen.choice([-1, 1]) * gen.uniform(1e-11, 0.5)
    else:
        mdp.r[h, s, a] = {"r>1": 1.0 + gen.random() + 1e-12, "r<0": -gen.random() - 1e-12,
                          "r-nan": float("nan"), "r-inf": -np.inf, "r+inf": np.inf}[kind]


def raised(check, mdp):
    try:
        check(mdp)
    except MdpValidationError as exc:
        return type(exc), str(exc)
    return None


def test_bad_rows_flags_what_the_finite_test_flagged():
    # rows whose entries mix NaN, +inf and -inf (a NaN or infinite sum),
    # negative or off-sum rows, and rewards out of range or not finite:
    # the negated comparisons flag exactly the rows that the finiteness,
    # negativity and sum tests flagged
    nan, inf = np.nan, np.inf
    rows = [[0.5, 0.5], [nan, 1.0], [inf, 0.0], [-inf, 1.0], [inf, -inf], [nan, -1.0],
            [1.5, -0.5], [0.5, 0.5 + 1e-11], [0.5, 0.5 + 1e-13], [inf, inf], [0.0, 1.0]]
    rewards = [0.0, 1.0, nan, inf, -inf, -1e-300, 1.0 + 1e-15, 0.5, 2.0, -0.0, 1.0]
    P = np.array([[[row] for row in rows]] * 2)          # (H=2, S=11, A=1, 2)
    r = np.array([[[x] for x in rewards], [[x] for x in reversed(rewards)]])
    want = bad_rows_by_test(P, r)
    assert np.array_equal(bad_rows(P, r), want)
    assert want[0, :, 0].tolist() == [False] + [True] * 9 + [False]
    assert want[1, :, 0].tolist() == [False] + [True] * 9 + [False]


@pytest.mark.parametrize("violations", [1, 2])
def test_validate_raises_what_the_row_scan_raises(violations):
    # the whole-array masks only locate the first bad row; the same
    # exception and message as the old row-by-row scan, wherever the
    # violations sit and whichever comes first, and the same rows flagged
    gen = np.random.default_rng(violations)
    for seed in range(60):
        S, A, H = (int(n) for n in gen.integers(1, 7, size=3))
        mdp = make_random_mdp(S, A, H, seed=seed)
        for _ in range(violations):
            corrupt(mdp, gen, VIOLATIONS[int(gen.integers(len(VIOLATIONS)))])
        want = raised(validate_by_rows, mdp)
        assert want is not None
        assert raised(validate, mdp) == want
        assert np.array_equal(bad_rows(mdp.P, mdp.r), bad_rows_by_test(mdp.P, mdp.r))
    # the instance validate is timed on in the benchmark, clean and corrupted
    mdp = make_random_mdp(50, 5, 20, seed=0)
    assert raised(validate, mdp) is raised(validate_by_rows, mdp) is None
    for kind in VIOLATIONS:
        bad = make_random_mdp(50, 5, 20, seed=0)
        for _ in range(violations):
            corrupt(bad, gen, kind)
        assert raised(validate, bad) == raised(validate_by_rows, bad) is not None
        assert np.array_equal(bad_rows(bad.P, bad.r), bad_rows_by_test(bad.P, bad.r))


# ------------------------------------------------------ property tests

PROPERTY = settings(derandomize=True, deadline=None)
DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))


@st.composite
def stochastic_mdps(draw):
    """Finite rows w / sum(w) from weights in [0, 1] (an all-zero row is
    made uniform) and rewards in [0, 1]."""
    S, A, H = draw(DIMS)
    w = draw(hnp.arrays(np.float64, (H, S, A, S), elements=st.floats(0.0, 1.0)))
    w += w.sum(axis=-1, keepdims=True) == 0.0
    r = draw(hnp.arrays(np.float64, (H, S, A), elements=st.floats(0.0, 1.0)))
    return EpisodicMdp(S=S, A=A, H=H, P=w / w.sum(axis=-1, keepdims=True), r=r)


@PROPERTY
@given(stochastic_mdps())
def test_validate_accepts_random_stochastic_rows(mdp):
    validate(mdp)


@PROPERTY
@given(stochastic_mdps(), st.data())
def test_validate_rejects_one_corrupted_entry(mdp, data):
    h = data.draw(st.integers(0, mdp.H - 1))
    s = data.draw(st.integers(0, mdp.S - 1))
    a = data.draw(st.integers(0, mdp.A - 1))
    j = data.draw(st.integers(0, mdp.S - 1))
    kind = data.draw(st.sampled_from(["nan", "inf", "-inf", "negative", "sum"]))
    if kind == "negative":
        mdp.P[h, s, a, j] = -data.draw(st.floats(0.0, 1.0, exclude_min=True))
    elif kind == "sum":
        # off by more than validate's tol of 1e-12 (a fall below 0 is caught too)
        gap = data.draw(st.floats(1e-9, 1.0)) * data.draw(st.sampled_from([1, -1]))
        mdp.P[h, s, a, j] += gap
    else:
        mdp.P[h, s, a, j] = float(kind)
    with pytest.raises(NonStochasticRow) as ei:
        validate(mdp)
    assert (ei.value.h, ei.value.s, ei.value.a) == (h, s, a)


@PROPERTY
@given(DIMS, st.data())
def test_save_load_round_trips_bit_for_bit(dims, data):
    S, A, H = dims
    finite = st.floats(allow_nan=False, allow_infinity=False)
    P = data.draw(hnp.arrays(np.float64, (H, S, A, S), elements=finite))
    r = data.draw(hnp.arrays(np.float64, (H, S, A), elements=finite))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mdp"
        save_mdp(EpisodicMdp(S=S, A=A, H=H, P=P, r=r), path)
        back = load_mdp(path)
    assert (back.S, back.A, back.H) == (S, A, H)
    assert back.P.tobytes() == P.tobytes()   # -0.0 and subnormals included
    assert back.r.tobytes() == r.tobytes()
