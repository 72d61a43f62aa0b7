import math
import sys

import numpy as np
import pytest

from stageq import (DeterministicPolicy, EPISODE_CSV_HEADER, EpisodeRecord,
                    OptimismTracker, PolicyValueCache, SwitchTracker,
                    backward_induction, check_optimism, count_switches,
                    make_random_mdp, policy_evaluation, switching_bound,
                    write_episode_csv)
from stageq.metrics import EPISODE_CSV_ROW, write_csv

from oracles import episode_regret


def test_episode_regret_zero_for_optimal_policy():
    mdp = make_random_mdp(3, 2, 4, seed=0)
    tables, pi = backward_induction(mdp)
    for s in range(3):
        assert episode_regret(mdp, tables, pi, s) == pytest.approx(0.0, abs=1e-12)


def test_episode_regret_matches_direct_evaluation():
    mdp = make_random_mdp(3, 2, 4, seed=1)
    tables, _ = backward_induction(mdp)
    gen = np.random.default_rng(0)
    for _ in range(20):
        pol = DeterministicPolicy(gen.integers(0, 2, size=(4, 3)))
        vpi = policy_evaluation(mdp, pol)
        for s in range(3):
            direct = float(tables.V[0, s] - vpi.V[0, s])
            assert episode_regret(mdp, tables, pol, s) == direct
            assert direct >= -1e-12


def test_cache_agrees_with_fresh_evaluation():
    mdp = make_random_mdp(3, 2, 4, seed=2)
    cache = PolicyValueCache(mdp)
    gen = np.random.default_rng(1)
    for _ in range(10):
        acts = gen.integers(0, 2, size=(4, 3))
        got = cache.values(acts.reshape(-1).tolist())
        fresh = policy_evaluation(mdp, DeterministicPolicy(acts))
        assert np.array_equal(got.V, fresh.V)
        assert got.Q is None       # the cache keeps V only
    # an unchanged table (as any sequence type) returns the same object
    acts = [0] * 12
    assert cache.values(acts) is cache.values(tuple(acts))


@pytest.mark.parametrize("layer", [0, 3, 6], ids=["top", "middle", "bottom"])
def test_cache_partial_evaluation_matches_fresh(layer):
    H, S, A = 7, 4, 3
    mdp = make_random_mdp(S, A, H, seed=3)
    cache = PolicyValueCache(mdp)
    gen = np.random.default_rng(layer)
    acts = gen.integers(0, A, size=(H, S))
    seen = [acts.copy()]
    for step in range(2 * S * A):
        # one row changes at `layer`; every few steps revisit an older table
        # (a hit), so the next miss starts from that table's values
        if step % 4 == 3:
            acts = seen[gen.integers(len(seen))].copy()
        else:
            s = step % S
            acts[layer, s] = (acts[layer, s] + 1 + step % (A - 1)) % A
            seen.append(acts.copy())
        got = cache.values(acts.reshape(-1).tolist())
        fresh = policy_evaluation(mdp, DeterministicPolicy(acts))
        assert np.array_equal(got.V, fresh.V)


@pytest.mark.parametrize("bad", [-1, 3])
def test_cache_rejects_out_of_range_actions(bad):
    H, S, A = 4, 3, 3
    mdp = make_random_mdp(S, A, H, seed=4)
    acts = [1] * (H * S)
    acts[S + 1] = bad                      # one row of layer 1
    with pytest.raises(ValueError):
        PolicyValueCache(mdp).values(acts)  # first call: full evaluation
    cache = PolicyValueCache(mdp)
    cache.values([1] * (H * S))
    with pytest.raises(ValueError):
        cache.values(acts)                  # partial path
    ok = [1] * (H * S)
    ok[S + 1] = 2
    fresh = policy_evaluation(mdp, DeterministicPolicy(np.asarray(ok).reshape(H, S)))
    assert np.array_equal(cache.values(ok).V, fresh.V)
    # the rows path: a failed call changes nothing, not even the switch count
    assert cache.switches == 1
    flat = ok[:]
    flat[2 * S] = 2                        # a valid change at layer 2 ...
    flat[S + 1] = bad                      # ... next to the bad one at layer 1
    with pytest.raises(ValueError):
        cache.values(flat, [2 * S, S + 1])
    assert cache.switches == 1
    flat[S + 1] = 0
    fresh = policy_evaluation(mdp, DeterministicPolicy(np.asarray(flat).reshape(H, S)))
    assert np.array_equal(cache.values(flat, [2 * S, S + 1]).V, fresh.V)
    assert cache.switches == 3


def test_cache_rejects_fractional_actions():
    H, S, A = 2, 2, 2
    mdp = make_random_mdp(S, A, H, seed=0)
    with pytest.raises(ValueError, match="integers"):
        PolicyValueCache(mdp).values([1.5, 0, 0, 0])   # first call
    cache = PolicyValueCache(mdp)
    before = cache.values([0, 0, 0, 0])
    for bad in (1.5, float("nan")):
        with pytest.raises(ValueError):
            cache.values([0, 0, bad, 1], [2, 3])        # partial path
        # raised before any state was written: table, V and count unchanged
        assert cache.switches == 0
        assert cache.values([0, 0, 0, 0]) is before
    # an integral float is an integer action
    fresh = policy_evaluation(mdp, DeterministicPolicy(np.array([[1, 0], [0, 0]])))
    assert np.array_equal(cache.values([1.0, 0, 0, 0]).V, fresh.V)


@pytest.mark.parametrize("S", [1, 2, 7, 16, 17, 50, 129])
def test_cache_matches_policy_evaluation_bit_for_bit(S):
    # a layer is S dot products of length S, over the gathered rows; the
    # sizes fall on both sides of BLAS's 16-wide ddot block and its tails
    H, A = 4, 3
    mdp = make_random_mdp(S, A, H, seed=S)
    cache = PolicyValueCache(mdp)
    gen = np.random.default_rng(S)
    acts = gen.integers(0, A, size=(H, S))
    for step in range(30):
        if step % 5 == 4:                  # a whole new table
            acts = gen.integers(0, A, size=(H, S))
        else:                              # a few rows, given as rows
            idx = gen.choice(H * S, size=min(3, H * S), replace=False)
            acts.flat[idx] = gen.integers(0, A, size=len(idx))
        rows = None if step % 5 == 4 else idx.tolist()
        got = cache.values(acts.reshape(-1).tolist(), rows)
        want = policy_evaluation(mdp, DeterministicPolicy(acts.copy()))
        assert got.V.tobytes() == want.V.tobytes()


def test_cache_regathers_after_P_or_r_is_rebound():
    H, S, A = 4, 5, 3
    mdp = make_random_mdp(S, A, H, seed=6)
    other = make_random_mdp(S, A, H, seed=7)
    acts = np.random.default_rng(0).integers(0, A, size=(H, S))
    flat = acts.reshape(-1).tolist()

    def fresh():
        return policy_evaluation(mdp, DeterministicPolicy(acts)).V

    cache = PolicyValueCache(mdp)
    first = cache.values(flat)
    with pytest.raises(ValueError):        # the gathered-from arrays are read-only
        mdp.P[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        mdp.r[0, 0, 0] = 0.5
    mdp.P = other.P.copy()                 # the same table, new kernels
    got = cache.values(flat)
    assert got is not first and not np.array_equal(got.V, first.V)
    assert got.V.tobytes() == fresh().tobytes()
    mdp.r = other.r.copy()
    got = cache.values(flat, [0])
    assert got.V.tobytes() == fresh().tobytes()
    assert cache.switches == 0
    # a changed row after a rebinding: gathered from the new arrays
    acts[H - 1, S - 1] = (acts[H - 1, S - 1] + 1) % A
    flat = acts.reshape(-1).tolist()
    mdp.P = mdp.P.copy()
    assert cache.values(flat, [H * S - 1]).V.tobytes() == fresh().tobytes()
    assert cache.switches == 1


@pytest.mark.parametrize("bad", [-1, 3, 1.5, float("nan")])
def test_cache_bad_action_on_a_changed_row_changes_nothing(bad):
    H, S, A = 4, 3, 3
    mdp = make_random_mdp(S, A, H, seed=8)
    ok = [1] * (H * S)
    cache = PolicyValueCache(mdp)
    before = cache.values(ok)
    gathered = (cache._P_pi.copy(), cache._r_pi.copy())
    flat = ok[:]
    flat[2 * S] = 2                        # a valid change at layer 2 ...
    flat[S + 1] = bad                      # ... and a bad one at layer 1
    for rebind in (False, True):
        if rebind:                         # not even the rebinding is taken in
            mdp.P = mdp.P.copy()
        with pytest.raises(ValueError):
            cache.values(flat, [2 * S, S + 1])
        assert cache._P_pi.tobytes() == gathered[0].tobytes()
        assert cache._r_pi.tobytes() == gathered[1].tobytes()
        assert cache.switches == 0
        if not rebind:
            assert cache.values(ok) is before
    flat[S + 1] = 0
    got = cache.values(flat, [2 * S, S + 1])
    fresh = policy_evaluation(mdp, DeterministicPolicy(np.asarray(flat).reshape(H, S)))
    assert got.V.tobytes() == fresh.V.tobytes()
    assert cache.switches == 2


def test_count_switches():
    assert count_switches([0, 1, 0], [0, 1, 0]) == 0
    assert count_switches([0, 1, 0], [1, 1, 0]) == 1
    assert count_switches([0, 0], [1, 1]) == 2


def test_switch_tracker_accumulates_consecutive_diffs():
    tr = SwitchTracker()
    assert tr.record([0, 0, 0]) == 0
    assert tr.record([0, 1, 0]) == 1
    assert tr.record([0, 1, 0]) == 0
    assert tr.record([1, 0, 0]) == 2
    assert tr.total == 3


def test_cache_compares_and_counts_only_given_rows():
    H, S, A = 3, 2, 2                                   # flat rows 0..5, layer = i // 2
    mdp = make_random_mdp(S, A, H, seed=5)

    def fresh(acts):
        return policy_evaluation(mdp, DeterministicPolicy(np.asarray(acts).reshape(H, S))).V

    cache = PolicyValueCache(mdp)
    cache.values([0] * 6)
    assert cache.switches == 0                          # the first table is no switch
    # rows 0 and 2 change inside rows, row 5 (layer 2) outside them: only
    # the two given rows are counted and evaluated
    got = cache.values([1, 0, 1, 0, 0, 1], [0, 2])
    assert cache.switches == 2
    assert np.array_equal(got.V, fresh([1, 0, 1, 0, 0, 0]))
    assert not np.array_equal(got.V, fresh([1, 0, 1, 0, 0, 1]))
    assert cache.values([1, 0, 1, 0, 0, 1], [0, 2]) is got
    assert cache.switches == 2
    # rows=None compares every row; row 5 still holds the last table's 0
    got = cache.values([1, 1, 1, 0, 0, 1])
    assert cache.switches == 4
    assert np.array_equal(got.V, fresh([1, 1, 1, 0, 0, 1]))
    # an unchanged table, with or without rows, returns the same object
    assert cache.values([1, 1, 1, 0, 0, 1], [1, 3]) is got
    assert cache.values((1, 1, 1, 0, 0, 1)) is got
    assert cache.switches == 4


def test_optimism_tracker_retests_trajectory_cells():
    q_star = np.zeros((3, 2, 2))                       # H=2 plus boundary row
    q = np.ones((2, 2, 2))
    q[1, 1, 0] = -1.0
    tr = OptimismTracker(q, q_star)
    assert tr.count == 1 == check_optimism(q, q_star)
    flat = q.reshape(-1).tolist()
    flat[0] = -1.0                                     # (h=0, s=0, a=0) dips
    flat[(1 * 2 + 1) * 2 + 0] = 0.5                    # (h=1, s=1, a=0) recovers
    traj = [(0, 0, 0.0, 1), (1, 0, 0.0, 0)]            # visits both cells
    assert tr.update(flat.__getitem__, traj) == 1
    flat[0] = 2.0
    assert tr.update(flat.__getitem__, traj[:1]) == 0


def test_switching_bound_frozen_values():
    # S=A=H=2: 4*4*2*2 = 64 prefactor
    assert switching_bound(2, 2, 2, 1600) == pytest.approx(64 * math.log(51.0), rel=1e-12)
    assert switching_bound(2, 2, 2, 32) == pytest.approx(64 * math.log(2.0), rel=1e-12)
    assert switching_bound(2, 2, 2, 0) == 0.0


def test_check_optimism_counts_entries():
    q_star = np.zeros((3, 2, 2))
    q = np.zeros((3, 2, 2))
    assert check_optimism(q, q_star) == 0
    q[1, 0, 1] = -1e-6
    q[2, 1, 0] = -1.0
    assert check_optimism(q, q_star) == 2
    # a boundary row on q_star is sliced away
    q_star_b = np.zeros((4, 2, 2))
    assert check_optimism(q, q_star_b) == 2
    # tolerance keeps tiny dips out
    q2 = np.full((3, 2, 2), -1e-10)
    assert check_optimism(q2, q_star) == 0


def test_write_csv_golden_uses_repr_floats(tmp_path, capsys):
    rec = EpisodeRecord(k=3, episode_regret=0.1, cum_regret=0.30000000000000004,
                        cum_switching_cost=2, cum_q_updates=7,
                        cum_optimism_violations=0, ref_states_fixed=1)
    expected = EPISODE_CSV_HEADER + "\n3,0.1,0.30000000000000004,2,7,0,1\n"
    path = tmp_path / "ep.csv"
    write_csv(path, EPISODE_CSV_HEADER, EPISODE_CSV_ROW, [tuple(vars(rec).values())])
    assert path.read_text() == expected
    # an open file gets the same bytes
    write_csv(sys.stdout, EPISODE_CSV_HEADER, EPISODE_CSV_ROW, [tuple(vars(rec).values())])
    assert capsys.readouterr().out == expected


def test_write_episode_csv_golden(tmp_path):
    recs = [EpisodeRecord(1, 0.5, 0.5, 0, 1, 0, 0),
            EpisodeRecord(2, 0.25, 0.75, 3, 2, 1, 0)]
    path = tmp_path / "ep.csv"
    write_episode_csv(recs, path)
    assert path.read_text() == (EPISODE_CSV_HEADER + "\n"
                                "1,0.5,0.5,0,1,0,0\n"
                                "2,0.25,0.75,3,2,1,0\n")
