import io
import math
import sys

import numpy as np
import pytest

from stageq import (DeterministicPolicy, EPISODE_CSV_HEADER, EnvSpec, EpisodeRecord,
                    OptimismTracker, PolicyValueCache, RunConfig, SwitchTracker,
                    backward_induction, check_optimism, count_switches,
                    kernel, make_random_mdp, policy_evaluation, run_experiment,
                    switching_bound, write_episode_csv)
from stageq.metrics import CHUNK_BYTES, GridAxis, grid, write_csv, write_table

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


def test_cache_freezes_P_and_r():
    H, S, A = 4, 5, 3
    mdp = make_random_mdp(S, A, H, seed=6)
    other = make_random_mdp(S, A, H, seed=7)
    acts = np.random.default_rng(0).integers(0, A, size=(H, S))
    cache = PolicyValueCache(mdp)
    first = cache.values(acts.reshape(-1).tolist())
    assert first.V.tobytes() == policy_evaluation(mdp, DeterministicPolicy(acts)).V.tobytes()
    with pytest.raises(ValueError, match="read-only"):   # the gathered-from arrays
        mdp.P[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        mdp.r[0, 0, 0] = 0.5
    with pytest.raises(AttributeError, match="EpisodicMdp.P"):
        mdp.P = other.P.copy()
    with pytest.raises(AttributeError, match="EpisodicMdp.r"):
        mdp.r = other.r.copy()
    assert cache.values(acts.reshape(-1).tolist()) is first


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
    with pytest.raises(ValueError):
        cache.values(flat, [2 * S, S + 1])
    assert cache._P_pi.tobytes() == gathered[0].tobytes()
    assert cache._r_pi.tobytes() == gathered[1].tobytes()
    assert cache.switches == 0
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


def test_write_csv_golden_uses_repr_floats(capsys):
    rec = EpisodeRecord(k=3, episode_regret=0.1, cum_regret=0.30000000000000004,
                        cum_switching_cost=2, cum_q_updates=7,
                        cum_optimism_violations=0, ref_states_fixed=1)
    write_csv(sys.stdout, "%d,%r,%r,%d,%d,%d,%d", [tuple(vars(rec).values())])
    assert capsys.readouterr().out == "3,0.1,0.30000000000000004,2,7,0,1\n"


def test_grid_columns_match_the_index_and_repr_formats(path, capsys):
    # grid(shape)'s index columns and the float column give the bytes
    # "%d,...,%r" % row gives, over more rows than one chunk of either body
    gen = np.random.default_rng(3)
    q = gen.standard_normal((3, 700, 2)) * 10.0 ** gen.integers(-20, 20, (3, 700, 2))
    acts = gen.integers(0, 5, (3, 700))
    assert grid(q.shape) == [GridAxis(1400, 3), GridAxis(2, 700), GridAxis(1, 2)]
    want = ["%d,%d,%d,%r" % (h, s, a, q[h, s, a].item()) for h, s, a in np.ndindex(q.shape)]
    write_table(sys.stdout, "h,s,a,Q", [*grid(q.shape), q])
    assert capsys.readouterr().out == "\n".join(["h,s,a,Q"] + want) + "\n"
    # an int column, and an empty cell
    want = ["%d,%d,%r,%d," % (h, s, q[h, s, 0].item(), acts[h, s].item())
            for h, s in np.ndindex(acts.shape)]
    write_table(sys.stdout, "h,s,Q,a,", [*grid(acts.shape), q[..., 0], acts, None])
    assert capsys.readouterr().out == "\n".join(["h,s,Q,a,"] + want) + "\n"


def test_write_table_rejects_columns_it_cannot_print(tmp_path):
    with pytest.raises(ValueError, match="one length"):
        write_table(tmp_path / "t.csv", "a,b", [[1, 2], [1.0]])
    with pytest.raises(TypeError, match="Cannot cast"):
        write_table(tmp_path / "t.csv", "a", [["x"]])


def adversarial_columns():
    """An int64 and a float64 column, 10**5 random rows and the edges of
    each format: random bit patterns (every exponent, subnormals, NaNs
    with payloads), +-0.0, nan, +-inf, repr's switches to exponent form
    at 1e16 and 1e-4, 2**53 +- 1, the extremes of the doubles and of int64."""
    gen = np.random.default_rng(24)
    bits = gen.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    tiny, big = 5e-324, sys.float_info.max
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e16, 1e16 - 2.0,
             np.nextafter(1e16, 0.0), np.nextafter(1e16, math.inf), 1e-4,
             np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e-5, 9999999999999998.0,
             2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 - 1), tiny, -tiny,
             sys.float_info.min, np.nextafter(sys.float_info.min, 0.0), big, -big,
             1.0, -1.0, 0.1, 0.30000000000000004, 1 / 3, 123456789.0, 1e22, 1e-7]
    floats = np.concatenate([bits.view(np.float64), edges])
    info = np.iinfo(np.int64)
    ints = gen.integers(info.min, info.max, floats.size, dtype=np.int64, endpoint=True)
    ints >>= gen.integers(0, 64, floats.size)       # every magnitude
    ints[:8] = [info.min, info.min + 1, info.max, info.max - 1, -1, 0, 1, -10]
    return ints, floats


def test_kernel_formatter_gives_the_python_bodys_bytes_on_adversarial_values(monkeypatch):
    if kernel.formatter() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    ints, floats = adversarial_columns()
    columns = [ints, floats, GridAxis(7, 5), -floats, None]

    def written():
        out = io.StringIO()
        write_table(out, "i,x,g,y,", columns)
        return out.getvalue()

    kernel_bytes = written()
    monkeypatch.setattr(kernel, "formatter", lambda: None)
    assert written() == kernel_bytes
    # and both are %d and repr, row by row
    want = "".join("%d,%r,%d,%r,\n" % (i, x, r // 7 % 5, -x)
                   for r, (i, x) in enumerate(zip(ints.tolist(), floats.tolist())))
    assert kernel_bytes == "i,x,g,y,\n" + want


def fixed_notation_floats():
    """Floats in the kernel formatter's own range, [1e-4, 2**53), where repr
    is in fixed notation, with both signs: random mantissas at every binary
    exponent, every power of two (the narrower gap below it), mantissas with
    one to three bits set, decimals of each length from 1 to 17 digits (which
    give ties in the last digit), the neighbours of all of these, and the
    range's edges with +-0.0 outside it."""
    gen = np.random.default_rng(32)
    exponents = np.arange(1023 - 14, 1023 + 53, dtype=np.uint64)[:, None] << np.uint64(52)
    few = np.bitwise_or.reduce(np.uint64(1) << gen.integers(0, 52, (67, 40, 3), dtype=np.uint64),
                               axis=-1)
    mantissas = np.hstack([np.zeros((67, 1), np.uint64), few,
                           gen.integers(0, 2**52, (67, 200), dtype=np.uint64)])
    binary = (exponents | mantissas).view(np.float64).ravel()
    draws = (gen.uniform(1, 10, 17_000) * 10.0 ** gen.integers(-4, 16, 17_000)).tolist()
    decimal = [float("%.*g" % (1 + i % 17, x)) for i, x in enumerate(draws)]
    x = np.concatenate([binary, decimal])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)])
    edges = [np.nextafter(1e-4, 0.0), 1e-4, 2.0**53 - 1, 2.0**53, 0.0, -0.0]
    return np.concatenate([x, -x, edges])


@pytest.mark.parametrize("body", ["kernel", "python"])
def test_write_table_prints_repr_across_the_fixed_notation_range(body, monkeypatch):
    if body == "kernel" and kernel.formatter() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    if body == "python":
        monkeypatch.setattr(kernel, "formatter", lambda: None)
    floats = fixed_notation_floats()
    assert ((np.abs(floats) >= 1e-4) & (np.abs(floats) < 2.0**53)).mean() > 0.9
    out = io.StringIO()
    write_table(out, None, [floats])
    got, want = out.getvalue().splitlines(), ["%r" % x for x in floats.tolist()]
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


def test_kernel_formatter_fills_chunks_with_its_longest_cells():
    # the kernel's own longest float cell has 23 characters, as
    # -0.00012345678901234567 does (CELL_MAX in _kernel.c); rows of four
    # such cells fill several CHUNK_BYTES buffers, each to its last row
    if kernel.formatter() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    draws = -np.random.default_rng(33).uniform(1e-4, 1e-3, 100_000)
    rows = draws[[len(repr(x)) == 23 for x in draws.tolist()]][:24_000].reshape(-1, 4)
    out = io.StringIO()
    write_table(out, None, list(rows.T))
    want = "".join("%r,%r,%r,%r\n" % tuple(row) for row in rows.tolist())
    assert len(rows) == 6_000 and len(want) > 4 * CHUNK_BYTES
    assert out.getvalue() == want


@pytest.mark.parametrize("body", ["kernel", "python"])
def test_writing_episodes_csv_holds_one_chunk_whatever_the_run_length(body, monkeypatch,
                                                                     tmp_path):
    # the H = 10 JAO chain, every episode kept: writing 80,000 rows peaks at
    # what 20,000 do, plus a small constant, in either body of write_table
    # (whole columns of Python numbers or of text would add megabytes)
    if body == "kernel" and kernel.formatter() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    tracemalloc = pytest.importorskip("tracemalloc")
    env = EnvSpec(kind="jao", H=10, jao_delta=0.4, jao_epsilon=0.1, env_seed=0)
    runs = {n: run_experiment(RunConfig(env=env, algo="advantage", episodes=n,
                                        log_every="all")) for n in (20_000, 80_000)}
    if body == "python":
        monkeypatch.setattr(kernel, "formatter", lambda: None)
    peaks = {}
    for n, res in runs.items():
        assert len(res.records) == n
        tracemalloc.start()
        try:
            write_episode_csv(res.records, tmp_path / "episodes.csv")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[80_000] <= peaks[20_000] + 32_768, peaks


def test_write_episode_csv_golden(tmp_path):
    recs = [EpisodeRecord(1, 0.5, 0.5, 0, 1, 0, 0),
            EpisodeRecord(2, 0.25, 0.75, 3, 2, 1, 0)]
    path = tmp_path / "ep.csv"
    write_episode_csv(recs, path)
    assert path.read_text() == (EPISODE_CSV_HEADER + "\n"
                                "1,0.5,0.5,0,1,0,0\n"
                                "2,0.25,0.75,3,2,1,0\n")
