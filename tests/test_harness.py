import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import assert_view_matches

from stageq import (AlgoConstants, ConcurrentConfig, ConfigError,
                    DeterministicPolicy, EPISODE_CSV_HEADER, EnvSpec, EpisodeRecord,
                    InitialStates, InvariantViolation, OptimismTracker,
                    RunConfig, SwitchTracker,
                    backward_induction, build_concurrent_config,
                    build_run_config, check_optimism,
                    coerce_kv, make_learner, make_random_mdp, parse_kv_file,
                    policy_evaluation, run_experiment, save_mdp,
                    seeded_stream, sweep_scaling, switching_bound, validate)
from stageq import harness, kernel, metrics
from stageq.harness import (CONFIG_KEYS, UniformStream, checkpoint_regrets,
                            enforce_invariants, parse_init_spec)
from stageq.metrics import PolicyValueCache, write_episode_csv

REDUCED = AlgoConstants(p=0.1, c1=0.2, c2=0.2, c3=0.05)
ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------- streams

def test_seeded_stream_reproducible():
    a = seeded_stream(7, 0, "env")
    b = seeded_stream(7, 0, "env")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_seeded_stream_distinct_by_label_index_and_seed():
    base = [seeded_stream(7, 0, "env").random() for _ in range(8)]
    assert base != [seeded_stream(7, 0, "policy-pick").random() for _ in range(8)]
    assert base != [seeded_stream(7, 1, "env").random() for _ in range(8)]
    assert base != [seeded_stream(8, 0, "env").random() for _ in range(8)]


def test_uniform_stream_block_boundary_is_seamless():
    seq = np.random.SeedSequence(0)
    a = UniformStream(seq)
    direct = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0)))
    want = direct.random(UniformStream.BLOCK).tolist()
    want += direct.random(UniformStream.BLOCK).tolist()
    got = [a.random() for _ in range(UniformStream.BLOCK + 100)]
    assert got == want[:len(got)]


REST = UniformStream.BLOCK - 1   # unread in the first block after one draw


@pytest.mark.parametrize("m", [0, 1, REST - 5, REST, REST + 1, 3 * UniformStream.BLOCK])
def test_uniform_stream_skip_equals_m_draws(m):
    skipped, drawn = seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")
    skipped.random()
    drawn.random()
    skipped.skip(m)
    for _ in range(m):
        drawn.random()
    assert [skipped.random() for _ in range(10)] == [drawn.random() for _ in range(10)]
    assert skipped.random() == drawn.random()


def test_uniform_stream_skip_back_raises():
    # a negative skip would read a uniform already drawn a second time
    rng, ref = seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")
    for _ in range(3):
        rng.random()
        ref.random()
    with pytest.raises(ValueError, match="-2"):
        rng.skip(-2)
    assert rng.random() == ref.random()


def test_uniform_stream_integers_in_range():
    st = seeded_stream(0, 0, "pick")
    draws = [st.integers(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7


# --------------------------------------------------------------- env specs

def test_env_spec_build_kinds(tmp_path):
    assert EnvSpec(kind="random", S=4, A=3, H=2).build().S == 4
    jao = EnvSpec(kind="jao", H=40, jao_epsilon=0.1).build()
    assert (jao.S, jao.A, jao.H) == (2, 2, 40)
    mdp = make_random_mdp(2, 2, 2, seed=5)
    save_mdp(mdp, tmp_path / "m.mdp")
    spec = EnvSpec(kind="file", path=str(tmp_path / "m.mdp"),
                   init=InitialStates.fixed(1))
    loaded = spec.build()
    assert np.array_equal(loaded.P, mdp.P)
    # the start states are the runs', not the MDP's; they apply to files too
    assert not hasattr(loaded, "init")
    assert harness.Prepared(spec, "oracle", AlgoConstants(), 2.0, 1).init == spec.init
    with pytest.raises(ConfigError):
        EnvSpec(kind="nope").build()


# ------------------------------------------------------------------ oracle

def test_oracle_agent_zero_regret():
    env = EnvSpec(kind="random", S=3, A=2, H=4, env_seed=1)
    res = run_experiment(RunConfig(env=env, algo="oracle", episodes=200, seed=0))
    assert res.summary.cum_regret == pytest.approx(0.0, abs=1e-9)
    assert res.summary.n_switch == 0
    assert res.summary.q_updates == 0


def test_make_learner_dispatch():
    mdp = make_random_mdp(2, 2, 3, seed=0)
    for algo in ("advantage", "hoeffding-stage", "classic-qucb", "oracle"):
        lr = make_learner(algo, mdp, AlgoConstants(), n_max=1000)
        assert hasattr(lr, "run_episode")
    with pytest.raises(ValueError):
        make_learner("sarsa", mdp, AlgoConstants(), n_max=1000)


# -------------------------------------------------------------- run driver

def eager_reference_run(config):
    """Per-episode audit with NO lazy shortcuts; ground truth for records.

    Every episode evaluates its policy afresh with policy_evaluation and
    rescans every cell and row, so it shares no code with the cache's
    partial evaluation or the trackers' per-trajectory updates.
    """
    mdp = config.env.build()
    validate(mdp)
    tables, _ = backward_induction(mdp)
    learner = make_learner(config.algo, mdp, config.constants,
                           n_max=config.episodes * mdp.H + 1, cb=config.cb)
    rng = seeded_stream(config.seed, 0, "env")
    init = config.env.init or InitialStates.fixed(0)
    tracker = SwitchTracker()
    rows = []
    cum = 0.0
    viol = 0
    for k in range(1, config.episodes + 1):
        policy = learner.greedy_actions_flat()
        tracker.record(policy)
        vpi = policy_evaluation(mdp, DeterministicPolicy(
            np.asarray(policy).reshape(mdp.H, mdp.S)))
        traj, _ = learner.run_episode(mdp, rng, k - 1, init)
        s1 = traj[0][0]
        reg = float(tables.V[0, s1] - vpi.V[0, s1])
        cum += reg
        viol = max(viol, check_optimism(learner.q_array(), tables.Q))
        rows.append(EpisodeRecord(k, reg, cum, tracker.total, learner.q_update_count, viol,
                                  learner.ref_fixed_count))
    return rows


class CheckedOptimism(OptimismTracker):
    """Checks the incremental count against the full scan after each update."""

    def __init__(self, q_learner, q_star):
        super().__init__(q_learner, q_star)
        self.q_star = q_star
        self.counts = []

    def update(self, q_at, traj):
        count = super().update(q_at, traj)
        assert count == check_optimism(q_at.__self__.q_array(), self.q_star)
        self.counts.append(count)
        return count


SMALL_ENV = EnvSpec(kind="random", S=3, A=2, H=3, env_seed=2)
TIGHT = AlgoConstants(p=0.5, c1=0.05, c2=0.05, c3=0.01, n0_override=100)
WIDE_ENV = EnvSpec(kind="random", S=50, A=5, H=20, env_seed=0)
CHAIN_ENV = EnvSpec(kind="jao", H=40, jao_delta=0.4, jao_epsilon=0.1, env_seed=0)
DESK = dict(p=0.1, c1=1.2, c2=1.2, c3=0.06)


# per-variant scales chosen so q updates actually fire (lazy path non-vacuous);
# the wide and chain cases flip the greedy policy on many rows per change.
# The first three ids are the ones pytest generated before env and cb were
# parameters.  hoeffding-stage first lowers Q only at a short horizon.
@pytest.mark.parametrize("env,algo,constants,cb,episodes", [
    pytest.param(SMALL_ENV, "advantage", REDUCED, 2.0, 400,
                 id="advantage-constants0-400"),
    pytest.param(SMALL_ENV, "hoeffding-stage", AlgoConstants(p=0.999), 2.0, 1500,
                 id="hoeffding-stage-constants1-1500"),
    pytest.param(SMALL_ENV, "classic-qucb", REDUCED, 2.0, 400,
                 id="classic-qucb-constants2-400"),
    # with so small a bonus cells dip below Q* and climb back: the count falls
    pytest.param(SMALL_ENV, "classic-qucb", AlgoConstants(p=0.1), 0.01, 400,
                 id="classic-qucb-cb0.01-400"),
    pytest.param(WIDE_ENV, "classic-qucb", AlgoConstants(p=0.1), 0.01, 100,
                 id="classic-qucb-wide-cb0.01-100"),
    pytest.param(WIDE_ENV, "advantage", TIGHT, 2.0, 300, id="advantage-wide-300"),
    pytest.param(CHAIN_ENV, "advantage", AlgoConstants(n0_override=500, **DESK),
                 2.0, 2000, id="advantage-jao40-2000"),
    pytest.param(CHAIN_ENV, "classic-qucb", TIGHT, 0.01, 300,
                 id="classic-qucb-jao40-300"),
])
def test_lazy_audit_matches_eager_reference(monkeypatch, path, env, algo, constants,
                                            cb, episodes):
    # every row of the kernel's audit and of the Python audit against the
    # eager loop; the Python audit's optimism counts are also checked
    # against a full scan after each update
    trackers = []

    def checked(q_learner, q_star):
        trackers.append(CheckedOptimism(q_learner, q_star))
        return trackers[-1]

    monkeypatch.setattr(metrics, "OptimismTracker", checked)
    cfg = RunConfig(env=env, algo=algo, constants=constants, cb=cb,
                    episodes=episodes, seed=3)
    res = run_experiment(cfg)
    assert res.summary.q_updates > 0
    assert len(trackers) == 1 and bool(trackers[0].counts) == (path == "fallback")
    assert res.records == eager_reference_run(cfg)


@pytest.mark.parametrize("env,algo,constants,episodes", [
    pytest.param(SMALL_ENV, "advantage", REDUCED, 400, id="advantage-small"),
    pytest.param(CHAIN_ENV, "advantage", AlgoConstants(n0_override=500, **DESK), 2000,
                 id="advantage-jao40"),
    pytest.param(SMALL_ENV, "classic-qucb", REDUCED, 400, id="classic-qucb-small"),
])
def test_stretched_audit_matches_eager_reference(env, algo, constants, episodes):
    # with a sparse log cadence the learner plays multi-episode stretches
    # between kept rows; every kept row must still match the eager loop
    cfg = RunConfig(env=env, algo=algo, constants=constants, episodes=episodes,
                    seed=3, log_every="pow2", strict=True)
    res = run_experiment(cfg)
    kept = {1 << i for i in range(episodes.bit_length())} | {episodes}
    assert res.records == [row for row in eager_reference_run(cfg) if row.k in kept]
    assert res.summary.cum_regret == res.records[-1].cum_regret


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["advantage", "hoeffding-stage", "classic-qucb"]),
       st.integers(0, 5), st.integers(1, 300), st.integers(0, 3), st.data())
def test_episode_view_and_csv_match_the_reference_rows(path, tmp_path_factory, algo, env_seed,
                                                       episodes, seed, data):
    # a run logging every episode, on either body: its records view and
    # episodes.csv against the EpisodeRecord rows of the eager loop, and
    # write_episode_csv of those rows as a plain list
    cfg = RunConfig(env=replace(SMALL_ENV, env_seed=env_seed), algo=algo, episodes=episodes,
                    seed=seed, log_every="all", cb=0.01, constants=TIGHT,
                    out_dir=str(tmp_path_factory.mktemp("run")))
    res = run_experiment(cfg)
    rows = eager_reference_run(cfg)
    index, bound = st.integers(-episodes, episodes - 1), st.integers(-episodes - 2, episodes + 2)
    assert_view_matches(res.records, rows, {"at": [data.draw(index)],
                                            "slices": [(data.draw(bound), data.draw(bound))]})
    want = EPISODE_CSV_HEADER + "\n" + "".join(
        "%d,%r,%r,%d,%d,%d,%d\n" % (r.k, r.episode_regret, r.cum_regret, r.cum_switching_cost,
                                    r.cum_q_updates, r.cum_optimism_violations,
                                    r.ref_states_fixed) for r in rows)
    out = tmp_path_factory.mktemp("list") / "episodes.csv"
    write_episode_csv(rows, out)
    assert out.read_text() == want
    with open(f"{cfg.out_dir}/episodes.csv") as f:
        assert f.read() == want


def test_logged_rows_cost_56_bytes_each():
    # a run logging every episode keeps k and the four counts as int64 and
    # the two regrets as float64: 56 bytes a row, plus the columns' growth
    # slack, at 20,000 and at 80,000 episodes, and the tracemalloc peak
    # grows by no more per added row
    peaks = []
    for K in (20_000, 80_000):
        cfg = RunConfig(env=EnvSpec(kind="random", S=2, A=2, H=2), episodes=K, log_every="all")
        tracemalloc.start()
        res = run_experiment(cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(res.records) == K
        assert sum(map(sys.getsizeof, res.records.columns)) <= 60 * K
    assert peaks[1] - peaks[0] <= 60 * 60_000


def test_optimism_counts_only_entries_strictly_below_the_threshold(monkeypatch, path):
    # a Q* whose Q* - 1e-9 equals, bit for bit, the Q that the first
    # episode leaves on each cell it visits, and lies below Q everywhere
    # else: an entry equal to its threshold is not below it
    cfg = RunConfig(env=SMALL_ENV, algo="classic-qucb", episodes=1, cb=0.01)
    q = run_experiment(cfg).learner.q_array()
    H = q.shape[0]
    visited = q != (H - np.arange(H))[:, None, None]
    assert visited.sum() == H
    qstar = np.zeros((H + 1,) + q.shape[1:])
    for cell in zip(*np.nonzero(visited)):
        t = float(q[cell]) + 1e-9
        while t - 1e-9 > q[cell]:
            t = math.nextafter(t, -math.inf)
        while t - 1e-9 < q[cell]:
            t = math.nextafter(t, math.inf)
        qstar[cell] = t
    assert np.array_equal(q[visited], qstar[:H][visited] - 1e-9)
    solve = harness.backward_induction
    monkeypatch.setattr(harness, "backward_induction",
                        lambda mdp: (replace(solve(mdp)[0], Q=qstar), solve(mdp)[1]))
    res = run_experiment(cfg)
    assert res.learner.q_array().tobytes() == q.tobytes()
    assert res.records[-1].cum_optimism_violations == check_optimism(q, qstar) == 0


def test_summary_reports_reference_wins():
    env = EnvSpec(kind="random", S=3, A=4, H=2, env_seed=3)
    cfg = RunConfig(env=env, episodes=1500, seed=0, log_every="pow2",
                    constants=AlgoConstants(p=0.5, c1=0.5, c2=0.5, c3=2.0, n0_override=100))
    s = run_experiment(cfg).summary
    # of 12 Q updates, the Hoeffding target set 2 (tests/test_fast_path.py)
    assert (s.q_updates, s.reference_wins) == (12, 10)
    assert " q_updates=12 reference_wins=10 " in s.line()
    assert run_experiment(replace(cfg, algo="classic-qucb")).summary.reference_wins == 0


def test_records_are_cumulative_and_complete():
    env = EnvSpec(kind="random", S=3, A=2, H=5, env_seed=0)
    res = run_experiment(RunConfig(env=env, constants=REDUCED,
                                   episodes=300, seed=1, strict=True))
    recs = res.records
    assert [r.k for r in recs] == list(range(1, 301))
    for prev, cur in zip(recs, recs[1:]):
        assert cur.cum_regret >= prev.cum_regret - 1e-12
        assert cur.cum_switching_cost >= prev.cum_switching_cost
        assert cur.cum_q_updates >= prev.cum_q_updates
        assert cur.cum_optimism_violations >= prev.cum_optimism_violations
        assert cur.ref_states_fixed >= prev.ref_states_fixed
    s = res.summary
    assert s.steps == 300 * 5
    assert s.cum_regret == recs[-1].cum_regret
    assert s.n_switch == recs[-1].cum_switching_cost
    assert s.n_switch <= switching_bound(3, 2, 5, s.steps)


def test_run_is_deterministic_per_config():
    env = EnvSpec(kind="random", S=3, A=2, H=4, env_seed=4)
    cfg = RunConfig(env=env, algo="classic-qucb", episodes=150, seed=6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.records == b.records
    assert np.array_equal(a.learner.q_array(), b.learner.q_array())
    c = run_experiment(RunConfig(env=env, algo="classic-qucb", episodes=150, seed=7))
    assert not np.array_equal(a.learner.q_array(), c.learner.q_array())


def test_episodes_must_be_positive():
    with pytest.raises(ConfigError):
        run_experiment(RunConfig(episodes=0))


def test_strict_mode_flags_violations():
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    res = run_experiment(RunConfig(env=env, constants=REDUCED,
                                   episodes=200, seed=0, strict=True))
    # records is a read-only view: changing an item read from it changes
    # nothing, and the run still passes
    res.records[0].episode_regret = -1.0
    enforce_invariants(res)
    # a breach in records given as a plain list of rows, as the benchmark's
    # traced mode builds them
    row = replace(res.records[0], episode_regret=-1.0)
    with pytest.raises(InvariantViolation, match="k=1"):
        enforce_invariants(replace(res, records=[row]))


def test_strict_run_without_negative_regret_scans_no_rows(monkeypatch):
    # the audit noted no negative episode (0), so enforce_invariants does
    # not read the kept rows' columns again; a caller that passes no first
    # negative k (None) still has them scanned
    scans = []
    columns_of = metrics.Table.columns_of
    monkeypatch.setattr(metrics.Table, "columns_of",
                        staticmethod(lambda *args: scans.append(args) or columns_of(*args)))
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    res = run_experiment(RunConfig(env=env, constants=REDUCED, episodes=200, seed=0,
                                   log_every="all", strict=True))
    assert len(res.records) == 200 and scans == []
    enforce_invariants(res)
    assert len(scans) == 1


@pytest.mark.parametrize("starts", [[0, 0, 1, 0, 0, 0],
                                    [0, 0, 1, 0, 1, 0]])   # two: the first is named
def test_strict_mode_flags_negative_regret_on_unlogged_episode(lower_vstar, starts):
    # the episodes starting in state 1, where the substituted V* is 1.0 below
    # the optimal value, have negative regret, and neither the pow2 cadence
    # (1, 2, 4, 6) nor the sweep's checkpoints (2, 6) keep one
    lower_vstar(1.0)
    env = EnvSpec(S=2, H=3, init=InitialStates.cyclic(starts))
    cfg = RunConfig(env=env, algo="oracle", episodes=6, log_every="pow2")
    assert [r.k for r in run_experiment(cfg).records] == [1, 2, 4, 6]
    assert [T // 3 for T, _, _ in sweep_scaling(cfg, [1 / 3, 1.0], seeds=[0])] == [2, 6]
    with pytest.raises(InvariantViolation, match="at k=3$"):
        run_experiment(replace(cfg, strict=True))
    with pytest.raises(InvariantViolation, match="at k=3$"):
        sweep_scaling(replace(cfg, strict=True), [1 / 3, 1.0], seeds=[0])


# ------------------------------------------------------------------ sweeps

def test_sweep_prefix_property(monkeypatch):
    kept = []   # each seed's run keeps only its checkpoint rows
    audited_run = harness._audited_run

    def spy(*args):
        kept.append(audited_run(*args))
        return kept[-1]

    monkeypatch.setattr(harness, "_audited_run", spy)
    env = EnvSpec(kind="random", S=3, A=2, H=4, env_seed=1)
    cfg = RunConfig(env=env, algo="classic-qucb", episodes=200, seed=0)
    rows = sweep_scaling(cfg, [0.5, 1.0], seeds=[0, 1])
    assert [[r.k for r in res.records] for res in kept] == [[100, 200]] * 2
    by = {(T, seed): reg for T, seed, reg in rows}
    assert set(by) == {(400, 0), (800, 0), (400, 1), (800, 1)}
    # a fresh half-length run lands exactly on the checkpoint value
    half = run_experiment(RunConfig(env=env, algo="classic-qucb", episodes=100, seed=0))
    assert by[(400, 0)] == half.records[-1].cum_regret
    full = run_experiment(RunConfig(env=env, algo="classic-qucb", episodes=200, seed=1))
    assert by[(800, 1)] == full.records[-1].cum_regret


def test_checkpoint_regrets_picks_rows():
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    res = run_experiment(RunConfig(env=env, episodes=50, seed=0))
    marks = checkpoint_regrets(res.records, [1, 25, 50])
    assert marks[1] == res.records[0].cum_regret
    assert marks[25] == res.records[24].cum_regret
    assert marks[50] == res.records[49].cum_regret
    # on a thinned list rows are found by k, and a missing k raises
    assert checkpoint_regrets(res.records[::4], [25]) == {25: marks[25]}
    with pytest.raises(KeyError):
        checkpoint_regrets(res.records[::4], [24])


def sequential_sweep(config, ks, seeds):
    """sweep_scaling's rows from one run_experiment per seed, one after
    another, each logging every episode: the loop the threaded sweep must
    equal."""
    rows = []
    for seed in seeds:
        result = run_experiment(replace(config, episodes=ks[-1], seed=seed, log_every="all"))
        rows += [(k * result.mdp.H, seed, result.records[k - 1].cum_regret) for k in ks]
    return rows


def cpus(monkeypatch, n):
    """Have the process see n usable CPUs; returns the list of threads that
    sweep_scaling starts from then on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Spy)
    return started


@pytest.mark.parametrize("n_cpus", [3, 1])
@pytest.mark.parametrize("init", [InitialStates.seeded(5), InitialStates.cyclic([2, 0, 0, 1])],
                         ids=["seeded", "cyclic"])
def test_sweep_rows_equal_sequential_runs(monkeypatch, path, init, n_cpus):
    # 600 episodes read three blocks of start states, so a seeded init's
    # generator is advanced; each run must read its own copy of it
    cfg = RunConfig(env=EnvSpec(S=3, A=2, H=3, env_seed=4, init=init),
                    algo="classic-qucb", episodes=600, cb=0.05)
    seeds = [3, 0, 4, 1, 2]
    expect = sequential_sweep(cfg, [150, 300, 600], seeds)
    started = cpus(monkeypatch, n_cpus)
    inits = []
    audited_run = harness._audited_run

    def spy(shared, config, keep, init):
        inits.append(init)
        return audited_run(shared, config, keep, init)

    monkeypatch.setattr(harness, "_audited_run", spy)
    assert sweep_scaling(cfg, [0.25, 0.5, 1.0], seeds) == expect
    # without the kernel the Python body holds the GIL: no thread starts
    assert len(started) == (n_cpus - 1 if path == "kernel" else 0)
    assert not any(t.is_alive() for t in started)
    assert len(inits) == 5 and all(i == init and i is not init for i in inits)
    assert len(set(map(id, inits))) == 5


CHAIN_SWEEP = RunConfig(env=CHAIN_ENV, algo="advantage", episodes=600,
                        constants=AlgoConstants(n0_override=500, **DESK))


@pytest.mark.parametrize("seeds", [[0], [3, 0, 4, 1, 2]])
def test_sweep_builds_validates_and_solves_once(monkeypatch, path, seeds):
    # the seeds' runs read one prepared instance: however many seeds, a
    # sweep builds the chain once, checks it in one pass (with the kernel,
    # stageq_cum_rows, which flags no row of it, so NumPy's validate never
    # runs; without it, validate), solves it once and builds its stage-end
    # tables once, on the kernel and on the Python body alike
    import stageq.mdp as mdp_module
    from stageq import advantage
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, call)

    for owner, name in ((EnvSpec, "build"), (mdp_module, "validate"),
                        (harness, "backward_induction"), (advantage, "build_schedule")):
        counted(owner, name)
    if path == "kernel":
        counted(kernel.load(), "stageq_cum_rows")
    rows = sweep_scaling(CHAIN_SWEEP, [0.5, 1.0], seeds)
    assert len(rows) == 2 * len(seeds)
    check = {"stageq_cum_rows": 1} if path == "kernel" else {"validate": 1}
    assert calls == {"build": 1, "backward_induction": 1, "build_schedule": 1} | check
    assert not hasattr(harness.Prepared, "first")


def cache_buffers(cache):
    """A PolicyValueCache's table, rows of P and r, and V, as arrays."""
    return [np.frombuffer(cache._flat, dtype=np.int64), cache._P_pi, cache._r_pi, cache._V]


def prepared_tables(shared):
    """Every table of a prepared instance, as bytes (consts: the floats)."""
    mdp, stages = shared.mdp, shared.stages
    arrays = [mdp.P, mdp.r, mdp.cum_array(), shared.vstar.V, shared.vstar.Q,
              shared.pistar.actions]
    bufs = [stages.ends, stages.lower, stages.bbar]
    return ([a.tobytes() for a in arrays] + [b.tobytes() for b in bufs]
            + [stages.schedule.ends.tobytes(), repr(stages.consts)])


@pytest.mark.parametrize("init", [None, InitialStates.seeded(5)], ids=["fixed", "seeded"])
def test_sweep_leaves_the_prepared_instance_as_it_was_made(monkeypatch, path, init):
    # the runs share the instance's tables, the kernel through pointers,
    # and each audits with a policy cache of its own: after a 5-seed sweep
    # every table is byte for byte a freshly prepared instance's, the
    # instance holds no cache, the five runs' caches share no buffer, and
    # the caller's start states were never read (each run reads its own copy)
    prepared, made, caches = harness.Prepared, [], []
    init_cache = PolicyValueCache.__init__
    monkeypatch.setattr(harness, "Prepared", lambda *a, **kw: made.append(prepared(*a, **kw))
                        or made[-1])
    monkeypatch.setattr(PolicyValueCache, "__init__",
                        lambda self, mdp: caches.append(self) or init_cache(self, mdp))
    cfg = replace(CHAIN_SWEEP, env=replace(CHAIN_ENV, init=init))
    sweep_scaling(cfg, [0.5, 1.0], [3, 0, 4, 1, 2])
    assert len(made) == 1 and len(caches) == 5
    fresh = prepared(cfg.env, cfg.algo, cfg.constants, cfg.cb, cfg.episodes)
    assert prepared_tables(made[0]) == prepared_tables(fresh)
    assert not any(isinstance(v, PolicyValueCache) for v in vars(made[0]).values())
    assert not any(np.shares_memory(a, b) for i, run in enumerate(caches) for other in caches[:i]
                   for a, b in zip(cache_buffers(run), cache_buffers(other)))
    assert init is None or (init._last is None and init._gen is None)


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert harness._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert harness._usable_cpus() == 1


# every episode starts in state 1, and classic-qucb's first one with regret
# below 1e-3 is episode 34 under seed 3 and episode 23 under seed 4; seeds
# 0, 1, 2 and 5 have none in 60 episodes.  With V*(s=1) lowered by 1e-3
# (lower_vstar) those episodes' regrets are negative
FAIL_CFG = RunConfig(env=EnvSpec(S=3, A=2, H=3, env_seed=1, init=InitialStates.fixed(1)),
                     algo="classic-qucb", constants=REDUCED, cb=0.05, episodes=60,
                     strict=True)


@pytest.mark.parametrize("seeds, k, late", [([0, 1, 2, 3, 5], 34, None),
                                            ([3, 4], 34, 3),
                                            ([0, 4, 3], 23, 4)])
def test_strict_sweep_raises_the_first_failing_seeds_error(monkeypatch, path, lower_vstar,
                                                           seeds, k, late):
    # The run of seed late starts only after the run of the other failing
    # seed (3 or 4) has ended.  So with two failing seeds the one first in
    # seed order fails last, and its error must still be the one raised.
    # No thread's exception may escape: pytest would report a
    # PytestUnhandledThreadExceptionWarning, which the warning filter turns
    # into a failure.  Without the kernel no thread starts, and the seeds
    # play in order on the calling thread.
    lower_vstar(1e-3)
    with pytest.raises(InvariantViolation, match=f"at k={k}$"):
        sequential_sweep(FAIL_CFG, [30, 60], seeds)
    started = cpus(monkeypatch, 2)
    audited_run, other_ended = harness._audited_run, threading.Event()
    threads = path == "kernel"

    def spy(shared, config, keep, init):
        if config.seed == late and threads:
            other_ended.wait(timeout=60)
        try:
            return audited_run(shared, config, keep, init)
        finally:
            if config.seed in (3, 4) and config.seed != late:
                other_ended.set()

    monkeypatch.setattr(harness, "_audited_run", spy)
    with pytest.raises(InvariantViolation, match=f"at k={k}$"):
        sweep_scaling(FAIL_CFG, [0.5, 1.0], seeds)
    assert len(started) == threads and not any(t.is_alive() for t in started)
    assert late is None or other_ended.is_set() == threads


def test_no_seed_starts_once_a_strict_sweep_has_failed(monkeypatch, path, lower_vstar):
    # both threads take a seed (4, which fails, and 0) before either run
    # starts, and seed 0's run ends only after seed 4's has failed: seeds 1
    # and 2, not yet taken then, are never taken.  Without the kernel the
    # calling thread alone takes seed 4, and no other
    lower_vstar(1e-3)
    cpus(monkeypatch, 2)
    audited_run, runs = harness._audited_run, []
    both, failed = threading.Barrier(2, timeout=10), threading.Event()
    threads = path == "kernel"

    def spy(shared, config, keep, init):
        runs.append(config.seed)
        if threads:
            both.wait()
        try:
            return audited_run(shared, config, keep, init)
        finally:
            if config.seed == 4:
                failed.set()
            else:
                failed.wait(timeout=60)

    monkeypatch.setattr(harness, "_audited_run", spy)
    with pytest.raises(InvariantViolation, match="at k=23$"):
        sweep_scaling(FAIL_CFG, [0.5, 1.0], [4, 0, 1, 2])
    assert sorted(runs) == ([0, 4] if threads else [4])


def test_sweep_memory_is_bounded_by_its_threads(monkeypatch, path):
    # each worker keeps only its runs' checkpoint rows, so 8 seeds on 2
    # threads peak where 2 seeds do whose runs end together; a worker that
    # kept its RunResults (learner, MDP and solution, about 460 kB each),
    # or a run left in a reference cycle until the cyclic GC, would hold
    # up to 8 of them
    cpus(monkeypatch, 2)
    cfg = RunConfig(env=EnvSpec(S=20, A=4, H=10, env_seed=0), episodes=300)
    sweep_scaling(cfg, [1.0], [0])     # first-use allocations fall outside the peaks
    audited_run, both = harness._audited_run, threading.Barrier(2, timeout=60)

    def together(*args):
        result = audited_run(*args)
        if path == "kernel":           # no threads without the kernel
            both.wait()                # until the other run has ended too
        return result

    peaks = []
    for n, run in ((2, together), (8, audited_run)):
        monkeypatch.setattr(harness, "_audited_run", run)
        tracemalloc.start()
        rows = sweep_scaling(cfg, [0.5, 1.0], range(n))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(rows) == 2 * n
    assert peaks[1] - peaks[0] <= 100_000


def test_sweep_imports_neither_concurrent_futures_nor_logging():
    # concurrent.futures pulls in logging: about 5 ms of a 12 ms sweep
    code = ("import sys, stageq\n"
            "env = stageq.EnvSpec(S=2, A=2, H=3)\n"
            "stageq.sweep_scaling(stageq.RunConfig(env=env, episodes=50), [1.0], [0, 1])\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ------------------------------------------------------------- file output

def test_write_run_outputs_and_log_filter(tmp_path):
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    cfg = RunConfig(env=env, constants=REDUCED, episodes=20, seed=0,
                    out_dir=str(tmp_path / "o"), log_every="pow2")
    res = run_experiment(cfg)
    lines = (tmp_path / "o" / "episodes.csv").read_text().splitlines()
    ks = [int(row.split(",")[0]) for row in lines[1:]]
    # floor(log2 K) + 1 rows, plus the last episode unless K is a power of 2
    assert ks == [r.k for r in res.records] == [1, 2, 4, 8, 16, 20]
    res = run_experiment(replace(cfg, episodes=16, out_dir=None))
    assert [r.k for r in res.records] == [1, 2, 4, 8, 16]
    assert (tmp_path / "o" / "snapshot_q.csv").exists()
    v_lines = (tmp_path / "o" / "snapshot_v.csv").read_text().splitlines()
    assert v_lines[0] == "h,s,V,Vref"
    assert len(v_lines) == 1 + 3 * 2

    # a bad cadence is rejected before anything is built (this env raises)
    env = EnvSpec(kind="jao", H=8)
    for out_dir in (None, str(tmp_path / "bad")):
        with pytest.raises(ConfigError):
            run_experiment(RunConfig(env=env, log_every="every-third", out_dir=out_dir))


# ------------------------------------------------------------ config files

def test_parse_kv_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# a run\nenv = random\nS=3\nepisodes = 500  # half\n\n")
    assert parse_kv_file(p) == {"env": "random", "S": "3", "episodes": "500"}


@pytest.mark.parametrize("body,frag", [
    ("env random\n", ":1:"),
    ("= 3\n", "empty key"),
    ("S = 3\nS = 4\n", "duplicate key"),
])
def test_parse_kv_file_errors(tmp_path, body, frag):
    p = tmp_path / "bad.cfg"
    p.write_text(body)
    with pytest.raises(ConfigError) as ei:
        parse_kv_file(p)
    assert frag in str(ei.value)


def test_coerce_kv():
    got = coerce_kv({"S": "3", "beta": "0.5", "strict": "yes", "algo": "advantage"})
    assert got == {"S": 3, "beta": 0.5, "strict": True, "algo": "advantage"}
    assert coerce_kv({"agents": "4", "epsilon": "0.2"}) == {"agents": 4, "epsilon": 0.2}
    with pytest.raises(ConfigError) as ei:
        coerce_kv({"episodes": "many"})
    assert "episodes" in str(ei.value)
    with pytest.raises(ConfigError):
        coerce_kv({"banana": "1"})
    with pytest.raises(ConfigError):
        coerce_kv({"strict": "maybe"})


def test_build_run_config_routing(tmp_path):
    cfg = build_run_config({"env": "jao", "H": 40, "jao_epsilon": 0.05,
                            "algo": "hoeffding-stage", "episodes": 10,
                            "seed": 3, "c1": 0.5, "n0_override": 100.0})
    assert cfg.env.kind == "jao" and cfg.env.H == 40
    assert cfg.algo == "hoeffding-stage"
    assert cfg.constants.c1 == 0.5 and cfg.constants.n0_override == 100.0

    mdp = make_random_mdp(2, 2, 2, seed=0)
    path = tmp_path / "m.mdp"
    save_mdp(mdp, path)
    cfg = build_run_config({"env": str(path)})
    assert cfg.env.kind == "file" and cfg.env.path == str(path)
    cfg = build_run_config({"env": f"file:{path}"})
    assert cfg.env.kind == "file" and cfg.env.path == str(path)

    with pytest.raises(ConfigError):
        build_run_config({"algo": "dqn"})
    with pytest.raises(ConfigError):
        build_run_config({"p": 3.0})  # constants validation surfaces as config error


def test_empty_config_keeps_the_dataclass_defaults():
    assert build_run_config({}) == RunConfig()
    assert build_concurrent_config({}) == ConcurrentConfig()


def test_every_config_key_lands_on_its_field():
    # one value per key, none of them its field's default
    values = {"env": "jao", "S": 4, "A": 3, "H": 40, "sparsity": 0.5,
              "env_seed": 7, "jao_epsilon": 0.05, "delta": 0.3,
              "init": "cyclic:1,0", "algo": "classic-qucb", "p": 0.2,
              "c1": 0.3, "c2": 0.4, "c3": 0.6, "c4": 0.7, "cb": 1.5,
              "beta": 0.25, "n0_override": 99.0, "episodes": 12, "seed": 5,
              "log_every": "pow2", "strict": True, "out": "o", "agents": 6,
              "epsilon": 0.2, "c5": 3.0, "k_eps_override": 40.0}
    assert set(values) == set(CONFIG_KEYS)
    expect = dict(values, init=parse_init_spec("cyclic:1,0"))

    def by_section(cfg, cc):
        return {"env": cfg.env, "constants": cfg.constants, "run": cfg, "conc": cc}

    got = by_section(build_run_config(values), build_concurrent_config(values))
    default = by_section(RunConfig(), ConcurrentConfig())
    for key, row in CONFIG_KEYS.items():
        section, attr = row.field.split(".")
        assert getattr(got[section], attr) == expect[key], key
        assert getattr(default[section], attr) != expect[key], key


def test_build_config_rejects_bad_choices_and_keys():
    with pytest.raises(ConfigError, match="log_every"):
        build_run_config({"log_every": "sometimes"})
    with pytest.raises(ConfigError, match="banana"):
        build_run_config({"banana": 1})


def test_parse_init_spec():
    assert parse_init_spec("fixed:2").state(9, 4) == 2
    assert parse_init_spec("cyclic:1,0").state(1, 2) == 0
    assert parse_init_spec("seeded:5").kind == "seeded"
    with pytest.raises(ConfigError):
        parse_init_spec("warm:1")
    with pytest.raises(ConfigError):
        parse_init_spec("cyclic:a,b")
