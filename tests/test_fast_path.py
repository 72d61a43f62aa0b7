"""Gate for the learner hot paths.

Every learner (advantage, hoeffding-stage with the reference route off,
and classic-qucb) runs its episodes, in stretches, in the compiled kernel,
which must reproduce the reference path (reference_episode, which is
sample_episode feeding observe) bit for bit: the same trajectories,
reports, tables, counters and stream position.  Recorded trajectories
(observe_trajectory, replay_into) always go through Python observe, on the
same tables the kernel writes.  Without a C compiler the learner runs the
reference path itself.  The `path` fixture (conftest.py) runs a test on the
kernel and again on that fallback, forced by patching the loader.  Every
learner keeps its greedy policy as a table refreshed on each Q write; after
every episode and every replayed trajectory it must equal np.argmax of Q.
"""

import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stageq import (AlgoConstants, ClassicQUcbLearner, EnvSpec, HoeffdingStageLearner,
                    InitialStates, OutOfRangeError, RunConfig, UcbAdvantageLearner,
                    backward_induction, kernel, make_jao_chain, make_random_mdp,
                    seeded_stream, validate)
from stageq import harness
from stageq.concurrent import replay_into
from stageq.metrics import Audit, OptimismTracker, PolicyValueCache
from test_cli import PINNED_RUN

ROOT = Path(__file__).resolve().parent.parent

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
# the reference route on every instance; off where it lowers Q; and
# classic-qucb, whose Q changes every episode, on every instance
FUSED_CASES = ([pytest.param(UcbAdvantageLearner, inst, id=inst[0]) for inst in INSTANCES]
               + [pytest.param(HoeffdingStageLearner, SHORT_H, id="noref-" + SHORT_H[0])]
               + [pytest.param(ClassicQUcbLearner, inst, id="qucb-" + inst[0])
                  for inst in INSTANCES])
QUCB_CB = 0.05
# desk-scale constants of the acceptance checks, and smaller ones that make
# the reference-advantage route bind from the first stage ends
CONSTANT_SETS = {"desk": dict(p=0.1, c1=1.2, c2=1.2, c3=0.06),
                 "tight": dict(p=0.5, c1=0.05, c2=0.05, c3=0.01)}
SEEDS = (0, 1)

TABLES = ("_q", "_v", "_vref", "_n", "_nchk", "_mu_chk", "_ups_chk", "_sig_chk",
          "_mu_ref", "_sig_ref", "_n_state", "_ref_fixed", "_greedy")
COUNTERS = ("stage_end_count", "q_update_count", "ref_fixed_count", "reference_wins")


def assert_greedy_current(lr):
    assert lr.greedy_actions_flat() == np.argmax(lr.q_array(), axis=2).ravel().tolist()


def make(cls, mdp, const, n_max):
    if cls is ClassicQUcbLearner:     # no visit horizon: it never raises
        return cls(mdp, const, cb=QUCB_CB)
    return cls(mdp, const, n_max=n_max)


def assert_same_state(fast, ref):
    for name in TABLES:   # classic-qucb has Q, V, N and the greedy table
        if hasattr(ref, name):
            assert getattr(fast, name) == getattr(ref, name), name
    for name in COUNTERS:
        assert getattr(fast, name) == getattr(ref, name), name


def assert_same_stream(rng_fast, rng_ref):
    # more than a block ahead: the same position, wherever blocks were drawn
    draws = 2 * rng_ref.BLOCK
    assert [rng_fast.random() for _ in range(draws)] == [rng_ref.random() for _ in range(draws)]


def uses_kernel(lr, path):
    return (lr._lib is not None) == (path == "kernel")


def test_kernel_is_built_where_a_compiler_is_found():
    # a broken build must not pass Tier-1 on the fallback alone
    if shutil.which("cc") is None and shutil.which("gcc") is None:
        pytest.skip("no C compiler on PATH")
    assert kernel.load() is not None
    assert kernel.library_path().is_file()
    mdp = make_random_mdp(2, 2, 2, seed=0)
    assert UcbAdvantageLearner(mdp)._lib is kernel.load()
    assert ClassicQUcbLearner(mdp)._lib is kernel.load()


def test_kernel_rejects_a_stream_without_blocks():
    # the kernel reads its uniforms in blocks (UniformStream.doubles); a
    # stream with only random() fails at the call rather than falling back
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")

    class RandomOnly:
        def random(self):
            return 0.5

    mdp = make_random_mdp(2, 2, 2, seed=0)
    for lr in make_all_learners(mdp, AlgoConstants(), n_max=100):
        with pytest.raises(AttributeError, match="doubles"):
            lr.run_episode(mdp, RandomOnly(), 0)
        with pytest.raises(AttributeError, match="doubles"):
            lr.run_stretch(mdp, RandomOnly(), 0, 5)


def check_episodes_match_reference(cls, inst, cset, seed):
    _, make_mdp, n0, K = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS[cset])
    fast = make(cls, mdp, const, K * mdp.H + 1)
    ref = make(cls, mdp, const, K * mdp.H + 1)
    rng_fast = seeded_stream(seed, 0, "env")
    rng_ref = seeded_stream(seed, 0, "env")
    for k in range(K):
        held = fast.greedy_actions_flat()
        before = list(held)
        traj, report = fast.run_episode(mdp, rng_fast, k)
        traj_ref, report_ref = ref.reference_episode(mdp, rng_ref, k)
        assert traj == traj_ref
        assert report == report_ref
        assert held == before  # a snapshot does not move with learning
        assert_greedy_current(fast)
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)
    assert fast.q_update_count > 0
    assert (fast.ref_fixed_count > 0) == getattr(fast, "reference", False)
    return fast


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cset", sorted(CONSTANT_SETS))
@pytest.mark.parametrize("cls,inst", FUSED_CASES)
def test_fused_episode_matches_reference_path(cls, inst, cset, seed):
    # run_episode as shipped: the kernel wherever it builds
    lr = check_episodes_match_reference(cls, inst, cset, seed)
    assert (lr._lib is None) == (kernel.load() is None)


def reference_stretch(lr, mdp, rng, first, count, stop):
    """count reference episodes from first, as run_stretch's (played,
    changed), and the last one's trajectory; every one but the last must be
    one that run_stretch plays through (no Q change, below stop)."""
    for k in range(first, first + count):
        traj, report = lr.reference_episode(mdp, rng, k)
        if k < first + count - 1:
            assert not report.q_changed
    assert first + count <= stop
    return (count, report.q_changed), traj


# jao-40 (fixed start states) crosses uniform-block boundaries (4096 is not
# a multiple of H=40) and runs long enough between Q changes to use up the
# kernel's uniforms; random-10x3x8 has seeded start states, and
# random-4x5x4 here cycles through 5 of them, so a start-state block does
# not begin at the start of the cycle
STRETCH_CASES = [INSTANCES[0], INSTANCES[2],
                 ("random-4x5x4", lambda: make_random_mdp(
                     4, 5, 4, seed=2, init=InitialStates.cyclic([0, 1, 2, 3, 1])), 200, 1500)]


@pytest.mark.parametrize("inst", STRETCH_CASES, ids=[c[0] for c in STRETCH_CASES])
def test_stretch_matches_reference_path(inst, path):
    _, make_mdp, n0, K = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["desk"])
    fast = UcbAdvantageLearner(mdp, const, n_max=K * mdp.H + 1)
    ref = UcbAdvantageLearner(mdp, const, n_max=K * mdp.H + 1)
    rng_fast = seeded_stream(0, 0, "env")
    rng_ref = seeded_stream(0, 0, "env")
    checkpoints = list(range(97, K, 97)) + [K]   # 1-based kept episode counts
    stops = Counter()
    crossed = 0
    k = 0
    while k < K:
        stop = next(c for c in checkpoints if c > k)
        unread = len(rng_fast._block) - rng_fast._i
        played, changed = fast.run_stretch(mdp, rng_fast, k, stop)
        expect, traj = reference_stretch(ref, mdp, rng_ref, k, played, stop)
        assert (played, changed) == expect
        if path == "kernel":   # built only on request
            assert fast._last_traj() == traj
        k += played
        crossed += unread < mdp.H   # the stretch's uniforms span two blocks
        if changed:
            stops["q"] += 1
        elif k == stop:
            stops["checkpoint"] += 1
        else:   # only the kernel ends a stretch early: where its uniforms
            assert path == "kernel"   # run short, or its block of start states
            if len(rng_fast._block) - rng_fast._i < mdp.H:
                stops["uniforms"] += 1
            else:
                assert k % 256 == 0
                stops["starts"] += 1
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)
    assert stops["q"] and stops["checkpoint"]
    assert (stops["starts"] > 0) == (path == "kernel")
    if inst is INSTANCES[0]:
        assert crossed > 0 and (stops["uniforms"] > 0) == (path == "kernel")


def check_raise_matches_reference(via):
    mdp = make_random_mdp(2, 2, 3, seed=0)
    const = AlgoConstants(**CONSTANT_SETS["tight"])

    def episodes_until_raise(play, lr):
        for k in range(100):
            try:
                play(lr, k)
            except OutOfRangeError as exc:
                return k, exc.n
        return None

    def stretch(lr, k):
        played, _ = lr.run_stretch(mdp, rng_fast, k, k + 1)
        assert played == 1

    fast = UcbAdvantageLearner(mdp, const, n_max=40)
    ref = UcbAdvantageLearner(mdp, const, n_max=40)
    rng_fast = seeded_stream(0, 0, "env")
    rng_ref = seeded_stream(0, 0, "env")
    play = stretch if via == "run_stretch" else (
        lambda lr, k: lr.run_episode(mdp, rng_fast, k))
    got = episodes_until_raise(play, fast)
    want = episodes_until_raise(
        lambda lr, k: lr.reference_episode(mdp, rng_ref, k), ref)
    assert got is not None and got == want and got[1] == 41
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)


def test_fused_episode_raises_like_reference_past_n_max():
    check_raise_matches_reference("run_episode")


@pytest.mark.parametrize("via", ["run_episode", "run_stretch"])
def test_out_of_range_raises_in_the_same_episode(via, path):
    check_raise_matches_reference(via)


def stretch_or_raise(lr, mdp, rng, first, stop):
    """run_stretch's (played, changed), or the visit count it raised at."""
    try:
        return lr.run_stretch(mdp, rng, first, stop)
    except OutOfRangeError as exc:
        return exc.n


def reference_or_raise(lr, mdp, rng, first, count, stop):
    try:
        return reference_stretch(lr, mdp, rng, first, count, stop)[0]
    except OutOfRangeError as exc:
        return exc.n


def check_observe_between_stretches(cls, path, n_max):
    _, make_mdp, n0, K = INSTANCES[2]
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["tight"])
    source = ClassicQUcbLearner(mdp, const, cb=0.05)
    rng = seeded_stream(1, 0, "env")
    trajs = [source.run_episode(mdp, rng, k)[0] for k in range(K)]
    fast = make(cls, mdp, const, n_max or 2 * K * mdp.H + 1)
    ref = make(cls, mdp, const, n_max or 2 * K * mdp.H + 1)
    assert uses_kernel(fast, path)
    rng_fast = seeded_stream(0, 0, "env")
    rng_ref = seeded_stream(0, 0, "env")
    # with a small n_max: a few trajectories, then stretches until one raises
    feed = len(trajs) if n_max is None else 5
    first_stretch = len(trajs) // 4 if n_max is None else 0
    k = stretches = 0
    for i, traj in enumerate(trajs):
        if i < feed:
            fast.observe_trajectory(traj)
            ref.observe_trajectory(traj)
        if i >= first_stretch:
            got = stretch_or_raise(fast, mdp, rng_fast, k, k + 20)
            count = 20 if isinstance(got, int) else got[0]
            assert got == reference_or_raise(ref, mdp, rng_ref, k, count, k + 20)
            stretches += 1
            if isinstance(got, int):
                assert got == n_max + 1
                break
            k += count
        assert_greedy_current(fast)
    else:
        assert n_max is None
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)
    assert stretches > 100 or n_max is not None
    assert fast.ref_fixed_count > 0 or not getattr(fast, "reference", False) or n_max


@pytest.mark.parametrize("cls", [UcbAdvantageLearner, HoeffdingStageLearner,
                                 ClassicQUcbLearner])
def test_replay_matches_python_observe(cls, path):
    # recorded trajectories of another learner go through Python
    # observe_trajectory on the same tables before and between kernel
    # stretches: the kernel's stage-end index has to catch up with visit
    # counts that passed several stage ends without it.  With a small
    # n_max a stretch raises OutOfRangeError at the same visit as the
    # reference path (the stage learners only: classic-qucb has no n_max).
    check_observe_between_stretches(cls, path, None)
    if cls is not ClassicQUcbLearner:
        check_observe_between_stretches(cls, path, 40)


def test_reference_wins_counts_only_reference_set_updates(path):
    # with a large c3 the Hoeffding target wins some stage ends, so the
    # counter sits strictly between 0 and q_update_count
    mdp = make_random_mdp(3, 4, 2, seed=3)
    const = AlgoConstants(p=0.5, c1=0.5, c2=0.5, c3=2.0, n0_override=100)
    fast = UcbAdvantageLearner(mdp, const)
    ref = UcbAdvantageLearner(mdp, const)
    noref = HoeffdingStageLearner(mdp, const)
    rngs = [seeded_stream(0, 0, "env") for _ in range(3)]
    for k in range(1500):
        fast.run_episode(mdp, rngs[0], k)
        ref.reference_episode(mdp, rngs[1], k)
        noref.run_episode(mdp, rngs[2], k)
    assert_same_state(fast, ref)
    assert (fast.q_update_count, fast.reference_wins) == (12, 10)
    assert noref.q_update_count > 0 and noref.reference_wins == 0


# The audited runs compared below: each instance with its episode count and
# the amount by which V*(s=1) is lowered (the lower_vstar fixture), so that
# the episodes from state 1 whose regret has fallen below it have negative
# regret.  init sends episodes 3, 8, 13, ... (1-based) to state 1, none a
# power of two.
AUDIT_ENVS = {
    "small": (EnvSpec(kind="random", S=3, A=2, H=5, env_seed=0,
                      init=InitialStates.cyclic([0, 0, 1, 2, 0])), 3000, 0.05),
    "wide": (EnvSpec(kind="random", S=50, A=5, H=20, env_seed=0,
                     init=InitialStates.cyclic([0, 0, 1, 2, 0])), 300, 3.2),
    "chain": (EnvSpec(kind="jao", H=40, jao_delta=0.4, jao_epsilon=0.1, env_seed=0,
                      init=InitialStates.cyclic([0, 0, 1, 0, 0])), 2000, 0.8),
}
# the first negative episode of each run, where learning gets one there;
# hoeffding-stage lowers Q only on the small instance, and its one update
# leaves the regret from state 1 above 1
FIRST_NEGATIVE = {("small", "advantage"): 38, ("small", "classic-qucb"): 13,
                  ("wide", "classic-qucb"): 278, ("chain", "advantage"): 168,
                  ("chain", "classic-qucb"): 43}


@pytest.mark.parametrize("algo", ["advantage", "hoeffding-stage", "classic-qucb"])
@pytest.mark.parametrize("inst", sorted(AUDIT_ENVS))
def test_audited_run_matches_fallback(monkeypatch, lower_vstar, inst, algo):
    # the whole audit loop, the kernel's against the Python body: every
    # kept row, the first negative-regret episode that strict mode reports
    # (off the pow2 cadence), the summary and the learner's tables.  With
    # a pow2 cadence the kernel plays many episodes per call between Q
    # changes, and the Python body one per call.
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    env, K, drop = AUDIT_ENVS[inst]
    lower_vstar(drop)
    negatives = []
    monkeypatch.setattr(harness, "enforce_invariants",
                        lambda result, negative=None: negatives.append(negative))
    cfg = RunConfig(env=env, algo=algo, episodes=K, seed=4, log_every="pow2",
                    strict=True, cb=0.01,
                    constants=AlgoConstants(n0_override=100, **CONSTANT_SETS["tight"]))
    results = {}
    for name in ("kernel", "fallback"):
        if name == "fallback":
            monkeypatch.setattr(kernel, "load", lambda: None)
        res = harness.run_experiment(cfg)
        lr = res.learner
        tables = [getattr(lr, t) for t in TABLES if hasattr(lr, t)]
        results[name] = (res.records, replace(res.summary, wall_time_s=0.0), tables)
        assert (lr._lib is None) == (name == "fallback")
    assert results["kernel"] == results["fallback"]
    pow2 = sorted({1 << i for i in range(K.bit_length())} | {K})
    assert [r.k for r in results["kernel"][0]] == pow2
    assert negatives == [FIRST_NEGATIVE.get((inst, algo))] * 2
    assert results["kernel"][1].q_updates > 0 or algo == "hoeffding-stage"


def test_kernel_audit_leaves_only_the_first_evaluation_to_python(monkeypatch):
    # with the kernel and NumPy's ddot, the cache's values() and evaluate()
    # run once (the first, full evaluation) and the optimism tracker's
    # update never: a run that fell back to the Python audit or the Python
    # layer loop fails here, not only in the benchmark
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    calls = Counter()

    def spy(cls, name):
        method = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        monkeypatch.setattr(cls, name, counted)

    spy(PolicyValueCache, "values")
    spy(PolicyValueCache, "evaluate")
    spy(OptimismTracker, "update")
    env = AUDIT_ENVS["small"][0]
    for algo in ("advantage", "hoeffding-stage", "classic-qucb"):
        calls.clear()
        res = harness.run_experiment(RunConfig(
            env=env, algo=algo, episodes=2000, log_every="pow2", cb=0.01,
            constants=AlgoConstants(n0_override=100, **CONSTANT_SETS["tight"])))
        assert res.learner._lib is not None
        assert res.summary.n_switch > 0 or algo == "hoeffding-stage"
        assert (calls["values"], calls["evaluate"], calls["update"]) == (1, 1, 0)


def numpy_blas():
    """The name of the BLAS NumPy was built with (scipy-openblas for wheels)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:          # NumPy < 1.25 only prints its config
        return None
    return config["Build Dependencies"]["blas"].get("name")


def test_kernel_finds_numpys_ddot_where_numpy_links_scipy_openblas():
    # without the pointer the kernel leaves V^pi's layers to Python and
    # every result stays the same, so only this test sees the loss
    if numpy_blas() != "scipy-openblas":
        pytest.skip(f"NumPy's BLAS is {numpy_blas()}, not scipy-openblas")
    assert kernel.ddot() is not None
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    mdp = make_random_mdp(2, 2, 2, seed=0)
    vstar, _ = backward_induction(mdp)
    assert Audit(ClassicQUcbLearner(mdp), mdp, vstar).fields.ddot == kernel.ddot()


def blas_core_types():
    """The OpenBLAS kernels (OPENBLAS_CORETYPE) this CPU can run, or [] unless
    NumPy's BLAS is scipy-openblas on x86-64: Prescott on any, Haswell where
    the CPU has AVX2."""
    if numpy_blas() != "scipy-openblas" or platform.machine() not in ("x86_64", "AMD64"):
        return []
    try:
        avx2 = " avx2 " in Path("/proc/cpuinfo").read_text().replace("\n", " ")
    except OSError:
        avx2 = False
    return ["Prescott"] + ["Haswell"] * avx2


# run in a child, so that OpenBLAS reads OPENBLAS_CORETYPE at its start:
# argv is the body ("kernel" or "fallback"), an output folder and the runs
# as JSON; prints whether the kernel summed V^pi's layers itself
BLAS_CHILD = """
import json, sys
from stageq import kernel
from stageq.cli import main
body, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if body == "fallback":
    kernel.load = lambda: None
for i, args in enumerate(runs):
    assert main(args + ["--out", f"{out}/{i}"]) == 0
print(json.dumps(kernel.load() is not None and kernel.ddot() is not None))
"""
WIDE_RUN = ["run", "--env", "random", "--S", "50", "--A", "5", "--H", "20", "--env-seed", "0",
            "--algo", "classic-qucb", "--cb", "0.01", "--episodes", "100", "--seed", "0"]


@pytest.mark.parametrize("core", blas_core_types() or [None])
def test_kernel_audit_matches_numpy_under_each_blas_kernel(tmp_path, core):
    # each OpenBLAS kernel adds a ddot's terms in an order of its own, and
    # the C layers call the one NumPy calls, so under every kernel the
    # kernel's episodes.csv equals the Python audit's (the bytes may differ
    # from one BLAS kernel to another)
    if core is None:
        pytest.skip("NumPy's BLAS is not scipy-openblas on x86-64")
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    runs = [PINNED_RUN, WIDE_RUN]
    for body in ("kernel", "fallback"):
        proc = subprocess.run([sys.executable, "-c", BLAS_CHILD, body, str(tmp_path / body),
                               json.dumps(runs)], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == (body == "kernel")
    for i in range(len(runs)):
        kernel_csv = (tmp_path / "kernel" / str(i) / "episodes.csv").read_bytes()
        assert kernel_csv == (tmp_path / "fallback" / str(i) / "episodes.csv").read_bytes()


# random instances at the sizes where BLAS kernels split their sums
# differently (seeded starts reach every state), and the criterion-6 chain
LAYER_ENVS = ([EnvSpec(kind="random", S=S, A=A, H=H, env_seed=S, init=InitialStates.seeded(S))
               for S, A, H in ((1, 3, 6), (2, 3, 6), (7, 3, 6), (16, 3, 5), (17, 3, 5),
                               (50, 2, 4), (129, 2, 3))]
              + [EnvSpec(kind="jao", H=40, jao_delta=0.4, jao_epsilon=0.1, env_seed=0)])
LAYER_IDS = [f"S{env.S}" if env.kind == "random" else "chain" for env in LAYER_ENVS]


@pytest.mark.parametrize("env", LAYER_ENVS, ids=LAYER_IDS)
def test_kernel_layers_match_the_python_layer_loop(monkeypatch, env):
    # V^pi after every call of the kernel, its layers summed in C through
    # NumPy's ddot against the same kernel leaving them to
    # PolicyValueCache.evaluate, bit for bit; then every row of a run
    # logging each episode against the Python audit body
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    mdp = env.build()
    vstar, _ = backward_induction(mdp)
    audits = {}
    for name in ("ddot", "evaluate"):
        if name == "evaluate":
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        lr = ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01)
        audits[name] = Audit(lr, mdp, vstar), seeded_stream(0, 0, "env")
    (a, rng_a), (b, rng_b) = audits["ddot"], audits["evaluate"]
    assert a.fields.ddot and not b.fields.ddot
    K, k, V, changes = 300, 0, a.cache._V.tobytes(), 0
    while k < K:
        played = a.stretch(rng_a, k, K)
        assert b.stretch(rng_b, k, K) == played
        k += played
        changes += V != a.cache._V.tobytes()
        V = a.cache._V.tobytes()
        assert V == b.cache._V.tobytes()
        assert a.cache._P_pi.tobytes() == b.cache._P_pi.tobytes()
        for field in ("reg", "cum_regret", "negative", "switches", "violations"):
            assert getattr(a.fields, field) == getattr(b.fields, field), field
    assert changes > 10
    monkeypatch.undo()
    runs = []
    for name in ("ddot", "evaluate", "fallback"):
        if name == "evaluate":
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        if name == "fallback":
            monkeypatch.setattr(kernel, "load", lambda: None)
        res = harness.run_experiment(RunConfig(env=env, algo="classic-qucb", episodes=K,
                                               seed=1, cb=0.01, log_every="all"))
        runs.append(res.records)
    assert runs[0] == runs[1] == runs[2] and len(runs[0]) == K


DDOT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                        ctypes.c_void_p, ctypes.c_int64)


def test_kernel_layer_loop_makes_numpys_calls_and_sums(monkeypatch):
    # the C layer loop with a stand-in ddot that logs its arguments and
    # returns -0.0: each policy change must recompute V[top], ..., V[0], one
    # call per row in that order with NumPy's arguments, and store
    # (0.0 + ddot) + r_pi as NumPy's DOUBLE_dot and evaluate's += do.  No
    # BLAS ddot returns -0.0 for these sums, so only a stand-in shows the
    # 0.0 start, which turns its -0.0 into 0.0 before the -0.0 rewards
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    calls = []

    @DDOT
    def logged(n, x, incx, y, incy):
        calls.append((n, x, incx, y, incy))
        return -0.0

    monkeypatch.setattr(kernel, "ddot", lambda: ctypes.cast(logged, ctypes.c_void_p).value)
    mdp = make_random_mdp(3, 2, 4, seed=0, init=InitialStates.cyclic([0, 1, 2]))
    mdp.r = np.full_like(mdp.r, -0.0)
    vstar, _ = backward_induction(mdp)
    audit = Audit(ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01), mdp, vstar)
    cache, S = audit.cache, mdp.S
    rows, V = cache._P_pi.ctypes.data, cache._V.ctypes.data
    rng, K, k, changes = seeded_stream(0, 0, "env"), 200, 0, 0
    while k < K:
        before = list(cache._flat)
        calls.clear()
        k += audit.stretch(rng, k, K)
        diff = [i for i, (a, b) in enumerate(zip(before, cache._flat)) if a != b]
        top = max(diff) // S if diff else -1
        assert calls == [(S, rows + 8 * (h * S + s) * S, 1, V + 8 * (h + 1) * S, 1)
                         for h in range(top, -1, -1) for s in range(S)]
        assert not np.signbit(cache._V).any()
        changes += top >= 0
    assert changes > 10 and audit.fields.top == -1


def test_rebinding_p_mid_run_raises():
    # a run's regret is measured against one MDP: reversing P halfway
    # through (which once left the audit on the old V*) raises at the
    # assignment, and the run goes on with the MDP it started with
    mdp = make_random_mdp(4, 3, 4, seed=3, init=InitialStates.cyclic([0, 1, 2, 3]))
    validate(mdp)
    vstar, _ = backward_induction(mdp)
    audit = Audit(ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01), mdp, vstar)
    rng, k, P = seeded_stream(0, 0, "env"), 0, mdp.P
    while k < 200:
        k += audit.stretch(rng, k, 200)
    with pytest.raises(AttributeError, match="EpisodicMdp.P"):
        mdp.P = mdp.P[..., ::-1].copy()
    assert mdp.P is P
    while k < 400:
        k += audit.stretch(rng, k, 400)
    assert audit.fields.cum_regret > 0


def test_kernel_points_into_the_frozen_mdp(tmp_path, monkeypatch):
    # validate turns a Fortran-ordered P into a C-ordered read-only float64
    # array once; the kernel then reads P, the cumulative rows and r in
    # place, with no copy of its own, and the run's bytes do not depend on
    # the order P was built in
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    runs = {}
    for order in ("F", "C"):
        def build():
            mdp = make_random_mdp(3, 2, 4, seed=0)
            return replace(mdp, P=np.asarray(mdp.P, order=order))

        mdp = build()
        assert mdp.P.flags.f_contiguous == (order == "F")
        validate(mdp)
        assert mdp.P.flags.c_contiguous and mdp.P.dtype == np.float64
        assert not mdp.P.flags.writeable and not mdp.r.flags.writeable
        lr = UcbAdvantageLearner(mdp, AlgoConstants())
        lr.run_stretch(mdp, seeded_stream(0, 0, "env"), 0, 3)
        k = lr._kstate
        assert (k.P, k.cum, k.mdp_rew) == (mdp.P.ctypes.data, mdp.cum_array().ctypes.data,
                                           mdp.r.ctypes.data)
        monkeypatch.setattr(EnvSpec, "build", lambda self: build())
        harness.run_experiment(RunConfig(algo="classic-qucb", episodes=300, cb=0.01,
                                         out_dir=str(tmp_path / order)))
        runs[order] = (tmp_path / order / "episodes.csv").read_bytes()
    assert runs["F"] == runs["C"]


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
    # replay every learner's trajectories into fresh learners through
    # Python observe
    updated = {}
    for lr in make_all_learners(mdp, const, len(recorded) * mdp.H + 1):
        for traj in recorded:
            replay_into(lr, traj)
            assert_greedy_current(lr)
        updated[lr.name] = lr.q_update_count > 0
    assert updated["advantage"] and updated["classic-qucb"]
    assert updated["hoeffding-stage"] or mdp.H > 2
