"""Gate for the learner hot paths.

Every learner (advantage, hoeffding-stage with the reference route off,
classic-qucb, and the oracle, which never learns) runs its episodes, in stretches, in the compiled kernel,
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
import functools
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stageq
from stageq import (AlgoConstants, ClassicQUcbLearner, ConcurrentConfig, EnvSpec, EpisodicMdp,
                    HoeffdingStageLearner, InitialStates, NonStochasticRow, OracleAgent,
                    OutOfRangeError, RunConfig, UcbAdvantageLearner, backward_induction,
                    kernel, load_mdp, make_jao_chain, make_random_mdp,
                    run_concurrent_experiment, save_mdp, seeded_stream, validate)
from stageq import harness
from stageq.concurrent import replay_into
from stageq.mdp import DEFAULT_STARTS, START_BLOCK
from stageq.metrics import (Audit, OptimismTracker, PolicyValueCache, check_optimism,
                            write_table)
from test_cli import PINNED_RUN

ROOT = Path(__file__).resolve().parent.parent

FIXED_0 = InitialStates.fixed(0)
# (name, make_mdp, reference trigger N0, episodes, the runs' start states)
INSTANCES = [
    ("jao-40", lambda: make_jao_chain(40, epsilon=0.1, delta=0.4, seed=0), 500, 1500, FIXED_0),
    ("random-3x2x5", lambda: make_random_mdp(3, 2, 5, seed=0), 200, 2000, FIXED_0),
    ("random-10x3x8", lambda: make_random_mdp(10, 3, 8, seed=1), 100, 1500,
     InitialStates.seeded(3)),
    ("random-4x5x4", lambda: make_random_mdp(4, 5, 4, seed=2), 200, 1500,
     InitialStates.cyclic([0, 1, 2, 3])),
]
# hoeffding-stage first lowers a Q entry once a stage is longer than about
# 4 H^2 iota samples, which only a short horizon reaches in a test-sized run
SHORT_H = ("random-3x4x2", lambda: make_random_mdp(3, 4, 2, seed=3), 100, 1000, FIXED_0)
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


def test_kernel_flags_keep_pythons_rounding_and_compile_warning_free(tmp_path):
    # no fused multiply-add and no fast-math reassociation, so every
    # rounding is Python's; and no -march=native, since the library's cache
    # key names no CPU and a shared home directory could load a library
    # built for another instruction set
    assert "-ffp-contract=off" in kernel.FLAGS
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations",
                "-march=native"} & set(kernel.FLAGS)
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler on PATH")
    done = subprocess.run([cc, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernel.so"), str(kernel.SOURCE), "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # both entry points, the episode loop and the table formatter, were built
    assert {"stageq_stretch", "stageq_format_rows"} <= dynamic_symbols(tmp_path / "kernel.so")[0]


def dynamic_symbols(library):
    """(defined, undefined): the names in a shared library's dynamic symbol
    table (objdump -T), split by whether the library defines them."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("no objdump on PATH")
    done = subprocess.run([objdump, "-T", str(library)], capture_output=True, text=True,
                          check=True)
    defined, undefined = set(), set()
    for line in done.stdout.splitlines():
        cells = line.split()
        if cells and re.fullmatch(r"[0-9a-f]{8,16}", cells[0]):     # a symbol's address
            (undefined if "*UND*" in cells else defined).add(cells[-1])
    return defined, undefined


def test_kernel_links_no_python_symbol_and_formats_under_the_gil():
    # the formatter reaches CPython's repr routine through pointers that
    # kernel.py passes in, so the library links against no libpython; and
    # that routine needs the GIL, which a PyDLL function holds
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    defined, undefined = dynamic_symbols(kernel.library_path())
    assert "stageq_format_rows" in defined and "strlen" in undefined
    assert not [name for name in undefined if name.lstrip("_").startswith("Py")]
    fmt = kernel.formatter()
    assert fmt.func._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert not kernel.load().stageq_stretch._flags_ & ctypes._FUNCFLAG_PYTHONAPI
    assert fmt.args == tuple(ctypes.cast(f, ctypes.c_void_p).value for f in (
        ctypes.pythonapi.PyOS_double_to_string, ctypes.pythonapi.PyMem_Free))


def test_kernel_formatter_calls_cpython_only_outside_its_fixed_notation_range(tmp_path,
                                                                            monkeypatch):
    # the kernel writes repr itself for 1e-4 <= |x| < 2**53 and hands every
    # other float to the to_string it is given, here a counting stand-in for
    # PyOS_double_to_string: never for qucb-wide's three files at seed 0
    # (perfbench/worker.py's workload, checked against its recorded digests),
    # once for each value outside the range
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    signature = (ctypes.c_void_p, ctypes.c_double, ctypes.c_char, ctypes.c_int, ctypes.c_int,
                 ctypes.c_void_p)
    address = ctypes.cast(ctypes.pythonapi.PyOS_double_to_string, ctypes.c_void_p).value
    to_string, passed = ctypes.PYFUNCTYPE(*signature)(address), []

    def counting(x, *args):
        passed.append(x)
        return to_string(x, *args)

    stand_in = ctypes.CFUNCTYPE(*signature)(counting)
    monkeypatch.setattr(kernel, "formatter", lambda: functools.partial(
        kernel.load().stageq_format_rows, ctypes.cast(stand_in, ctypes.c_void_p).value,
        ctypes.cast(ctypes.pythonapi.PyMem_Free, ctypes.c_void_p).value))
    res = harness.run_experiment(RunConfig(
        env=EnvSpec(kind="random", S=50, A=5, H=20, env_seed=0), algo="classic-qucb",
        constants=AlgoConstants(p=0.1), cb=0.01, episodes=800, seed=0, log_every="all"))
    harness.write_run_outputs(res, tmp_path)
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == recorded["digests"]["qucb-wide"]["0"]
    assert passed == []
    outside = [0.0, 5e-324, 1e-5, math.nextafter(1e-4, 0.0), 2.0**53, 1e300, math.inf, math.nan]
    floats = np.array([0.5, *outside, 1e-4, 2.0**53 - 1])
    out = io.StringIO()
    write_table(out, None, [floats])
    assert out.getvalue() == "".join("%r\n" % x for x in floats.tolist())
    assert list(map(repr, passed)) == list(map(repr, outside))


def c_struct_fields(source: str, name: str):
    """(field, kind) of each declarator of `typedef struct { ... } name;` in
    C source, in order; kind is "pointer" (data or function), or the type."""
    body = re.search(r"typedef struct \{([^{}]*)\} %s;" % name, source).group(1)
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        func = re.search(r"\(\s*\*\s*(\w+)\s*\)\s*\(", decl)
        if func:
            fields.append((func.group(1), "pointer"))
            continue
        base = decl.split(",")[0].replace("*", " ").split()[-2]
        for part in decl.split(","):
            fields.append((re.search(r"(\w+)\s*$", part).group(1),
                           "pointer" if "*" in part else base))
    return fields


def test_kernel_learner_mirrors_the_c_struct_field_by_field():
    # the library checks only sizeof(Learner), which two swapped 8-byte
    # fields keep: every field must have its C name, place and kind
    kinds = {ctypes.c_void_p: "pointer", ctypes.c_double: "double", ctypes.c_int64: "int64_t"}
    want = c_struct_fields(kernel.SOURCE.read_text(), "Learner")
    assert [(name, kinds[ctype]) for name, ctype in kernel.Learner._fields_] == want
    assert ("ddot", "pointer") in want and ("row_counts", "pointer") in want
    assert [(name, kinds[ctype]) for name, ctype in kernel.Column._fields_] == \
        c_struct_fields(kernel.SOURCE.read_text(), "Column")


def test_kernel_modes_follow_the_c_enum():
    # the struct-size check at load cannot see a mode added on one side
    # only, or two modes swapped: kernel.py's MODE_* names, in their
    # numeric order 0, 1, ..., must be the C enum's list; so must the
    # table formatter's COL_* column kinds
    for prefix in ("MODE_", "COL_"):
        enum = re.search(r"enum \{\s*(%s\w+(?:\s*,\s*%s\w+)*)\s*\}" % (prefix, prefix),
                         kernel.SOURCE.read_text()).group(1)
        modes = sorted((value, name) for name, value in vars(kernel).items()
                       if name.startswith(prefix))
        assert [name for _, name in modes] == re.split(r"\s*,\s*", enum)
        assert [value for value, _ in modes] == list(range(len(modes)))


def test_kernel_rejects_a_stream_not_drawn_from_pcg64():
    # the kernel steps PCG64's state in place; a stream on another bit
    # generator raises at the call rather than having its memory read
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    mdp = make_random_mdp(2, 2, 2, seed=0)
    for lr in make_all_learners(mdp, AlgoConstants(), n_max=100):
        for play in (lambda rng: lr.run_episode(mdp, rng, 0),
                     lambda rng: lr.run_stretch(mdp, rng, 0, 5),
                     lambda rng: lr.run_rounds(mdp, rng, 0, 2, 0, 4, [])):
            rng = seeded_stream(0, 0, "env")
            rng.generator = np.random.Generator(np.random.MT19937(0))
            with pytest.raises(TypeError, match="PCG64 stream, not MT19937"):
                play(rng)
            assert lr.q_update_count == 0


def kernel_and_reference(monkeypatch, cls, mdp, const, n_max):
    """A learner on the kernel, and its twin on the Python path."""
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    fast = make(cls, mdp, const, n_max)
    with monkeypatch.context() as m:
        m.setattr(kernel, "load", lambda: None)
        ref = make(cls, mdp, const, n_max)
    return fast, ref


# the modules that bind START_BLOCK, each of which the small_blocks fixture
# patches, and its block: a multiple of 256, so no start state changes
BLOCK_MODULES = ("stageq.mdp", "stageq.base", "stageq.metrics")
SMALL_BLOCK = 256


@pytest.fixture
def small_blocks(monkeypatch):
    """START_BLOCK at SMALL_BLOCK everywhere, so that a short run crosses
    many block ends; returns the block size.  A test that uses it passes
    fresh InitialStates (replace(init)) to every call: a shared one keeps
    the last block it read, whose short length would outlive the patch."""
    shared = [DEFAULT_STARTS, *(inst[4] for inst in GREEDY_INSTANCES)]
    cached = [init._last for init in shared]
    for name in BLOCK_MODULES:
        monkeypatch.setattr(f"{name}.START_BLOCK", SMALL_BLOCK)
    yield SMALL_BLOCK
    assert all(init._last is last for init, last in zip(shared, cached)), \
        "a shared InitialStates read a short block: pass replace(init)"


def test_small_blocks_patches_every_module_that_binds_start_block():
    names = ["stageq", *(name for _, name, _ in pkgutil.iter_modules(stageq.__path__, "stageq."))]
    bound = [name for name in names if "START_BLOCK" in vars(importlib.import_module(name))]
    assert sorted(bound) == sorted(BLOCK_MODULES)


def assert_generator_stepped(rng, before, lr):
    """rng's PCG64 state is `before` advanced by the uniforms that lr's last
    kernel call drew past the buffer's tail."""
    k = lr._kstate
    want = np.random.PCG64()
    want.state = before
    want.advance(max(0, k.used - k.u_avail))
    assert rng.generator.bit_generator.state == want.state


def lead_stream(lead):
    """A stream read as `lead` says, and the unread uniforms left in its
    buffer: its first one ("within"), all but 7 by random() or by skip(),
    or skipped past its buffer ("advance")."""
    rng = seeded_stream(4, 0, "env")
    rng.random()
    if lead == "random":
        for _ in range(rng.BLOCK - 8):
            rng.random()
    elif lead == "skip":
        rng.skip(rng.BLOCK - 8)
    elif lead == "advance":
        rng.skip(rng.BLOCK + 1000)
    return rng, {"within": rng.BLOCK - 1, "advance": 0}.get(lead, 7)


@pytest.mark.parametrize("lead", ["within", "random", "skip", "advance"])
@pytest.mark.parametrize("cls", [UcbAdvantageLearner, ClassicQUcbLearner])
def test_kernel_draws_are_generator_random(cls, lead, monkeypatch):
    # each one-episode call reads what is left of the buffer's tail, then
    # steps the generator's state itself: calls stay in the tail ("within"),
    # or the first crosses from it onto the generator and the rest draw
    # from the generator alone; the reference reads every uniform through
    # random(), that is Generator.random, and the state after each call is
    # the one that advancing by the uniforms drawn past the tail gives
    _, make_mdp, n0, _, init = INSTANCES[2]
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["tight"])
    fast, ref = kernel_and_reference(monkeypatch, cls, mdp, const, 10_000)
    (rng_fast, tail), (rng_ref, _) = lead_stream(lead), lead_stream(lead)
    for k in range(60):
        before = rng_fast.generator.bit_generator.state
        got = fast.run_episode(mdp, rng_fast, k, init)
        assert got == ref.reference_episode(mdp, rng_ref, k, init)
        assert fast._kstate.u_avail == max(0, tail - k * mdp.H)
        assert_generator_stepped(rng_fast, before, fast)
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)


@pytest.mark.parametrize("tail", [3, 13, 40])
def test_kernel_round_skip_crosses_the_tail(tail, monkeypatch):
    # classic-qucb changes Q in every episode, so each round of M = 4 plays
    # one episode (H = 8 uniforms) and skips 24; with 13 left in the buffer
    # the first skip starts in the tail and ends on the generator, with 3
    # the first episode crosses, and with 40 the second skip does
    _, make_mdp, n0, _, init = INSTANCES[2]
    mdp = make_mdp()
    fast, ref = kernel_and_reference(monkeypatch, ClassicQUcbLearner, mdp,
                                     AlgoConstants(n0_override=n0), None)
    rng_fast, rng_ref = (seeded_stream(4, 0, "env") for _ in range(2))
    for rng in (rng_fast, rng_ref):
        rng.random()
        rng.skip(rng.BLOCK - 1 - tail)
    changes_fast, changes_ref = [], []
    generated = consumed = 0
    for limit in (2, 5, 40):
        before = rng_fast.generator.bit_generator.state
        got = fast.run_rounds(mdp, rng_fast, generated, 4, consumed, limit, changes_fast, init)
        assert got == ref.run_rounds(mdp, rng_ref, generated, 4, consumed, limit, changes_ref,
                                     init)
        assert_generator_stepped(rng_fast, before, fast)
        generated, consumed = generated + got[0], got[1]
        assert changes_fast == changes_ref == list(range(0, generated, 4))
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)


@pytest.mark.parametrize("first", [SMALL_BLOCK - 6, SMALL_BLOCK - 1, SMALL_BLOCK])
@pytest.mark.parametrize("cls", [UcbAdvantageLearner, ClassicQUcbLearner])
def test_python_calls_end_where_kernel_calls_do(cls, first, monkeypatch, small_blocks):
    # with blocks of 256 start states, from 6, 1 and 256 episodes before
    # the end of a block, on the kernel and on its Python twin alike (the
    # play and each stretch's stop pass a block's end): a stretch ends at
    # its first Q change or at its block's end, and a call of rounds of
    # M = 3 (250 and 256 start inside a round) at its block's end, or past
    # it after a skip (classic-qucb changes Q in every episode, so each of
    # its rounds skips); then one-episode calls, whose _last_traj is the
    # reference's trajectory
    _, make_mdp, n0, _, init = INSTANCES[2]
    mdp, init, B = make_mdp(), replace(init), small_blocks
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["desk"])
    span = B + 44      # episodes played from first, and each stretch's stop
    for play in ("stretch", "rounds"):
        fast, ref = kernel_and_reference(monkeypatch, cls, mdp, const, 10_000)
        rngs = seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")
        calls = []
        for lr, rng in zip((fast, ref), rngs):
            k, consumed, changes, ends = first, 0, [], []
            while k < first + span:
                if play == "stretch":
                    played, changed = lr.run_stretch(mdp, rng, k, k + span, init)
                else:
                    played, consumed = lr.run_rounds(mdp, rng, k, 3, consumed, 10_000,
                                                     changes, init)
                    changed = None
                ends.append((k, k + played, changed, consumed))
                k += played
            calls.append((ends, changes))
        assert calls[0] == calls[1]
        assert_same_state(fast, ref)
        assert_same_stream(*rngs)
        ends, changes = calls[0]
        # each call's end, whether it changed Q, and its block's end
        done = [(end, changed, (k // B + 1) * B) for k, end, changed, _ in ends]
        if play == "stretch":
            assert all(changed or end == block for end, changed, block in done)
            assert not all(changed for _, changed, _ in done) or cls is ClassicQUcbLearner
        else:
            assert all(block <= end < block + 3 for end, _, block in done)
            assert changes and (cls is UcbAdvantageLearner
                                or any(end > block for end, _, block in done))
    fast, ref = kernel_and_reference(monkeypatch, cls, mdp, const, 10_000)
    twin = make(cls, mdp, const, 10_000)
    rngs = [seeded_stream(1, 0, "env") for _ in range(3)]
    for k in range(first, first + 8):
        want = twin.reference_episode(mdp, rngs[2], k, init)
        for lr, rng in zip((fast, ref), rngs):
            assert lr.run_episode(mdp, rng, k, init) == want
            assert lr._last_traj() == want[0]


def check_episodes_match_reference(cls, inst, cset, seed):
    _, make_mdp, n0, K, init = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS[cset])
    fast = make(cls, mdp, const, K * mdp.H + 1)
    ref = make(cls, mdp, const, K * mdp.H + 1)
    rng_fast = seeded_stream(seed, 0, "env")
    rng_ref = seeded_stream(seed, 0, "env")
    for k in range(K):
        held = fast.greedy_actions_flat()
        before = list(held)
        traj, report = fast.run_episode(mdp, rng_fast, k, init)
        traj_ref, report_ref = ref.reference_episode(mdp, rng_ref, k, init)
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


def reference_stretch(lr, mdp, rng, first, count, stop, init=FIXED_0):
    """count reference episodes from first, as run_stretch's (played,
    changed), and the last one's trajectory; every one but the last must be
    one that run_stretch plays through (no Q change, below stop)."""
    for k in range(first, first + count):
        traj, report = lr.reference_episode(mdp, rng, k, init)
        if k < first + count - 1:
            assert not report.q_changed
    assert first + count <= stop
    return (count, report.q_changed), traj


# jao-40 (fixed start states) has a call that reads the tail of the
# stream's buffer and crosses onto the generator (4096 is not a multiple of
# H=40), whose state the kernel steps from then on; random-10x3x8 has seeded start
# states, and random-4x5x4 here cycles through 5 of them, so a start-state
# block does not begin at the start of the cycle
STRETCH_CASES = [INSTANCES[0], INSTANCES[2],
                 ("random-4x5x4", lambda: make_random_mdp(4, 5, 4, seed=2), 200, 1500,
                  InitialStates.cyclic([0, 1, 2, 3, 1]))]


@pytest.mark.parametrize("inst", STRETCH_CASES, ids=[c[0] for c in STRETCH_CASES])
def test_stretch_matches_reference_path(inst, path):
    _, make_mdp, n0, K, init = inst
    K = max(K, START_BLOCK + 300)     # past the end of the first block of start states
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
        played, changed = fast.run_stretch(mdp, rng_fast, k, stop, init)
        expect, traj = reference_stretch(ref, mdp, rng_ref, k, played, stop, init)
        assert (played, changed) == expect
        assert fast._last_traj() == traj
        # the stretch's uniforms begin in the first buffer and end past it
        crossed += k * mdp.H < rng_fast.BLOCK < (k + played) * mdp.H
        k += played
        if changed:
            stops["q"] += 1
        elif k == stop:
            stops["checkpoint"] += 1
        else:   # a stretch also ends at the end of its block of start states
            assert k % START_BLOCK == 0
            stops["starts"] += 1
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)
    assert stops["q"] and stops["checkpoint"] and stops["starts"]
    if inst is INSTANCES[0]:
        assert crossed > 0


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


@pytest.mark.parametrize("init", [InitialStates.seeded(3), InitialStates.fixed(1)],
                         ids=["seeded", "fixed"])
def test_negative_episode_index_raises(init, path):
    # episode -1 lies in block -1 of start states, which no kind has
    mdp = make_random_mdp(3, 2, 4, seed=0)
    lr = UcbAdvantageLearner(mdp, AlgoConstants(), n_max=100)
    rng = seeded_stream(0, 0, "env")
    with pytest.raises(ValueError, match="block index -1 "):
        lr.run_episode(mdp, rng, -1, init)
    assert lr.run_episode(mdp, rng, 0, init)[0][0][0] == init.state(0, 3)


def tail_stream(values):
    """A stream whose buffer holds values, repeated to fill it and all
    unread: a reader takes them in order before the generator draws any."""
    rng = seeded_stream(0, 0, "env")
    rng._buf[:] = np.resize(values, rng.BLOCK)
    rng._i = 0
    return rng


def edge_mdp(S, gen):
    """A validated 3-step, 2-action MDP over S states whose rows are three
    kinds: runs of zero entries (repeated cumulative values, a leading 0.0
    among them), partial sums that round above 1.0 before the forced last
    entry, and a point mass on state S // 2."""
    spread = gen.random(S) * (gen.random(S) < 0.6)
    spread[0] = 0.0
    spread[S // 2] += 0.5
    spread /= spread.sum()
    over = gen.random(S)
    over[(S + 1) // 2:] = 0.0
    over /= over.sum()
    over[0] += 5e-13
    point = np.zeros(S)
    point[S // 2] = 1.0
    assert S == 1 or np.cumsum(over)[-2] > 1.0
    rows = np.stack([spread, over, point])
    H, A = 3, 2
    mdp = EpisodicMdp(S=S, A=A, H=H, P=rows[gen.integers(3, size=(H, S, A))],
                      r=gen.random((H, S, A)))
    validate(mdp)
    return mdp


# S = 1 and 5 are counted whole; 17, 50 and 129 are halved first, and 35
# halves to [0, 17), a window of 17 entries that ends inside the row
@pytest.mark.parametrize("S", [1, 5, 17, 35, 50, 129])
@pytest.mark.parametrize("cls", [UcbAdvantageLearner, ClassicQUcbLearner])
def test_next_state_matches_bisect_on_edge_rows(cls, S, path):
    # the kernel halves a row to at most 16 entries and counts those <= u,
    # which is bisect_right only where the entries <= u form a prefix:
    # every uniform here is 0.0, 1 - 2**-53, an entry of some row (a tie,
    # which bisect_right passes) or a random one, and every one is drawn,
    # from the stream's buffered tail
    gen = np.random.default_rng(S)
    mdp, init = edge_mdp(S, gen), InitialStates.seeded(S)
    H, K = mdp.H, 300
    cum = mdp.cum_array()
    entries = np.unique(cum[cum < 1.0])
    values = np.concatenate([[0.0, 1.0 - 2.0**-53], entries, gen.random(len(entries))])
    gen.shuffle(values)
    assert len(values) <= K * H <= seeded_stream(0, 0, "env").BLOCK
    const = AlgoConstants(**CONSTANT_SETS["tight"])
    fast, ref = make(cls, mdp, const, K * H + 1), make(cls, mdp, const, K * H + 1)
    assert uses_kernel(fast, path)
    rng_fast, rng_ref = tail_stream(values), tail_stream(values)
    ties = 0
    for k in range(K):
        traj, report = fast.run_episode(mdp, rng_fast, k, init)
        traj_ref, report_ref = ref.reference_episode(mdp, rng_ref, k, init)
        assert (traj, report) == (traj_ref, report_ref)
        for h, (s, a, _r, s_next) in enumerate(traj_ref):
            u = values[(k * H + h) % len(values)]
            ties += s_next > 0 and cum[h, s, a, s_next - 1] == u
    assert_same_state(fast, ref)
    assert_same_stream(rng_fast, rng_ref)
    assert ties > 0 or S == 1


@pytest.mark.parametrize("source", ["hand-built", "loaded"])
def test_unvalidated_mdp_raises_at_the_first_draw(source, path, tmp_path):
    # [0.6, -0.4, 0.8] sums to 1, but its cumulative row [0.6, 0.2, 1.0]
    # decreases: at u = 0.3 bisect_right gives 2 and the kernel's count 1.
    # cum_array validates an MDP that validate has not passed, so both
    # paths raise validate's error instead of drawing
    P = np.full((1, 3, 1, 3), 0.25)
    P[..., 2] = 0.5
    P[0, 0, 0] = [0.6, -0.4, 0.8]
    mdp = EpisodicMdp(S=3, A=1, H=1, P=P, r=np.full((1, 3, 1), 0.5))
    if source == "loaded":
        save_mdp(mdp, tmp_path / "bad.mdp")
        mdp = load_mdp(tmp_path / "bad.mdp")
    raised = []
    for lr in (UcbAdvantageLearner(mdp), ClassicQUcbLearner(mdp)):
        assert uses_kernel(lr, path)
        for play in (lr.run_episode, lr.reference_episode):
            with pytest.raises(NonStochasticRow, match="negative entry -0.4") as exc:
                play(mdp, tail_stream([0.3]), 0)
            raised.append(str(exc.value))
    assert len(set(raised)) == 1


def stretch_or_raise(lr, mdp, rng, first, stop, init):
    """run_stretch's (played, changed), or the visit count it raised at."""
    try:
        return lr.run_stretch(mdp, rng, first, stop, init)
    except OutOfRangeError as exc:
        return exc.n


def reference_or_raise(lr, mdp, rng, first, count, stop, init):
    try:
        return reference_stretch(lr, mdp, rng, first, count, stop, init)[0]
    except OutOfRangeError as exc:
        return exc.n


def check_observe_between_stretches(cls, path, n_max):
    _, make_mdp, n0, K, init = INSTANCES[2]
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["tight"])
    source = ClassicQUcbLearner(mdp, const, cb=0.05)
    rng = seeded_stream(1, 0, "env")
    trajs = [source.run_episode(mdp, rng, k, init)[0] for k in range(K)]
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
            got = stretch_or_raise(fast, mdp, rng_fast, k, k + 20, init)
            count = 20 if isinstance(got, int) else got[0]
            assert got == reference_or_raise(ref, mdp, rng_ref, k, count, k + 20, init)
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
    # the whole audit loop, the kernel's against the Python audit's: every
    # kept row, the first negative-regret episode that strict mode reports
    # (off the pow2 cadence), the summary and the learner's tables.  Both
    # play many episodes per call, through Q changes and past kept k, up
    # to the end of a block of start states.
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
    assert negatives == [FIRST_NEGATIVE.get((inst, algo), 0)] * 2
    assert results["kernel"][1].q_updates > 0 or algo == "hoeffding-stage"


def count_kernel_calls(monkeypatch):
    """A Counter of the stageq_stretch calls of each kernel learner the
    harness makes, by learner (a sweep's threads count apart)."""
    calls = Counter()
    make = harness.make_learner

    def counting(*args, **kw):
        lr = make(*args, **kw)
        if lr._lib is None:
            return lr
        stretch = lr._stretch

        def counted(addr):
            calls[lr] += 1
            return stretch(addr)
        lr._stretch = counted
        return lr
    monkeypatch.setattr(harness, "make_learner", counting)
    return calls


@pytest.mark.parametrize("inst,algo", [("chain", "advantage"), ("wide", "classic-qucb")])
def test_every_row_matches_the_python_body(monkeypatch, small_blocks, inst, algo):
    # a run logging every episode: each row the kernel writes inside a call
    # that plays through Q changes, to the end of its block of start
    # states, against the Python audit's.  On the chain, refs_fixed also
    # moves in episodes that change no Q
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    env, K, _ = AUDIT_ENVS[inst]
    cfg = RunConfig(env=env, algo=algo, episodes=K, seed=4, log_every="all", cb=0.01,
                    constants=AlgoConstants(n0_override=100, **CONSTANT_SETS["tight"]))
    calls = count_kernel_calls(monkeypatch)
    rows = harness.run_experiment(cfg).records
    monkeypatch.setattr(kernel, "load", lambda: None)
    assert harness.run_experiment(cfg).records == rows
    assert [r.k for r in rows] == list(range(1, K + 1))
    changes = sum(a.cum_q_updates < b.cum_q_updates for a, b in zip(rows, rows[1:]))
    assert calls.total() == -(-K // small_blocks) and changes > 2 * calls.total()
    refs_alone = sum(a.cum_q_updates == b.cum_q_updates and a.ref_states_fixed < b.ref_states_fixed
                     for a, b in zip(rows, rows[1:]))
    assert (refs_alone > 0) == (inst == "chain")


def test_qucb_wide_makes_one_call_per_start_block_with_ddot(monkeypatch):
    # the benchmark's qucb-wide run, where classic-qucb changes Q in every
    # episode: with NumPy's ddot the kernel plays through the changes, one
    # call per block of START_BLOCK start states, so one for its 800
    # episodes; without it, a call ends at each Q change, and the rows are
    # the same
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    cfg = RunConfig(env=EnvSpec(kind="random", S=50, A=5, H=20, env_seed=0),
                    algo="classic-qucb", cb=0.01, episodes=800, log_every="all")
    runs, calls = {}, count_kernel_calls(monkeypatch)
    for name in ("ddot", "evaluate"):
        if name == "evaluate":
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        calls.clear()
        rows = harness.run_experiment(cfg).records
        changes = 1 + sum(a.cum_q_updates < b.cum_q_updates for a, b in zip(rows, rows[1:]))
        runs[name] = rows, calls.total(), changes
    assert runs["ddot"][0] == runs["evaluate"][0]
    assert runs["ddot"][1:] == (1, 800) and runs["evaluate"][1:] == (800, 800)


def test_chain_sweep_makes_two_audited_calls_per_seed(monkeypatch):
    # the benchmark's chain-sweep, at its full START_BLOCK: with NumPy's
    # ddot each seed's 6,000 audited episodes are two kernel calls, which
    # end at the first block's end and at the run's end, and its rows are
    # those of the calls that end at each Q change
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    cfg = RunConfig(env=EnvSpec(kind="jao", H=40, jao_delta=0.4, jao_epsilon=0.1, env_seed=0),
                    algo="advantage", episodes=6000, strict=True,
                    constants=AlgoConstants(n0_override=500, **CONSTANT_SETS["desk"]))
    assert -(-cfg.episodes // START_BLOCK) == 2
    sweeps, calls = [], count_kernel_calls(monkeypatch)
    for name in ("ddot", "evaluate"):
        if name == "evaluate":
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        calls.clear()
        sweeps.append(harness.sweep_scaling(cfg, [0.25, 0.5, 1.0], seeds=[0, 1]))
        if name == "ddot":
            assert sorted(calls.values()) == [2, 2]
    assert sweeps[0] == sweeps[1] and len(sweeps[0]) == 6
    assert sorted(calls.values())[0] > 2


def test_kernel_audit_leaves_no_evaluation_to_python(monkeypatch):
    # with the kernel and NumPy's ddot, the cache's values() and evaluate()
    # and the optimism tracker's update never run, the first table's
    # evaluation included, which the kernel's first call gathers and sums:
    # a run that fell back to the Python audit or the Python layer loop
    # fails here, not only in the benchmark
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    calls = Counter()

    def spy(cls, name):
        method = getattr(cls, name)

        def counted(self, *args, **kw):
            calls[name] += 1
            return method(self, *args, **kw)
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
        assert (calls["values"], calls["evaluate"], calls["update"]) == (0, 0, 0)


def test_kernel_audited_runs_never_build_the_python_layer_loop(monkeypatch):
    # evaluate()'s per-layer list is made at its first call: with the
    # kernel and NumPy's ddot, each seed's run makes one cache, whose first
    # table the kernel gathers and sums, and none makes the list
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    made, init = [], PolicyValueCache.__init__

    def kept(self, mdp):
        init(self, mdp)
        made.append(self)
    monkeypatch.setattr(PolicyValueCache, "__init__", kept)
    cfg = RunConfig(env=AUDIT_ENVS["small"][0], algo="classic-qucb", episodes=2000,
                    log_every="pow2", cb=0.01, constants=AlgoConstants(**CONSTANT_SETS["tight"]))
    rows = harness.sweep_scaling(cfg, [0.5, 1.0], seeds=[0, 1, 2])
    assert len(rows) == 6 and len(made) == 3
    assert not any("_layers" in vars(c) or -1 in c._flat for c in made)


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
# as JSON; prints whether the kernel summed V^pi's layers itself, and
# whether backward_induction of validated instances (C with the kernel)
# equals that of their unvalidated twins (NumPy) bit for bit
BLAS_CHILD = """
import json, sys
import numpy as np
from stageq import EpisodicMdp, backward_induction, kernel, make_random_mdp, validate
from stageq.cli import main
body, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if body == "fallback":
    kernel.load = lambda: None
for i, args in enumerate(runs):
    assert main(args + ["--out", f"{out}/{i}"]) == 0
same = []
for S, A, H in [(50, 5, 20), (129, 3, 10)]:
    mdp = make_random_mdp(S, A, H, seed=0)
    twin = EpisodicMdp(S=S, A=A, H=H, P=mdp.P.copy(), r=mdp.r.copy())
    validate(mdp)
    (c, c_pi), (ref, ref_pi) = backward_induction(mdp), backward_induction(twin)
    same.append([c.V.tobytes(), c.Q.tobytes(), c_pi.actions.tobytes()]
                == [ref.V.tobytes(), ref.Q.tobytes(), ref_pi.actions.tobytes()])
print(json.dumps([kernel.load() is not None and kernel.ddot() is not None, all(same)]))
"""
WIDE_RUN = ["run", "--env", "random", "--S", "50", "--A", "5", "--H", "20", "--env-seed", "0",
            "--algo", "classic-qucb", "--cb", "0.01", "--episodes", "100", "--seed", "0"]


@pytest.mark.parametrize("core", blas_core_types() or [None])
def test_kernel_audit_matches_numpy_under_each_blas_kernel(tmp_path, core):
    # each OpenBLAS kernel adds a ddot's terms in an order of its own, and
    # the C layers and the C solve call the one NumPy calls, so under every
    # kernel the kernel's episodes.csv equals the Python audit's, and its
    # solve the NumPy solve of the same process (the bytes may differ from
    # one BLAS kernel to another)
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
        assert json.loads(proc.stdout.splitlines()[-1]) == [body == "kernel", True]
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


FIELDS = ("reg", "cum_regret", "negative", "switches", "violations", "optimism", "pending")


def play_to(audit, rng, k, target, keep):
    """Audit.stretch from episode k until target; its calls may not pass it.
    Returns the rows they kept and the V^pi tables after each call."""
    n, tables = len(audit.records), []
    while k < target:
        k += audit.stretch(rng, k, target, keep)
        tables.append(audit.cache._V.tobytes())
    assert k == target
    return audit.records[n:], tables


@pytest.mark.parametrize("env", LAYER_ENVS, ids=LAYER_IDS)
def test_kernel_layers_match_the_python_layer_loop(monkeypatch, small_blocks, env):
    # with blocks of 256 start states: the kernel summing V^pi's layers in
    # C through NumPy's ddot, and so playing through Q changes to the end
    # of each block, against the same kernel leaving them to
    # PolicyValueCache.evaluate, whose calls end at each Q change: at the
    # end of each call of the first, both have kept the same rows (every
    # episode's) and hold the same V^pi, gathered rows and running values,
    # bit for bit; then every row of a run logging each episode against
    # the Python audit, whose calls end where the first's do
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    mdp = env.build()
    vstar, _ = backward_induction(mdp)
    audits = {}
    for name in ("ddot", "evaluate"):
        if name == "evaluate":
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        lr = ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01)
        init = replace(env.init or FIXED_0)
        audits[name] = Audit(lr, mdp, vstar, init), seeded_stream(0, 0, "env")
    (a, rng_a), (b, rng_b) = audits["ddot"], audits["evaluate"]
    assert a.fields.ddot and not b.fields.ddot
    K, keep = 300, range(1, 301)
    k, calls, V, changes = 0, 0, b.cache._V.tobytes(), 0
    while k < K:
        n = len(a.records)
        played = a.stretch(rng_a, k, K, keep)
        rows = a.records[n:]
        calls += 1
        got, tables = play_to(b, rng_b, k, k + played, keep)
        k += played
        assert rows == got and [r.k for r in rows] == list(range(k - played + 1, k + 1))
        for table in tables:
            changes += V != table
            V = table
        assert a.cache._V.tobytes() == V
        assert a.cache._P_pi.tobytes() == b.cache._P_pi.tobytes()
        for field in FIELDS:
            assert getattr(a.fields, field) == getattr(b.fields, field), field
    assert changes > 10 and calls == 2
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


def running(audit):
    """The audit's running values, by name."""
    return {field: getattr(audit.fields, field) for field in FIELDS}


def test_a_second_audit_starts_from_zero_on_both_paths(monkeypatch):
    # two audits in turn on one learner, against a V* lowered at state 1 so
    # that most of its episodes from 53 on have negative regret: the
    # second, from episode 100, starts every running value at 0 and notes
    # its own first negative episode, 101, the 1-based index of its first
    # row below -1e-9; the kernel with ddot, the kernel without (slow) and
    # the Python audit agree on every row and, at the end of each audit,
    # every running value and the policy cache.  The second audit starts
    # on a played learner, whose greedy table is not all 0: the kernel with
    # ddot gathers and sums that first table itself, the others in NumPy
    mdp, init = make_random_mdp(3, 2, 4, seed=0), InitialStates.cyclic([0, 1, 2])
    vstar, _ = backward_induction(mdp)
    V = vstar.V.copy()
    V[0, 1] -= 0.01
    vstar = replace(vstar, V=V)
    fast, ref = kernel_and_reference(monkeypatch, ClassicQUcbLearner, mdp, AlgoConstants(),
                                     None)
    slow = make(ClassicQUcbLearner, mdp, AlgoConstants(), None)
    runs = []
    for lr in (fast, slow, ref):
        if lr is slow:
            monkeypatch.setattr(kernel, "ddot", lambda: None)
        rng, k, run = seeded_stream(0, 0, "env"), 0, []
        for stop, negative in ((100, 53), (300, 101)):
            audit = Audit(lr, mdp, vstar, init)
            assert running(audit) == dict.fromkeys(FIELDS, 0) | {
                "optimism": check_optimism(lr.q_array(), vstar.Q)}
            assert any(lr.greedy_buffer()) == (k > 0)
            while k < stop:
                k += audit.stretch(rng, k, stop, range(1, stop + 1))
            assert audit.fields.negative == negative == next(
                r.k for r in audit.records if r.episode_regret < -1e-9)
            cache = audit.cache
            run += [running(audit), audit.records, bytes(cache._flat), cache._P_pi.tobytes(),
                    cache._r_pi.tobytes(), cache._V.tobytes()]
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("first", [250, 255, 256])
def test_audited_calls_end_where_kernel_calls_do(first, monkeypatch, small_blocks):
    # classic-qucb changes Q in every episode; with blocks of 256 start
    # states, from 6, 1 and 256 episodes before a block's end, with sparse
    # kept rows: each audited call, with the kernel and NumPy's ddot and in
    # Python alike, ends at the end of its block of start states or at
    # stop, and the calls return the same played, kept rows and running
    # values
    if kernel.load() is None or kernel.ddot() is None:
        pytest.skip("no kernel, or no ddot found in NumPy's BLAS")
    _, make_mdp, _, _, init = INSTANCES[2]
    mdp, B = make_mdp(), small_blocks
    vstar, _ = backward_induction(mdp)
    fast, ref = kernel_and_reference(monkeypatch, ClassicQUcbLearner, mdp, AlgoConstants(),
                                     None)
    stop, keep = first + 600, range(first + 3, first + 600, 7)
    rngs, calls = (seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")), []
    for lr, rng in zip((fast, ref), rngs):
        audit, k, ends = Audit(lr, mdp, vstar, replace(init)), first, []
        while k < stop:
            n = len(audit.records)
            played = audit.stretch(rng, k, stop, keep)
            k += played
            ends.append((k, audit.records[n:], running(audit)))
        calls.append(ends)
        assert [r.k for r in audit.records] == list(keep)
    assert calls[0] == calls[1]
    block_ends = range(first // B * B + B, stop, B)
    assert [end for end, _, _ in calls[0]] == [*block_ends, stop]
    assert fast.q_update_count == 600 * mdp.H
    assert_same_state(fast, ref)
    assert_same_stream(*rngs)


def test_audited_learners_own_stretch_ends_at_its_start_block(small_blocks):
    # run_stretch called on an audited learner, not through Audit.stretch,
    # writes a row per episode into the audit's buffers of START_BLOCK rows
    # too, and ends where Audit.stretch does: at the end of first's block
    # of start states
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    _, make_mdp, _, _, init = INSTANCES[2]
    mdp, init, B = make_mdp(), replace(init), small_blocks
    oracle = OracleAgent(mdp)      # Q never changes, so no call ends at a change
    audit = Audit(oracle, mdp, backward_induction(mdp)[0], init)
    rng, stop = seeded_stream(0, 0, "env"), 4 * B
    assert oracle.run_stretch(mdp, rng, B - 6, stop, init) == (6, False)
    assert oracle.run_stretch(mdp, rng, B, stop, init) == (B, False)
    assert audit.stretch(rng, 2 * B, stop) == B


DDOT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                        ctypes.c_void_p, ctypes.c_int64)


def test_kernel_layer_loop_makes_numpys_calls_and_sums(monkeypatch, small_blocks):
    # the C layer loop with a stand-in ddot that logs its arguments and
    # returns -0.0: the first call starts with the first table's H * S
    # rows, V[H - 1], ..., V[0]; inside one kernel call, each Q-changing
    # episode whose policy changes must recompute V[top], ..., V[0] from
    # its own deepest changed layer, one call per row in that order with
    # NumPy's arguments, and store (0.0 + ddot) + r_pi as NumPy's
    # DOUBLE_dot and evaluate's += do.  The tops come from the same kernel
    # without ddot, whose calls end at each Q change.  No BLAS ddot returns
    # -0.0 for these sums, so only a stand-in shows the 0.0 start, which
    # turns its -0.0 into 0.0 before the -0.0 rewards.  With blocks of 256
    # start states, each of the three calls holds more than one top
    if kernel.load() is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    calls = []

    @DDOT
    def logged(n, x, incx, y, incy):
        calls.append((n, x, incx, y, incy))
        return -0.0

    monkeypatch.setattr(kernel, "ddot", lambda: ctypes.cast(logged, ctypes.c_void_p).value)
    mdp, init = make_random_mdp(3, 2, 4, seed=0), InitialStates.cyclic([0, 1, 2])
    mdp.r = np.full_like(mdp.r, -0.0)
    vstar, _ = backward_induction(mdp)
    audit = Audit(ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01), mdp, vstar, init)
    monkeypatch.setattr(kernel, "ddot", lambda: None)
    ref = Audit(ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01), mdp, vstar, init)
    cache, S = audit.cache, mdp.S
    rows, V = cache._P_pi.ctypes.data, cache._V.ctypes.data
    rng, rng_ref = seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")
    K, k, changes, shared = 600, 0, 0, 0
    while k < K:
        calls.clear()
        played = audit.stretch(rng, k, K)
        first, tops = [mdp.H - 1] * (k == 0), []    # first: the first table's layers
        for j in range(k, k + played):       # ref's calls: one episode each here
            assert ref.stretch(rng_ref, j, k + played) == 1
            tops += [ref.fields.top] * (ref.fields.top >= 0)
        k += played
        assert calls == [(S, rows + 8 * (h * S + s) * S, 1, V + 8 * (h + 1) * S, 1)
                         for top in first + tops for h in range(top, -1, -1) for s in range(S)]
        assert cache._flat == ref.cache._flat
        assert not np.signbit(cache._V).any()
        changes += len(tops)
        shared += len(tops) > 1
    assert changes > 10 and shared == 3 and audit.fields.top == -1
    assert audit.fields.switches == ref.fields.switches


def test_rebinding_p_mid_run_raises():
    # a run's regret is measured against one MDP: reversing P halfway
    # through (which once left the audit on the old V*) raises at the
    # assignment, and the run goes on with the MDP it started with
    mdp = make_random_mdp(4, 3, 4, seed=3)
    validate(mdp)
    vstar, _ = backward_induction(mdp)
    audit = Audit(ClassicQUcbLearner(mdp, AlgoConstants(), cb=0.01), mdp, vstar,
                  InitialStates.cyclic([0, 1, 2, 3]))
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


def numpy_twin(mdp):
    """An unvalidated copy of mdp, which backward_induction solves with its
    NumPy loop on either path."""
    return EpisodicMdp(S=mdp.S, A=mdp.A, H=mdp.H, P=np.array(mdp.P), r=np.array(mdp.r))


def subnormal_mdp(seed):
    """A random 6x3x4 instance whose rows hold zeros and subnormal entries."""
    gen = np.random.default_rng(seed)
    P = gen.dirichlet(np.ones(6), size=(4, 6, 3))
    P[gen.random(P.shape) < 0.4] = 0.0
    P[..., 0] = np.where(P[..., 0] == 0.0, 5e-324, P[..., 0])
    P[..., 5] += np.where(P.sum(-1) < 0.5, 1.0, 0.0)
    P[gen.random(P.shape) < 0.2] = 2.5e-310
    P /= P.sum(-1, keepdims=True)
    r = gen.uniform(size=(4, 6, 3))
    r[gen.random(r.shape) < 0.3] = 1e-320
    return EpisodicMdp(S=6, A=3, H=4, P=P, r=r)


def count_solves(monkeypatch):
    """A Counter of stageq_solve calls in the loaded kernel, if any."""
    calls, lib = Counter(), kernel.load()
    if lib is not None:
        solve = lib.stageq_solve
        monkeypatch.setattr(lib, "stageq_solve",
                            lambda *args: calls.update(["solve"]) or solve(*args))
    return calls


SOLVE_CASES = ([pytest.param(lambda S=S, A=A: make_random_mdp(S, A, 4, seed=S * A), id=f"{S}x{A}")
                for S in (1, 2, 10, 50, 129) for A in (1, 3, 5)]
               + [pytest.param(lambda: make_jao_chain(40, epsilon=0.0, seed=0), id="jao-tied"),
                  pytest.param(lambda: subnormal_mdp(0), id="subnormal-0"),
                  pytest.param(lambda: subnormal_mdp(1), id="subnormal-1")])


@pytest.mark.parametrize("make_mdp", SOLVE_CASES)
def test_kernel_cum_rows_and_solve_match_numpy_bit_for_bit(make_mdp, path, monkeypatch):
    # cum_array and backward_induction of a validated MDP run in C with the
    # kernel (stageq_cum_rows, and stageq_solve where ddot is found): their
    # bits are np.cumsum's and the NumPy loop's, which solves the
    # unvalidated twin; on the tied chain pi is the lowest index, 0
    mdp = make_mdp()
    twin, calls = numpy_twin(mdp), count_solves(monkeypatch)
    validate(mdp)
    ref_cum = np.cumsum(twin.P, axis=-1)
    ref_cum[..., -1] = 1.0
    assert np.array_equal(mdp.cum_array().view(np.int64), ref_cum.view(np.int64))
    (got, got_pi), (ref, ref_pi) = backward_induction(mdp), backward_induction(twin)
    for a, b in ((got.V, ref.V), (got.Q, ref.Q), (got_pi.actions, ref_pi.actions)):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))
    assert calls["solve"] == (path == "kernel" and kernel.ddot() is not None)
    if mdp.S == 2 and mdp.H == 40:
        assert not got_pi.actions.any()


def dyadic_mdp(P=None):
    """S = A = H = 2 with dyadic P and r, so every sum is exact whatever
    BLAS kernel adds it: V = [[1.375, 1.125], [0.75, 1.0], [0, 0]] and
    pi = [[0, 1], [1, 0]]."""
    P = np.array([[[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]]],
                  [[[0.75, 0.25], [0.5, 0.5]], [[0.25, 0.75], [1.0, 0.0]]]]) if P is None else P
    r = np.array([[[0.5, 0.25], [0.0, 0.125]], [[0.25, 0.75], [1.0, 0.5]]])
    return EpisodicMdp(S=2, A=2, H=2, P=P, r=r)


def test_solve_leaves_every_unvalidated_mdp_to_numpy(path, monkeypatch):
    # the C solve reads C-ordered float64 P and r without NaN, which only
    # validate vouches for: OracleAgent on a fresh MDP, a float32 or
    # Fortran-ordered P and a NaN entry are all solved by the NumPy loop,
    # whose np.argmax picks a NaN where C's > would not
    calls = count_solves(monkeypatch)
    OracleAgent(make_random_mdp(3, 2, 4, seed=0))
    P = dyadic_mdp().P
    for mdp in (dyadic_mdp(), dyadic_mdp(P.astype(np.float32)), dyadic_mdp(np.asfortranarray(P))):
        tables, pi = backward_induction(mdp)
        assert tables.V.tolist() == [[1.375, 1.125], [0.75, 1.0], [0.0, 0.0]]
        assert pi.actions.tolist() == [[0, 1], [1, 0]]
    nan = P.copy()
    nan[0, 0, 1] = [np.nan, 1.0]
    tables, pi = backward_induction(dyadic_mdp(nan))
    assert pi.actions.tolist() == [[1, 1], [1, 0]]
    assert np.isnan(tables.V[0, 0]) and tables.V[0, 1] == 1.125
    assert calls["solve"] == 0


def c_entry_points(source: str) -> dict:
    """{name: (return type, parameter count)} of every non-static stageq_*
    function defined in C source."""
    found = re.findall(r"^(\w+)\s+(stageq_\w+)\(([^)]*)\)\s*\{", source, flags=re.M)
    return {name: (ret, 0 if params.strip() == "void" else len(params.split(",")))
            for ret, name, params in found}


def test_every_kernel_entry_point_has_its_ctypes_prototype():
    # without argtypes ctypes passes a Python int as a 32-bit C int, which
    # truncates a pointer silently, and without restype it reads an int:
    # load() must set both on each entry point the C source defines
    lib = kernel.load()
    if lib is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    restypes = {"int64_t": ctypes.c_int64, "void": None}
    entry = c_entry_points(kernel.SOURCE.read_text())
    assert {"stageq_stretch", "stageq_cum_rows", "stageq_solve",
            "stageq_format_rows"} <= set(entry)
    assert entry["stageq_cum_rows"] == ("int64_t", 6)   # P, r, cum, rows, n, tol
    for name, (ret, nargs) in entry.items():
        fn = getattr(lib, name)
        assert fn.restype is restypes[ret], name
        assert fn.argtypes is not None and len(fn.argtypes) == nargs, name


def make_all_learners(mdp, const, n_max):
    return [UcbAdvantageLearner(mdp, const, n_max=n_max),
            HoeffdingStageLearner(mdp, const, n_max=n_max),
            ClassicQUcbLearner(mdp, const, cb=0.05)]


@pytest.mark.parametrize("inst", GREEDY_INSTANCES, ids=[i[0] for i in GREEDY_INSTANCES])
def test_greedy_table_tracks_q_for_every_learner(inst):
    _, make_mdp, n0, K, init = inst
    mdp = make_mdp()
    const = AlgoConstants(n0_override=n0, **CONSTANT_SETS["tight"])
    K = K // 2
    recorded = []
    for lr in make_all_learners(mdp, const, K * mdp.H + 1):
        rng = seeded_stream(0, 0, "env")
        assert_greedy_current(lr)
        for k in range(K):
            traj, _ = lr.run_episode(mdp, rng, k, init)
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


@pytest.mark.parametrize("inst", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_oracle_episodes_match_reference_path(inst, path):
    # the oracle never changes Q, so check_episodes_match_reference (which
    # requires updates) does not serve: episode by episode, run_episode
    # against reference_episode, and the stream position after them
    _, make_mdp, _, K, init = inst
    mdp = make_mdp()
    fast, ref = OracleAgent(mdp), OracleAgent(mdp)
    assert uses_kernel(fast, path)
    rng_fast, rng_ref = seeded_stream(0, 0, "env"), seeded_stream(0, 0, "env")
    for k in range(K // 4):
        assert fast.run_episode(mdp, rng_fast, k, init) == \
            ref.reference_episode(mdp, rng_ref, k, init)
    assert_same_stream(rng_fast, rng_ref)
    assert fast.q_update_count == fast.stage_end_count == 0
    assert_greedy_current(fast)


# SHA-256 of an oracle run's and concurrent run's files.  episodes.csv,
# snapshot_q.csv and rounds.csv were recorded while the oracle had its own
# Python loops; snapshot_v.csv (V*'s rows) was header-only then.
ORACLE_PINS = {
    "episodes.csv": "03eb43c871127c31661540cf02c70b05f5592d86ea4caadcb29c8a76fc14cb25",
    "snapshot_q.csv": "9d2e44171a470d49a1bb53e3e80812fb89a37deade1b77b2e3bdaeef6afc301a",
    "snapshot_v.csv": "765982e7c26b03fb7d05ccc2242439f2be27f3084e759bff41e6f46e79883e39",
    "rounds.csv": "39ffb9304258286fc006baa30636ec35f4915f56bd69443a6e35f93e5ed9453b",
}


def test_oracle_outputs_are_the_same_on_both_paths(path, tmp_path):
    # a strict run logging every episode, over two blocks of start states,
    # and a concurrent run: the same bytes on the kernel and the fallback;
    # with the kernel, the kernel audits the oracle's episodes too
    env = EnvSpec(kind="random", S=4, A=3, H=5, env_seed=2, init=InitialStates.seeded(3))
    res = harness.run_experiment(RunConfig(env=env, algo="oracle", episodes=600, seed=4,
                                           log_every="all", strict=True,
                                           out_dir=str(tmp_path)))
    assert uses_kernel(res.learner, path)
    run_concurrent_experiment(env, ConcurrentConfig(agents=4, k_eps_override=700),
                              algo="oracle", seed=5, out_dir=tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ORACLE_PINS}
    assert got == ORACLE_PINS
    # the running values live in a kernel.Learner on both paths: the
    # learner's own struct exactly when the kernel plays
    oracle = OracleAgent(res.mdp)
    audit = Audit(oracle, res.mdp, res.vstar)
    assert isinstance(audit.fields, kernel.Learner)
    assert (audit.fields is getattr(oracle, "_kstate", None)) == (path == "kernel")
