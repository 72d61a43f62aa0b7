"""Reproducible experiment harness: configs, streams, run and sweep drivers.

Determinism contract: every random draw in a run comes from a PCG64 stream
derived as

    SeedSequence(master_seed, spawn_key=(run_index, sha256(label)[:8]))

and consumed through a fixed-size buffer, so a (config, seed) pair replays
byte-identically on any platform.  The environment stream uses label
"env"; the concurrent runner adds "policy-pick".  Start states and
generated instances carry their own seeds and never touch the run streams,
so changing the learner never perturbs the environment draw sequence.

Each driver call prepares its environment once (Prepared: built,
validated, solved, start states checked); a run keeps its own learner,
stream, audit state (copied, not recomputed) and copy of the start states
(dataclasses.replace: a seeded InitialStates keeps a live generator).

The one audit loop (_audited_run, metrics.Audit) keeps a record only for
the episodes its caller keeps (run_experiment: the log cadence;
sweep_scaling: the checkpoints), so memory is bounded by those, not by K.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import kernel
from .advantage import AlgoConstants, HoeffdingStageLearner, UcbAdvantageLearner, stage_tables
from .base import TabularQLearnerBase
from .baselines import ClassicQUcbLearner
from .concurrent import ConcurrentConfig, run_concurrent, write_rounds_csv
from .mdp import (DEFAULT_STARTS, EpisodicMdp, InitialStates, backward_induction, load_mdp,
                  make_jao_chain, make_random_mdp, validate)
from .metrics import (Audit, EpisodeRecord, PolicyValueCache, Table, grid, switching_bound,
                      write_episode_csv, write_table)

ALGOS = ("advantage", "hoeffding-stage", "classic-qucb", "oracle")


class ConfigError(Exception):
    """Bad config file or config value; message carries file:line or field."""


class InvariantViolation(Exception):
    """A strict-mode runtime invariant failed."""


# ----------------------------------------------------------------- streams

class UniformStream:
    """Uniforms in [0, 1): PCG64's next_double sequence, the values
    Generator.random draws from the generator seeded with seed_seq.

    Each double takes exactly one 64-bit output, one step of the
    generator's 128-bit state, so how the sequence is read changes no value
    of it: random() reads a buffer that it refills in place, and the
    compiled kernel reads the buffer's unread tail, then steps the
    generator's state itself (kernel.pcg64_state); the two can be swapped
    for one another.  The BLOCK-entry buffer is a detail.  generator is
    PCG64's, and is not replaced once the stream has been read.
    """

    BLOCK = 4096

    def __init__(self, seed_seq: np.random.SeedSequence):
        self.generator = np.random.Generator(np.random.PCG64(seed_seq))
        self._buf = np.empty(self.BLOCK)       # the buffered uniforms
        self._view = memoryview(self._buf)     # the same, read as Python floats
        self._i = self.BLOCK                   # the next unread uniform: none yet

    def random(self) -> float:
        i = self._i
        if i == self.BLOCK:
            self.generator.random(out=self._buf)
            i = 0
        self._i = i + 1
        return self._view[i]

    def skip(self, m: int) -> None:
        """Mark m uniforms read, as m calls of random() would: past the
        buffer's tail the generator's state advances by the rest."""
        i = self._i + m
        if i > self.BLOCK:
            self.generator.bit_generator.advance(i - self.BLOCK)
            i = self.BLOCK
        self._i = i

    def integers(self, n: int) -> int:
        """Uniform int in [0, n) via rejection-free scaling of one uniform."""
        return int(self.random() * n)


def seeded_stream(master_seed: int, run_index: int, label: str) -> UniformStream:
    """Independent child stream; differing labels give unrelated streams."""
    label_key = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
    seq = np.random.SeedSequence(master_seed, spawn_key=(run_index, label_key))
    return UniformStream(seq)


# ------------------------------------------------------------ environments

@dataclass
class EnvSpec:
    """Declarative environment choice: generator + parameters, or a file;
    init, which build leaves out, is its runs' start states (None: state 0)."""

    kind: str = "random"            # random | jao | file
    S: int = 3
    A: int = 2
    H: int = 5
    reward_sparsity: float = 0.0
    env_seed: int = 0
    jao_epsilon: float = 0.1
    jao_delta: Optional[float] = None
    path: Optional[str] = None
    init: Optional[InitialStates] = None

    def build(self) -> EpisodicMdp:
        if self.kind == "random":
            return make_random_mdp(self.S, self.A, self.H, seed=self.env_seed,
                                   reward_sparsity=self.reward_sparsity)
        if self.kind == "jao":
            return make_jao_chain(self.H, epsilon=self.jao_epsilon, delta=self.jao_delta,
                                  seed=self.env_seed)
        if self.kind == "file":
            return load_mdp(self.path)
        raise ConfigError(f"unknown env kind {self.kind!r}")


# ------------------------------------------------------------------ agents

class OracleAgent(TabularQLearnerBase):
    """Debug agent whose Q, V and greedy tables are Q*, V* and pi*: it
    plays the exact optimal policy, and its observe changes nothing (the
    kernel's MODE_ORACLE).  solved: backward_induction(mdp), if known."""

    name = "oracle"

    def __init__(self, mdp: EpisodicMdp, solved=None):
        super().__init__(mdp)
        tables, pistar = solved or backward_induction(mdp)
        self._q[:] = kernel.table("d", tables.Q[:mdp.H])
        self._v[:] = kernel.table("d", tables.V)
        self._greedy[:] = kernel.table("q", pistar.actions)
        if self._lib is not None:
            self._bind_kernel(mode=kernel.MODE_ORACLE)

    def observe(self, h: int, s: int, a: int, s_next: int) -> None:
        pass

    def check_invariants(self) -> None:
        pass


STAGE_LEARNERS = {"advantage": UcbAdvantageLearner, "hoeffding-stage": HoeffdingStageLearner}


def make_learner(algo: str, mdp: EpisodicMdp, constants: AlgoConstants,
                 n_max: int, cb: float = 2.0, shared: Optional["Prepared"] = None):
    """A fresh learner; shared, a Prepared of these arguments, lends it the
    stage tables or the solution it would build."""
    if algo in STAGE_LEARNERS:
        return STAGE_LEARNERS[algo](mdp, constants, n_max=n_max,
                                    tables=shared and shared.stages)
    if algo == "classic-qucb":
        return ClassicQUcbLearner(mdp, constants, cb=cb)
    if algo == "oracle":
        return OracleAgent(mdp, shared and shared.vstar and (shared.vstar, shared.pistar))
    raise ValueError(f"unknown algo {algo!r}; expected one of {ALGOS}")


class Prepared:
    """One environment made ready for the runs of a driver call, which
    share it: they, the kernel included, only read it.  Builds, validates
    and (audited) solves env for runs of at most `episodes` episodes each,
    or episodes(mdp); MdpValidationError for a start state outside the MDP.
    Without the audit, vstar, pistar and first stay None; first is
    the all-zero greedy table and its V^pi, whose gathered rows each run
    takes from P and r itself rather than hold a copy here."""

    vstar = pistar = first = None

    def __init__(self, env: EnvSpec, algo: str, constants: AlgoConstants, cb: float,
                 episodes, audited: bool = True):
        self.mdp = mdp = env.build()
        validate(mdp)
        mdp.cum_array()                # built here, before any thread reads it
        self.init = env.init or DEFAULT_STARTS     # each run reads a copy
        self.init.check(mdp.S)
        self.algo, self.constants, self.cb = algo, constants, cb
        self.n_max = (episodes(mdp) if callable(episodes) else episodes) * mdp.H + 1
        self.stages = (stage_tables(mdp.H, self.n_max, constants)
                       if algo in STAGE_LEARNERS else None)
        if audited:
            self.vstar, self.pistar = backward_induction(mdp)
            zeros = array("q", [0]) * (mdp.H * mdp.S)      # a learner's first greedy table
            self.first = zeros, PolicyValueCache(mdp).values(zeros).V

    def learner(self):
        return make_learner(self.algo, self.mdp, self.constants, self.n_max, self.cb, self)


# -------------------------------------------------------------- run configs

@dataclass
class RunConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    algo: str = "advantage"
    constants: AlgoConstants = field(default_factory=AlgoConstants)
    cb: float = 2.0
    episodes: int = 1000
    seed: int = 0
    log_every: str = "auto"        # auto | all | pow2
    strict: bool = False
    out_dir: Optional[str] = None


@dataclass
class RunSummary:
    algo: str
    seed: int
    episodes: int
    steps: int
    cum_regret: float
    n_switch: int
    switch_bound: float
    q_updates: int
    optimism_violations: int
    ref_states_fixed: int
    wall_time_s: float
    reference_wins: int = 0        # Q updates set by the reference-advantage target

    def line(self) -> str:
        return (f"algo={self.algo} seed={self.seed} episodes={self.episodes} "
                f"T={self.steps} cum_regret={self.cum_regret:.6f} "
                f"n_switch={self.n_switch} switch_bound={self.switch_bound:.1f} "
                f"q_updates={self.q_updates} reference_wins={self.reference_wins} "
                f"optimism_violations={self.optimism_violations} "
                f"ref_states_fixed={self.ref_states_fixed} "
                f"wall_time_s={self.wall_time_s:.3f}")


@dataclass
class RunResult:
    """A run's outcome; records holds only its kept (logged or checkpoint)
    EpisodeRecord rows: from run_experiment and sweep_scaling, a read-only
    metrics.Table."""

    config: RunConfig
    records: object
    summary: RunSummary
    learner: object
    mdp: EpisodicMdp
    vstar: object                  # ValueTables
    pistar: object                 # DeterministicPolicy


# ------------------------------------------------------------------ drivers

def run_experiment(config: RunConfig) -> RunResult:
    """Run one seeded experiment, audited on every episode (see metrics).

    records holds the rows of the log cadence: every episode ("all"), or
    each power of two plus the last ("pow2"); "auto" is "all" up to 100k
    episodes.  Writes CSVs under out_dir if set (episodes.csv,
    snapshot_q.csv, snapshot_v.csv); the summary line is for stdout because
    it carries wall time, which must stay out of the deterministic files.
    """
    K, mode = config.episodes, config.log_every
    if mode == "auto":
        mode = "all" if K <= 100_000 else "pow2"
    if mode == "all":
        keep = range(1, K + 1)
    elif mode == "pow2":
        keep = sorted({1 << i for i in range(K.bit_length())} | {K})
    else:
        raise ConfigError(f"unknown log cadence {mode!r}")
    if K < 1:
        raise ConfigError(f"episodes must be >= 1, got {K}")
    t0 = time.perf_counter()
    shared = Prepared(config.env, config.algo, config.constants, config.cb, K)
    result = _audited_run(shared, config, keep, replace(shared.init))
    result.summary.wall_time_s = time.perf_counter() - t0
    if config.out_dir is not None:
        write_run_outputs(result, config.out_dir)
    return result


def _audited_run(shared: Prepared, config: RunConfig, keep, init: InitialStates) -> RunResult:
    """One run's audit loop on the prepared environment, from its own start
    states init: Audit.stretch plays its episodes, keeping the rows of the
    episodes k in keep (increasing), and the summary reads the audit's
    running values; a strict run hands the first negative-regret episode
    the audit noted to enforce_invariants.  Ignores out_dir and leaves
    wall_time_s 0."""
    K, mdp = config.episodes, shared.mdp
    learner = shared.learner()
    env_rng = seeded_stream(config.seed, 0, "env")
    audit = Audit(learner, mdp, shared.vstar, init, shared.first)
    k = 0                          # the episodes played
    while k < K:
        k += audit.stretch(env_rng, k, K, keep)

    f = audit.fields               # the running values
    T = K * mdp.H
    summary = RunSummary(
        algo=config.algo, seed=config.seed, episodes=K, steps=T,
        cum_regret=f.cum_regret, n_switch=f.switches,
        switch_bound=switching_bound(mdp.S, mdp.A, mdp.H, T),
        q_updates=learner.q_update_count,
        optimism_violations=f.violations,
        ref_states_fixed=learner.ref_fixed_count,
        wall_time_s=0.0, reference_wins=learner.reference_wins)
    result = RunResult(config=config, records=audit.records, summary=summary,
                       learner=learner, mdp=mdp, vstar=shared.vstar, pistar=shared.pistar)
    if config.strict:
        enforce_invariants(result, f.negative)
    return result


def enforce_invariants(result: RunResult, negative: Optional[int] = None) -> None:
    """Strict-mode checks; raises InvariantViolation on the first breach.

    negative is the first episode k with negative regret, as the audit loop
    noted it, or 0 for none; a caller that passes only a result has the
    first negative row of result.records checked instead.
    """
    s = result.summary
    learner = result.learner
    try:
        learner.check_invariants()
    except AssertionError as exc:
        raise InvariantViolation(str(exc)) from None
    if result.config.algo in STAGE_LEARNERS and s.n_switch > s.switch_bound:
        raise InvariantViolation(
            f"n_switch {s.n_switch} exceeds deterministic bound {s.switch_bound:.1f}")
    if negative is None:
        ks, regrets = Table.columns_of(EpisodeRecord, result.records)[:2]
        negative = next((k for k, reg in zip(ks, regrets) if reg < -1e-9), 0)
    if negative:
        raise InvariantViolation(f"negative episode regret at k={negative}")


def checkpoint_regrets(records, episode_counts) -> dict:
    """cum_regret after each requested episode count, by row k (KeyError if none)."""
    by_k = {rec.k: rec.cum_regret for rec in records}
    return {k: by_k[k] for k in episode_counts}


def sweep_scaling(config: RunConfig, t_multipliers, seeds) -> list:
    """Regret-vs-T table: rows (T, seed, cum_regret), T in steps.

    One run per seed suffices because the learner is online: cum_regret at
    an intermediate episode equals a run stopped there (same stream).  The
    checkpoint of multiplier m is the exact product of episodes and m's
    binary double (not of the decimal m was written as), rounded half to
    even, and at least 1: --episodes 853725 --t-mults 0.3 keeps episode
    256117, since 0.3's double is just below 3/10, where the float
    product, 256117.5, would round to 256118.  Each seed's run keeps only
    the checkpoint rows.  log_every and out_dir are not read.

    The runs write nothing they share, and most of each is a kernel call
    that releases the GIL, so n = min(len(seeds), usable CPUs) threads, the
    calling one included, take seeds in order from one iterator (one thread
    without the kernel, whose Python body holds the GIL) and turn each run
    into rows at once: memory is bounded by n.  The rows come out in seed
    order; once a seed has failed no new seed starts, and the error raised
    is the first failing seed's, the one a loop over the seeds would raise.
    """
    ks = sorted({max(1, _exact_round(config.episodes, m)) for m in t_multipliers})
    seeds = list(seeds)
    parts = [None] * len(seeds)    # each seed's rows, or the exception it raised
    todo = iter(range(len(seeds)))  # a C iterator: next() is atomic under the GIL
    n = min(len(seeds), _usable_cpus()) if kernel.load() else 1
    kernel.ddot()                  # looked up once, before any thread starts
    shared = Prepared(config.env, config.algo, config.constants, config.cb, ks[-1])
    run, H = replace(config, episodes=ks[-1]), shared.mdp.H

    def rows_of(seed):
        result = _audited_run(shared, replace(run, seed=seed), ks, replace(shared.init))
        return [(rec.k * H, seed, rec.cum_regret) for rec in result.records]

    def play():
        try:
            for i in todo:
                try:
                    parts[i] = rows_of(seeds[i])
                except Exception as exc:   # raised on the calling thread below
                    parts[i] = exc
                    break
        finally:       # after a failure or an interrupt: taking the seeds left starts none
            for _ in todo:
                pass

    threads = [threading.Thread(target=play) for _ in range(n - 1)]
    for t in threads:
        t.start()
    play()
    for t in threads:
        t.join()
    rows = []
    for part in parts:
        if isinstance(part, Exception):
            raise part
        rows += part
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exact_round(n: int, m: float) -> int:
    """round(n * m) of the exact product, ties to even as round() breaks
    them; the float product n * m is not exact past 2**53."""
    num, den = m.as_integer_ratio()
    k, rem = divmod(n * num, den)
    return k + (2 * rem > den or 2 * rem == den and k % 2 == 1)


def write_sweep_csv(rows, path) -> None:
    """sweep_scaling's rows to path, a file path or an open text file."""
    write_table(path, "T,seed,cum_regret", list(zip(*rows)) or [(), (), ()])


def run_concurrent_experiment(env: EnvSpec, cc: ConcurrentConfig, *,
                              algo: str = "advantage",
                              constants: Optional[AlgoConstants] = None,
                              seed: int = 0, cb: float = 2.0,
                              out_dir=None):
    """Prepare env (unaudited), then build learner + streams, run the round
    loop, optionally log CSV.

    The learner's visit horizon is sized from the budget plus one round of
    overshoot; the pick stream is separate from the env stream so adding
    the final policy draw never perturbs trajectory generation.
    """
    shared = Prepared(env, algo, constants or AlgoConstants(), cb, audited=False,
                      episodes=lambda mdp: cc.budget(mdp.S, mdp.A, mdp.H) + cc.agents)
    env_rng = seeded_stream(seed, 0, "env")
    pick_rng = seeded_stream(seed, 0, "policy-pick")
    result = run_concurrent(shared.mdp, shared.learner(), cc, env_rng, pick_rng,
                            replace(shared.init))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_rounds_csv(result.rounds, out / "rounds.csv")
    return result


# ------------------------------------------------------------- file output

def write_run_outputs(result: RunResult, out_dir) -> None:
    """episodes.csv plus Q/V snapshot CSVs; all rows are deterministic.
    The snapshots read the learner's tables in place."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_episode_csv(result.records, out / "episodes.csv")
    learner, (H, S, A) = result.learner, result.mdp.r.shape
    write_q_csv(np.frombuffer(learner._q).reshape(H, S, A), out / "snapshot_q.csv")
    # the Vref column stays empty for learners without a reference route
    layers = slice(0, H * S)       # V and Vref without their boundary rows
    write_table(out / "snapshot_v.csv", "h,s,V,Vref", [
        *grid((H, S)), memoryview(learner._v)[layers],
        memoryview(learner._vref)[layers] if learner.reference else None])


def write_q_csv(q, path) -> None:
    """An (H, S, A) Q table's rows: snapshot_q.csv and solve's qstar.csv."""
    write_table(path, "h,s,a,Q", [*grid(q.shape), q])


# ------------------------------------------------------------- config files

def parse_kv_file(path) -> dict:
    """key = value lines, '#' comments; raises ConfigError with file:line."""
    out = {}
    with open(path) as f:
        for ln, raw in enumerate(f, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw.strip()!r}")
            key, val = text.split("=", 1)
            key, val = key.strip(), val.strip()
            if not key:
                raise ConfigError(f"{path}:{ln}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
            out[key] = val
    return out


def parse_init_spec(text: str) -> InitialStates:
    """fixed:S | cyclic:a,b,c | seeded:SEED"""
    kind, _, arg = text.partition(":")
    try:
        if kind == "fixed":
            return InitialStates.fixed(int(arg or 0))
        if kind == "cyclic":
            return InitialStates.cyclic([int(t) for t in arg.split(",") if t != ""])
        if kind == "seeded":
            return InitialStates.seeded(int(arg or 0))
    except ValueError as exc:
        raise ConfigError(f"bad init spec {text!r}: {exc}") from None
    raise ConfigError(f"unknown init kind {kind!r} (fixed/cyclic/seeded)")


# Config keys, one row each: the key's type (bool: a switch; a tuple: the
# allowed strings), the field it sets as section.attribute (env: EnvSpec,
# constants: AlgoConstants, run: RunConfig, conc: ConcurrentConfig), the
# subcommands that read it, and its help text.  The key is also the dest
# of its flag (--env-seed for env_seed); the CLI makes each command's flags
# from these rows, and a key left unset keeps its dataclass default.
class ConfigKey(NamedTuple):
    type: object
    field: str
    commands: tuple
    help: Optional[str] = None


_ENV = ("run", "sweep", "concurrent", "solve")
_ALGO = ("run", "sweep", "concurrent")
_CONC = ("concurrent",)
CONFIG_KEYS = {key: ConfigKey(*row) for key, row in {
    "env": (str, "env.kind", _ENV, "random | jao | file:PATH (a bare path also works)"),
    "S": (int, "env.S", _ENV, "state count (random env)"),
    "A": (int, "env.A", _ENV, "action count (random env)"),
    "H": (int, "env.H", _ENV, "episode length"),
    "sparsity": (float, "env.reward_sparsity", _ENV,
                 "probability a reward entry is zeroed (random env)"),
    "env_seed": (int, "env.env_seed", _ENV,
                 "seed for instance generation (not the run stream)"),
    "jao_epsilon": (float, "env.jao_epsilon", _ENV,
                    "optimal-action advantage in the hard chain env"),
    "delta": (float, "env.jao_delta", _ENV, "chain switching probability (default 16/H)"),
    "init": (str, "env.init", _ALGO, "initial states: fixed:S | cyclic:a,b,c | seeded:SEED"),
    "algo": (ALGOS, "run.algo", _ALGO),
    "p": (float, "constants.p", _ALGO, "failure probability behind the log factor"),
    "c1": (float, "constants.c1", _ALGO),
    "c2": (float, "constants.c2", _ALGO),
    "c3": (float, "constants.c3", _ALGO),
    "c4": (float, "constants.c4", _ALGO),
    "cb": (float, "run.cb", _ALGO, "bonus constant for classic-qucb"),
    "beta": (float, "constants.beta", _ALGO, "reference accuracy target (default 1/sqrt(H))"),
    "n0_override": (float, "constants.n0_override", _ALGO,
                    "replace the computed reference-freeze visit count"),
    "episodes": (int, "run.episodes", ("run", "sweep")),
    "seed": (int, "run.seed", ("run", "concurrent")),
    "log_every": (("auto", "all", "pow2"), "run.log_every", ("run",)),
    "strict": (bool, "run.strict", ("run", "sweep"),
               "exit nonzero if any runtime invariant fails"),
    "out": (str, "run.out_dir", _ENV, "output directory for CSVs"),
    "agents": (int, "conc.agents", _CONC, "episodes generated per round"),
    "epsilon": (float, "conc.epsilon", _CONC, "accuracy target that sizes the sample budget"),
    "c5": (float, "conc.c5", _CONC, "budget constant"),
    "k_eps_override": (float, "conc.k_eps_override", _CONC,
                       "replace the computed trajectory budget"),
}.items()}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def coerce_kv(kv: dict) -> dict:
    """Convert raw string values by the types in CONFIG_KEYS; ConfigError
    names the key.  Choice keys stay strings, checked by the builders."""
    out = {}
    for key, val in kv.items():
        row = CONFIG_KEYS.get(key)
        if row is None:
            raise ConfigError(f"unknown config key {key!r}")
        if row.type is bool:
            out[key] = _parse_bool(val)
        elif isinstance(row.type, tuple):
            out[key] = val
        else:
            try:
                out[key] = row.type(val)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad {row.type.__name__} {val!r}") from None
    return out


def _fields(values: dict) -> dict:
    """{section: {attribute: value}} for the keys set in values."""
    out = {"env": {}, "constants": {}, "run": {}, "conc": {}}
    for key, val in values.items():
        row = CONFIG_KEYS.get(key)
        if row is None:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(row.type, tuple) and val not in row.type:
            raise ConfigError(f"config key {key!r}: {val!r} is not one of {row.type}")
        section, attr = row.field.split(".")
        out[section][attr] = val
    return out


def build_run_config(values: dict) -> RunConfig:
    """A RunConfig from coerced key/values (file and/or CLI); the
    concurrent keys are left to build_concurrent_config."""
    fields = _fields(values)
    env = fields["env"]
    if env.get("kind", "random") not in ("random", "jao"):
        env["kind"], env["path"] = "file", env["kind"].removeprefix("file:")
    if "init" in env:
        env["init"] = parse_init_spec(env["init"])
    for key in ("seed", "env_seed"):
        if values.get(key, 0) < 0:
            raise ConfigError(f"config key {key!r}: seeds must be >= 0, got {values[key]}")
    try:
        return RunConfig(env=EnvSpec(**env), constants=AlgoConstants(**fields["constants"]),
                         **fields["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_concurrent_config(values: dict) -> ConcurrentConfig:
    """A ConcurrentConfig from the concurrent keys in values."""
    return ConcurrentConfig(**_fields(values)["conc"])
