"""One benchmark repetition, run in a fresh interpreter by perfbench/run.py.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_DIR

MODE "plain" times the workload's public driver call as a whole
(sweep_scaling, run_experiment or run_concurrent_experiment), with the
host-speed reference loop timed just before and just after it.  MODE "trace"
rebuilds the same driver from the package's public calls with a timer
around each layer call, then calibrates every learner on the workload's
instance.  Nothing inside the package is wrapped or patched: every timer
sits in this file.

Both modes first time the set-up calls separately (import, environment
build, validate, backward induction, learner construction), check the
outputs (strict-mode invariants and the workload's own structural checks)
and hash the deterministic output files.  Any failed check raises, so the
process exits non-zero.  The last stdout line is one JSON object.

Only the standard library is imported before `import stageq` is timed, so
the import figure includes NumPy's import, as a user's first call pays it.
"""

import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

ns = time.perf_counter_ns

# Workload sizes.  Each plain driver call takes about 1-1.5 s on a 2-core
# Xeon, so a run of run_seconds holds ten or more repetitions.  Changing a
# size changes the outputs: re-record perfbench/digests.json with it.
CHAIN_EPISODES = 6_000
CHAIN_SEEDS_PER_RUN = 2
T_MULTS = (0.25, 0.5, 1.0)
QUCB_EPISODES = 800
ROUNDS_AGENTS = 8
ROUNDS_BUDGET = 32_000
# Steps per learner in the calibration pass of a traced repetition.
CAL_STEPS = 40_000
# Calls per per-call calibration of an audit layer a workload never calls.
CAL_CALLS = 30
# Iterations of the host-speed reference loop (host_reference_s): about
# 0.2-0.35 s on a 2-core Xeon.  Changing it shifts every adjusted figure.
REF_ITERS = 200_000

DESK = dict(p=0.1, c1=1.2, c2=1.2, c3=0.06)


@dataclass
class Workload:
    """A workload's inputs, all derived from the benchmark seed."""

    kind: str                      # sweep | run | concurrent
    env: object                    # stageq.EnvSpec
    algo: str
    constants: object              # stageq.AlgoConstants
    seeds: tuple                   # run seeds
    cb: float = 2.0
    episodes: int = 0
    cc: Optional[object] = None    # stageq.ConcurrentConfig

    def config(self, sq, seed, out_dir=None):
        return sq.RunConfig(env=self.env, algo=self.algo,
                            constants=self.constants, cb=self.cb,
                            episodes=self.episodes, seed=seed,
                            log_every="all", strict=True, out_dir=out_dir)

    def n_max(self, mdp) -> int:
        """The learner's visit horizon, sized as the driver sizes it."""
        if self.kind == "concurrent":
            budget = self.cc.budget(mdp.S, mdp.A, mdp.H)
            return (budget + self.cc.agents) * mdp.H + 1
        return self.episodes * mdp.H + 1


def make_workload(sq, name: str, seed: int) -> Workload:
    # Instances are fixed, so every seed measures the same instance; the
    # benchmark seed drives the run streams.
    if name == "chain-sweep":
        return Workload(
            kind="sweep",
            env=sq.EnvSpec(kind="jao", H=40, jao_delta=0.4, jao_epsilon=0.1,
                           env_seed=0),
            algo="advantage",
            constants=sq.AlgoConstants(n0_override=500, **DESK),
            seeds=tuple(CHAIN_SEEDS_PER_RUN * seed + i
                        for i in range(CHAIN_SEEDS_PER_RUN)),
            episodes=CHAIN_EPISODES)
    if name == "qucb-wide":
        return Workload(
            kind="run",
            env=sq.EnvSpec(kind="random", S=50, A=5, H=20, env_seed=0),
            algo="classic-qucb", constants=sq.AlgoConstants(p=DESK["p"]),
            cb=0.01, seeds=(seed,), episodes=QUCB_EPISODES)
    if name == "rounds-m8":
        return Workload(
            kind="concurrent",
            env=sq.EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2),
            algo="advantage",
            constants=sq.AlgoConstants(n0_override=400, **DESK),
            seeds=(seed,),
            cc=sq.ConcurrentConfig(agents=ROUNDS_AGENTS, epsilon=0.1,
                                   k_eps_override=ROUNDS_BUDGET))
    raise SystemExit(f"unknown workload {name!r}")


# ------------------------------------------------------------------ checks

class CheckFailed(Exception):
    """An output of the workload is wrong."""


def check_rounds(rounds, budget, agents, update_rounds, total_consumed,
                 learner, round_count_bound):
    """The concurrent runner's structural invariants (module docstring)."""
    if len(rounds) > round_count_bound(update_rounds, budget, agents):
        raise CheckFailed("more rounds than the deterministic bound")
    for r in rounds:
        if r.consumed < agents and not r.update_triggered:
            raise CheckFailed(f"round {r.round} stopped early without update")
    if not budget <= total_consumed < budget + agents:
        raise CheckFailed(f"consumed {total_consumed} for budget {budget}")
    try:
        learner.check_invariants()
    except AssertionError as exc:
        raise CheckFailed(f"learner invariant: {exc}") from None


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


# --------------------------------------------------------- host reference

def host_reference_s() -> float:
    """Seconds for a fixed loop that calls no stageq code.

    The loop mixes what the workloads do: a Python-level rollout (uniform
    draw, bisect into cumulative rows, tuple trajectories, dict counts) and,
    every H steps, small NumPy array operations.  The host's speed drifts by
    tens of percent over minutes; timing this loop just before and just
    after the driver call measures that drift, and run.py divides it out.
    """
    import random
    from bisect import bisect_right

    import numpy as np
    rng = random.Random(20040)
    S, A, H = 10, 4, 40
    cum = [[[sum(row[:i + 1]) for i in range(S)]
            for row in ([rng.random() for _ in range(S)] for _ in range(A))]
           for _ in range(S)]
    cum = [[[x / r[-1] for x in r] for r in rows] for rows in cum]
    mat = np.array([[rng.random() for _ in range(S * A)] for _ in range(S)])
    vec = np.zeros(S * A)
    counts = {}
    traj = []
    s = 0
    t0 = ns()
    for i in range(REF_ITERS):
        a = (s + i) % A
        s_next = min(bisect_right(cum[s][a], rng.random()), S - 1)
        traj.append((s, a, s_next))
        counts[s, a] = counts.get((s, a), 0) + 1
        s = s_next
        if len(traj) == H:
            vec[s * A + a] += 1.0
            s = int((mat @ vec).argmax()) % S
            traj = []
    return (ns() - t0) / 1e9


# ----------------------------------------------------------- plain driver

def plain(sq, w: Workload, out: Path) -> dict:
    """The workload's public driver call, timed as a whole."""
    if w.kind == "sweep":
        t0 = ns()
        rows = sq.sweep_scaling(w.config(sq, w.seeds[0]), T_MULTS, w.seeds)
        driver_ns = ns() - t0
        sq.write_sweep_csv(rows, out / "sweep.csv")
        top = max(T for T, _, _ in rows)
        return dict(driver_ns=driver_ns,
                    steps=top * len(w.seeds),
                    cum_regret=[reg for T, _, reg in rows if T == top])
    if w.kind == "run":
        t0 = ns()
        res = sq.run_experiment(w.config(sq, w.seeds[0], out_dir=str(out)))
        driver_ns = ns() - t0
        return dict(driver_ns=driver_ns, steps=res.summary.steps,
                    cum_regret=[res.summary.cum_regret])
    t0 = ns()
    res = sq.run_concurrent_experiment(w.env, w.cc, algo=w.algo,
                                       constants=w.constants, seed=w.seeds[0],
                                       cb=w.cb, out_dir=str(out))
    driver_ns = ns() - t0
    check_rounds(res.rounds, res.budget, w.cc.agents, res.update_rounds,
                 res.total_consumed, res.learner, sq.round_count_bound)
    return dict(driver_ns=driver_ns, steps=res.total_generated * w.env.H,
                cum_regret=[])


# ----------------------------------------------------------- traced driver

def records_bytes(records) -> int:
    """Shallow sizes of the list, each record, its dict and its values."""
    total = sys.getsizeof(records)
    for rec in records:
        fields = vars(rec)
        total += sys.getsizeof(rec) + sys.getsizeof(fields)
        total += sum(sys.getsizeof(v) for v in fields.values())
    return total


def traced_experiment(sq, cfg, c: dict):
    """run_experiment rebuilt from public calls, with a timer per layer.

    The loop body matches run_experiment's statement for statement, so
    cum_regret and every output byte must come out identical.
    """
    from stageq.harness import enforce_invariants
    K = cfg.episodes
    mdp = cfg.env.build()
    sq.validate(mdp)
    vstar, pistar = sq.backward_induction(mdp)
    qstar, vstar0 = vstar.Q, vstar.V[0]
    learner = sq.make_learner(cfg.algo, mdp, cfg.constants,
                              n_max=K * mdp.H + 1, cb=cfg.cb)
    env_rng = sq.seeded_stream(cfg.seed, 0, "env")
    cache = sq.PolicyValueCache(mdp)
    switches = sq.SwitchTracker()
    seen = set()
    records = []
    cum_regret = 0.0
    violations = 0

    def snapshot():
        t0 = ns()
        policy = learner.greedy_actions_flat()
        t1 = ns()
        switches.record(policy)
        t2 = ns()
        key = tuple(policy)
        miss = key not in seen
        t3 = ns()
        vpi = cache.values(policy).V[0]
        t4 = ns()
        c["snapshot_calls"] += 1
        c["snapshot_ns"] += t1 - t0
        c["switch_calls"] += 1
        c["switch_ns"] += t2 - t1
        c["cache_calls"] += 1
        if miss:
            seen.add(key)
            c["eval_calls"] += 1
            c["eval_ns"] += t4 - t3
        return vpi

    loop0 = ns()
    vpi0 = snapshot()
    resnapshot = False
    for k in range(1, K + 1):
        if resnapshot:
            vpi0 = snapshot()
        t0 = ns()
        traj, report = learner.run_episode(mdp, env_rng, k - 1)
        c["learn_ns"] += ns() - t0
        s1 = traj[0][0]
        reg = float(vstar0[s1] - vpi0[s1])
        cum_regret += reg
        resnapshot = report.q_changed
        if resnapshot:
            c["q_change_eps"] += 1
            t0 = ns()
            violations = max(violations,
                             sq.check_optimism(learner.q_array(), qstar))
            c["optimism_ns"] += ns() - t0
            c["optimism_calls"] += 1
        records.append(sq.EpisodeRecord(
            k=k, episode_regret=reg, cum_regret=cum_regret,
            cum_switching_cost=switches.total,
            cum_q_updates=learner.q_update_count,
            cum_optimism_violations=violations,
            ref_states_fixed=learner.ref_fixed_count))
    c["loop_ns"] += ns() - loop0
    c["episodes"] += K
    c["generated"] += K
    c["consumed"] += K
    c["stage_ends"] += learner.stage_end_count
    c["q_updates"] += learner.q_update_count
    c["refs_fixed"] += learner.ref_fixed_count
    c["cache_entries"] = max(c["cache_entries"], len(seen))
    if len(records) > c["records_count"]:
        c["records_count"] = len(records)
        c["records_bytes"] = records_bytes(records)

    T = K * mdp.H
    summary = sq.RunSummary(
        algo=cfg.algo, seed=cfg.seed, episodes=K, steps=T,
        cum_regret=cum_regret, n_switch=switches.total,
        switch_bound=sq.switching_bound(mdp.S, mdp.A, mdp.H, T),
        q_updates=learner.q_update_count, optimism_violations=violations,
        ref_states_fixed=learner.ref_fixed_count, wall_time_s=0.0)
    result = sq.RunResult(config=cfg, records=records, summary=summary,
                          learner=learner, mdp=mdp, vstar=vstar, pistar=pistar)
    if cfg.strict:
        enforce_invariants(result)
    return result


def write_timed(c: dict, out: Path, write, *args):
    t0 = ns()
    write(*args)
    c["write_ns"] += ns() - t0
    c["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())


def traced_concurrent(sq, w: Workload, out: Path, c: dict) -> int:
    """run_concurrent_experiment rebuilt from public calls (same order);
    returns the steps generated."""
    from stageq.concurrent import replay_into
    mdp = w.env.build()
    sq.validate(mdp)
    M = w.cc.agents
    budget = w.cc.budget(mdp.S, mdp.A, mdp.H)
    learner = sq.make_learner(w.algo, mdp, w.constants, n_max=w.n_max(mdp),
                              cb=w.cb)
    env_rng = sq.seeded_stream(w.seeds[0], 0, "env")
    rounds = []
    total_consumed = total_generated = update_rounds = 0
    loop0 = ns()
    while total_consumed < budget:
        t0 = ns()
        policy_flat = learner.greedy_actions_flat()
        t1 = ns()
        actor = sq.FrozenActor(policy_flat, mdp.S)
        trajs = [sq.sample_episode(mdp, actor, env_rng,
                                   episode_index=total_generated + m)
                 for m in range(M)]
        t2 = ns()
        total_generated += M
        consumed = 0
        triggered = False
        for traj in trajs:
            consumed += 1
            if replay_into(learner, traj):
                triggered = True
                break
        t3 = ns()
        total_consumed += consumed
        rounds.append(sq.RoundLog(round=len(rounds) + 1, consumed=consumed,
                                  update_triggered=triggered,
                                  policy_version=update_rounds))
        if triggered:
            update_rounds += 1
        c["snapshot_calls"] += 1
        c["snapshot_ns"] += t1 - t0
        c["sample_ns"] += t2 - t1
        c["replay_ns"] += t3 - t2
        c["replay_steps"] += consumed * mdp.H
        c["q_change_eps"] += int(triggered)
    c["loop_ns"] += ns() - loop0
    c["learn_ns"] += c["sample_ns"] + c["replay_ns"]
    c["episodes"] += total_consumed
    c["generated"] += total_generated
    c["consumed"] += total_consumed
    c["rounds"] = len(rounds)
    c["stage_ends"] += learner.stage_end_count
    c["q_updates"] += learner.q_update_count
    c["refs_fixed"] += learner.ref_fixed_count
    c["records_count"] = len(rounds)
    c["records_bytes"] = records_bytes(rounds)
    check_rounds(rounds, budget, M, update_rounds, total_consumed, learner,
                 sq.round_count_bound)
    write_timed(c, out, sq.write_rounds_csv, rounds, out / "rounds.csv")
    return total_generated * mdp.H


def per_call_ns(fn, calls: int) -> float:
    t0 = ns()
    for _ in range(calls):
        fn()
    return (ns() - t0) / calls


def calibrate(sq, w: Workload, mdp, vstar) -> dict:
    """ns/step of each learner's run_episode on the workload's instance.

    Every learner starts fresh and reads the workload's first run stream,
    so the oracle row is environment sampling alone and the difference
    to the advantage row is the learner's own work.  Timed loops drop each
    trajectory at once, as the drivers do: keeping them alive would add
    garbage-collector passes to the figure.  The oracle's trajectories,
    sampled again untimed, are then replayed into a fresh advantage
    learner, and a FrozenActor plays the initial greedy policy, as the
    concurrent runner does.
    """
    from stageq.concurrent import replay_into
    E = max(1, CAL_STEPS // mdp.H)
    steps = E * mdp.H

    def fresh(algo):
        return sq.make_learner(algo, mdp, w.constants, n_max=steps + 1,
                               cb=w.cb)

    def stream():
        return sq.seeded_stream(w.seeds[0], 0, "env")

    out = {}
    for algo in ("oracle", "advantage", "hoeffding-stage", "classic-qucb"):
        learner, rng = fresh(algo), stream()
        t0 = ns()
        for k in range(E):
            learner.run_episode(mdp, rng, k)
        out[algo] = (ns() - t0) / steps

    oracle, rng = fresh("oracle"), stream()
    trajs = [oracle.run_episode(mdp, rng, k)[0] for k in range(E)]
    learner = fresh("advantage")
    t0 = ns()
    for traj in trajs:
        replay_into(learner, traj)
    out["replay"] = (ns() - t0) / steps
    del trajs

    initial = fresh("advantage")
    policy = initial.greedy_actions_flat()
    actor, rng = sq.FrozenActor(policy, mdp.S), stream()
    t0 = ns()
    for k in range(E):
        sq.sample_episode(mdp, actor, rng, k)
    out["frozen_sample"] = (ns() - t0) / steps

    # Audit calls, for workloads whose driver makes none of them.
    out["policy_eval"] = per_call_ns(
        lambda: sq.PolicyValueCache(mdp).values(policy), CAL_CALLS)
    out["optimism"] = per_call_ns(
        lambda: sq.check_optimism(initial.q_array(), vstar.Q), CAL_CALLS)
    tracker = sq.SwitchTracker()
    flipped = [1 - a for a in policy]
    out["switch"] = per_call_ns(
        lambda: (tracker.record(policy), tracker.record(flipped)),
        CAL_CALLS) / 2
    return out


COUNTERS = ("loop_ns", "learn_ns", "snapshot_calls", "snapshot_ns",
            "switch_calls", "switch_ns", "cache_calls", "eval_calls",
            "eval_ns", "cache_entries", "optimism_calls", "optimism_ns",
            "q_change_eps", "episodes", "generated", "consumed", "rounds",
            "sample_ns", "replay_ns", "replay_steps", "stage_ends",
            "q_updates", "refs_fixed", "records_count", "records_bytes",
            "write_ns", "bytes_written")


def traced(sq, w: Workload, out: Path, mdp, vstar) -> dict:
    c = dict.fromkeys(COUNTERS, 0)
    cum_regret = []
    t0 = ns()
    if w.kind == "sweep":
        ks = sorted({max(1, round(w.episodes * m)) for m in T_MULTS})
        rows = []
        for seed in w.seeds:
            cfg = replace(w.config(sq, seed), episodes=ks[-1])
            res = traced_experiment(sq, cfg, c)
            marks = sq.checkpoint_regrets(res.records, ks)
            rows += [(k * res.mdp.H, seed, marks[k]) for k in ks]
            cum_regret.append(marks[ks[-1]])
        steps = ks[-1] * mdp.H * len(w.seeds)
        driver_ns = ns() - t0
        write_timed(c, out, sq.write_sweep_csv, rows, out / "sweep.csv")
    elif w.kind == "run":
        from stageq.harness import write_run_outputs
        res = traced_experiment(sq, w.config(sq, w.seeds[0]), c)
        cum_regret.append(res.summary.cum_regret)
        write_timed(c, out, write_run_outputs, res, out)
        steps = res.summary.steps
        driver_ns = ns() - t0
    else:
        steps = traced_concurrent(sq, w, out, c)
        driver_ns = ns() - t0

    cal = calibrate(sq, w, mdp, vstar)
    H = mdp.H

    def ratio(num, den):
        return num / den if den else 0.0

    def in_run(total_ns, calls, fallback):
        return total_ns / calls if calls else fallback

    layers = {
        "mdp.sample_ns_per_step": cal["oracle"],
        "mdp.policy_eval_calls": c["eval_calls"],
        "mdp.policy_eval_ns": in_run(c["eval_ns"], c["eval_calls"],
                                     cal["policy_eval"]),
        "advantage.episode_ns_per_step": cal["advantage"],
        "advantage.learn_ns_per_step": cal["advantage"] - cal["oracle"],
        "advantage.replay_ns_per_step": in_run(c["replay_ns"],
                                               c["replay_steps"],
                                               cal["replay"]),
        "baselines.qucb_episode_ns_per_step": cal["classic-qucb"],
        "baselines.hoeffding_episode_ns_per_step": cal["hoeffding-stage"],
        "base.snapshot_calls": c["snapshot_calls"],
        "base.snapshot_ns": in_run(c["snapshot_ns"], c["snapshot_calls"], 0),
        "learner.q_change_frac": ratio(c["q_change_eps"], c["episodes"]),
        "learner.stage_ends": c["stage_ends"],
        "learner.q_updates": c["q_updates"],
        "learner.refs_fixed": c["refs_fixed"],
        "metrics.optimism_ns": in_run(c["optimism_ns"], c["optimism_calls"],
                                      cal["optimism"]),
        "metrics.switch_ns": in_run(c["switch_ns"], c["switch_calls"],
                                    cal["switch"]),
        "metrics.policy_cache_hit_ratio": ratio(
            c["cache_calls"] - c["eval_calls"], c["cache_calls"]),
        "metrics.policy_cache_entries": c["cache_entries"],
        "harness.audit_share": ratio(c["loop_ns"] - c["learn_ns"],
                                     c["loop_ns"]),
        "harness.records_count": c["records_count"],
        "harness.records_bytes": c["records_bytes"],
        "harness.write_s": c["write_ns"] / 1e9,
        "harness.bytes_written": c["bytes_written"],
        "concurrent.rounds": c["rounds"],
        "concurrent.consumed_ratio": ratio(c["consumed"], c["generated"]),
        "concurrent.sample_ns_per_step": in_run(
            c["sample_ns"], c["generated"] * H if c["rounds"] else 0,
            cal["frozen_sample"]),
    }
    return dict(driver_ns=driver_ns, steps=steps, cum_regret=cum_regret,
                layers=layers)


# -------------------------------------------------------------------- main

def main(argv) -> int:
    name, seed, mode, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    if mode not in ("plain", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = ns()
    import stageq as sq
    setup = {"import_s": (ns() - t0) / 1e9}
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(sq.__file__).resolve().parents:
        raise SystemExit(f"stageq imported from {sq.__file__}, not {src}")

    w = make_workload(sq, name, seed)
    t0 = ns()
    mdp = w.env.build()
    t1 = ns()
    sq.validate(mdp)
    t2 = ns()
    vstar, _ = sq.backward_induction(mdp)
    t3 = ns()
    sq.make_learner(w.algo, mdp, w.constants, n_max=w.n_max(mdp), cb=w.cb)
    t4 = ns()
    setup.update(build_s=(t1 - t0) / 1e9, validate_s=(t2 - t1) / 1e9,
                 solve_s=(t3 - t2) / 1e9, learner_init_s=(t4 - t3) / 1e9)

    out.mkdir(parents=True, exist_ok=True)
    if mode == "plain":
        ref_before = host_reference_s()
        result = plain(sq, w, out)
        result["ref_s"] = [ref_before, host_reference_s()]
    else:
        result = traced(sq, w, out, mdp, vstar)
        result["layers"].update({"mdp.validate_s": setup["validate_s"],
                                 "mdp.solve_s": setup["solve_s"],
                                 "stages.learner_init_s":
                                     setup["learner_init_s"]})
    result.update(setup=setup, digests=digests(out),
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
