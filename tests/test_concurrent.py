import hashlib
import json
import math
import signal
import tracemalloc
from array import array
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import assert_view_matches, sample_then_replay_concurrent

from stageq import (AlgoConstants, BudgetTooSmall, ConcurrentConfig,
                    EnvSpec, FrozenActor, InitialStates, OracleAgent, OutOfRangeError,
                    UcbAdvantageLearner, build_schedule,
                    make_learner, make_random_mdp, round_count_bound,
                    run_concurrent, run_concurrent_experiment, seeded_stream,
                    RoundLog, UniformStream, write_rounds_csv)
from stageq import concurrent
from stageq.concurrent import ROUNDS_CSV_HEADER, round_columns
from stageq.metrics import Table

ROOT = Path(__file__).resolve().parent.parent
REDUCED = AlgoConstants(p=0.1, c1=0.2, c2=0.2, c3=0.05)


def _run(mdp, cc, constants=REDUCED, seed=0, init=InitialStates.fixed(0)):
    n_max = (cc.budget(mdp.S, mdp.A, mdp.H) + cc.agents) * mdp.H + 1
    lr = UcbAdvantageLearner(mdp, constants, n_max=n_max)
    return run_concurrent(mdp, lr, cc,
                          seeded_stream(seed, 0, "env"),
                          seeded_stream(seed, 0, "policy-pick"), init)


# ----------------------------------------------------------------- budget

def test_budget_formula():
    cc = ConcurrentConfig(agents=4, epsilon=0.1, c5=1.0)
    S, A, H = 2, 2, 3
    raw = 2 * 2 * 27 * math.log(12 / 0.1) / 0.01
    assert cc.budget(S, A, H) == math.ceil(raw)
    assert ConcurrentConfig(k_eps_override=37.2).budget(S, A, H) == 38


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        ConcurrentConfig(k_eps_override=0.0).budget(2, 2, 2)
    with pytest.raises(BudgetTooSmall):
        # epsilon >= S*A*H makes the log factor non-positive
        ConcurrentConfig(epsilon=8.0).budget(2, 2, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        ConcurrentConfig(agents=0)
    for bad in (0.0, -0.1, float("inf"), float("nan")):
        # inf once reached budget's log(S*A*H/epsilon) as a bare domain error
        with pytest.raises(ValueError, match="epsilon"):
            ConcurrentConfig(epsilon=bad)
    for bad in (-1.0, float("inf")):
        with pytest.raises(ValueError, match="c5"):
            ConcurrentConfig(c5=bad)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="k_eps_override"):
            ConcurrentConfig(k_eps_override=bad)


# ------------------------------------------------------------- accounting

def test_round_accounting_invariants():
    mdp = make_random_mdp(3, 2, 4, seed=0)
    cc = ConcurrentConfig(agents=4, k_eps_override=600)
    res = _run(mdp, cc, seed=1, init=InitialStates.seeded(3))

    assert res.budget == 600
    assert res.total_consumed >= res.budget
    assert res.total_consumed - res.budget < cc.agents  # overshoot < M
    assert res.total_generated == cc.agents * len(res.rounds)
    assert sum(r.consumed for r in res.rounds) == res.total_consumed

    update_rounds = 0
    for i, r in enumerate(res.rounds):
        assert r.round == i + 1
        assert 1 <= r.consumed <= cc.agents
        if r.consumed < cc.agents:
            assert r.update_triggered  # early break only on an update
        assert r.policy_version == update_rounds
        if r.update_triggered:
            update_rounds += 1
    assert update_rounds == res.update_rounds
    assert update_rounds > 0  # non-vacuous with reduced constants

    assert len(res.rounds) <= round_count_bound(res.update_rounds, res.budget, cc.agents)
    # every round except the last begins strictly under budget
    partial = 0
    for r in res.rounds[:-1]:
        partial += r.consumed
        assert partial < res.budget


def test_all_rounds_full_when_learner_never_updates():
    mdp = make_random_mdp(2, 2, 3, seed=1)
    cc = ConcurrentConfig(agents=5, k_eps_override=40)
    res = _run(mdp, cc, constants=AlgoConstants())  # theory constants: inert here
    assert res.update_rounds == 0
    assert all(r.consumed == 5 and not r.update_triggered for r in res.rounds)
    assert len(res.rounds) == math.ceil(40 / 5)
    # frozen policy never moved, so the returned policy is the initial greedy
    assert np.all(res.output_policy.actions == 0)


def test_picked_trajectory_in_range_and_deterministic():
    mdp = make_random_mdp(3, 2, 4, seed=2)
    cc = ConcurrentConfig(agents=8, k_eps_override=200)
    a = _run(mdp, cc, seed=5)
    b = _run(mdp, cc, seed=5)
    assert 0 <= a.picked_trajectory < a.total_consumed
    assert a.picked_trajectory == b.picked_trajectory
    assert np.array_equal(a.output_policy.actions, b.output_policy.actions)
    assert a.rounds == b.rounds


def test_generation_order_indexes_initial_states():
    # cyclic starts spread across the agents in generation order: with
    # M=2 and cycle (0, 1), every round generates one episode from each
    # start state; with no updates everything is consumed, so layer-0
    # state visit counts split exactly evenly
    mdp = make_random_mdp(2, 2, 3, seed=3)
    cc = ConcurrentConfig(agents=2, k_eps_override=100)
    res = _run(mdp, cc, constants=AlgoConstants(), init=InitialStates.cyclic([0, 1]))
    assert res.update_rounds == 0
    n = res.learner.n_array()
    assert n[0, 0].sum() == 50
    assert n[0, 1].sum() == 50


def test_m1_round_stream_identical_to_single_agent():
    mdp, init = make_random_mdp(3, 2, 4, seed=4), InitialStates.seeded(11)
    cc = ConcurrentConfig(agents=1, k_eps_override=500)
    seed = 9
    res = _run(mdp, cc, constants=REDUCED, seed=seed, init=init)
    assert len(res.rounds) == 500  # M=1 consumes exactly one per round

    # replay live: same learner config, same env stream, same episode order
    n_max = (500 + 1) * mdp.H + 1
    live = UcbAdvantageLearner(mdp, REDUCED, n_max=n_max)
    rng = seeded_stream(seed, 0, "env")
    live_changed = []
    for k in range(500):
        _, report = live.run_episode(mdp, rng, k, init)
        live_changed.append(report.q_changed)

    assert [r.update_triggered for r in res.rounds] == live_changed
    conc = res.learner
    assert conc._q == live._q
    assert conc._v == live._v
    assert conc._vref == live._vref
    assert conc._n == live._n
    assert conc.q_update_count == live.q_update_count
    assert conc.ref_fixed_count == live.ref_fixed_count


# ------------------------------------------- stretches against the reference

# fixed, seeded and cyclic starts; hoeffding-stage lowers Q in a test-sized
# run only at a short horizon, hence the H = 2 instances.  Some M = 8 runs
# (classic-qucb on the H = 5 instances, advantage with cyclic starts) skip
# a discarded batch across the end of the stream's block.
EQUIV_INSTANCES = [   # each makes (mdp, its runs' start states)
    ("fixed-4x3x5", lambda: (make_random_mdp(4, 3, 5, seed=0), InitialStates.fixed(0))),
    ("seeded-4x3x5", lambda: (make_random_mdp(4, 3, 5, seed=1), InitialStates.seeded(3))),
    ("cyclic-4x3x5", lambda: (make_random_mdp(4, 3, 5, seed=2),
                              InitialStates.cyclic([0, 1, 2, 3]))),
    ("fixed-3x4x2", lambda: (make_random_mdp(3, 4, 2, seed=3), InitialStates.fixed(0))),
    ("seeded-3x4x2", lambda: (make_random_mdp(3, 4, 2, seed=3), InitialStates.seeded(5))),
]
TIGHT = AlgoConstants(p=0.5, c1=0.05, c2=0.05, c3=0.01, n0_override=60)
STATE = ("_q", "_v", "_vref", "_n", "_nchk", "_mu_chk", "_ups_chk", "_sig_chk",
         "_mu_ref", "_sig_ref", "_n_state", "_ref_fixed", "_greedy",
         "stage_end_count", "q_update_count", "ref_fixed_count", "reference_wins")


def learner_state(lr):
    """Every table and counter the learner has."""
    return {name: getattr(lr, name) for name in STATE if hasattr(lr, name)}


class FixedPick(UniformStream):
    """A pick stream whose one draw is u (integers scales it as the
    seeded stream's does)."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.fixture(scope="module")
def references():
    """sample_then_replay_concurrent's runs by case: each is computed once
    and compared against by both paths' runs of the case."""
    return {}


def run_both(mdp, algo, cc, n_max, seed=0, u=None, references=None, case=None,
             init=InitialStates.fixed(0)):
    """(result, next env uniform, learner, greedy snapshots taken) from
    run_concurrent, then the reference, each on a fresh learner, with the
    seeded pick stream or one that draws u; a raised OutOfRangeError stands
    in for the result.  Given references, the reference is run only the
    first time its case key is seen, and kept there."""
    def run(runner):
        lr = make_learner(algo, mdp, TIGHT, n_max=n_max, cb=0.05)
        snapshots = count_snapshots(lr)
        env = seeded_stream(seed, 0, "env")
        pick = seeded_stream(seed, 0, "policy-pick") if u is None else FixedPick(u)
        try:
            res = runner(mdp, lr, cc, env, pick, init)
        except OutOfRangeError as exc:
            res = exc.n
        return res, env.random(), lr, snapshots

    got = run(run_concurrent)
    if references is None:
        return [got, run(sample_then_replay_concurrent)]
    if case not in references:
        references[case] = run(sample_then_replay_concurrent)
    return [got, references[case]]


def count_snapshots(lr):
    """A list whose length counts lr.greedy_actions_flat calls from now on."""
    calls, snapshot = [], lr.greedy_actions_flat

    def counted():
        calls.append(None)
        return snapshot()

    lr.greedy_actions_flat = counted
    return calls


def assert_runs_match(both, path):
    (got, u_got, lr, _), (want, u_want, lr_ref, _) = both
    assert (lr._lib is not None) == (path == "kernel")
    assert got.rounds == want.rounds
    for name in ("budget", "total_consumed", "total_generated", "update_rounds",
                 "picked_trajectory"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.output_policy.actions, want.output_policy.actions)
    assert learner_state(lr) == learner_state(lr_ref)
    assert u_got == u_want     # the stream stands where sampling left it


def window_starts(res, M, u):
    """The consumed counts at which res's rounds start inside the pick
    window [int(u * budget) - M + 1, int(u * (budget + M - 1))]."""
    lo, hi = int(u * res.budget), int(u * (res.budget + M - 1))
    starts = accumulate((r.consumed for r in res.rounds[:-1]), initial=0)
    return [c for c in starts if lo - M + 1 <= c <= hi]


# the pick stream's one draw at both ends of [0, 1) and inside it
PICK_US = [0.0, 1e-9, 0.37, 0.999, 1 - 2 ** -53]
# (M, u): the seeded pick stream (u None), then each u of PICK_US
PICKS = [(M, None) for M in (1, 3, 8, 300)] + [(M, u) for M in (1, 3, 8, 300)
                                               for u in PICK_US]


@pytest.mark.parametrize("M,u", PICKS, ids=[str(M) if u is None else f"{M}-u{u}"
                                             for M, u in PICKS])
@pytest.mark.parametrize("algo", ["advantage", "hoeffding-stage", "classic-qucb"])
@pytest.mark.parametrize("make_mdp", [i[1] for i in EQUIV_INSTANCES],
                         ids=[i[0] for i in EQUIV_INSTANCES])
def test_stretch_rounds_match_sample_then_replay(make_mdp, algo, M, u, path, references):
    # run_concurrent keeps the greedy policy only at the round starts that
    # can hold the pick; a round of M = 300 spans two blocks of 256 start
    # states, and a budget of 400 puts the window past the first round
    budget = 400 if M == 300 else 300
    mdp, init = make_mdp()
    cc = ConcurrentConfig(agents=M, k_eps_override=budget)
    both = run_both(mdp, algo, cc, n_max=(budget + M) * mdp.H + 1, u=u,
                    references=references, case=(make_mdp, algo, M, u), init=init)
    assert_runs_match(both, path)
    (got, _, _, snapshots), (want, *_) = both
    assert got.update_rounds > 0 or algo == "hoeffding-stage" and mdp.H > 2
    if u is None:
        u = seeded_stream(0, 0, "policy-pick").random()
    assert len(snapshots) == len(window_starts(want, M, u)) <= 2 * M - 1


@pytest.mark.parametrize("algo", ["advantage", "hoeffding-stage"])
def test_out_of_range_raises_like_sample_then_replay(algo, path):
    mdp = make_random_mdp(3, 4, 2, seed=3)
    cc = ConcurrentConfig(agents=3, k_eps_override=300)
    (got, _, lr, _), (want, _, lr_ref, _) = run_both(mdp, algo, cc, n_max=40,
                                                     init=InitialStates.seeded(5))
    assert got == want == 41
    assert learner_state(lr) == learner_state(lr_ref)


def test_pick_on_the_last_trajectory_of_the_window_start_round(path):
    # a full round that starts at lo - M + 1 holds the pick as its last
    # trajectory, lo itself, so the window's first round start is the pick's
    (mdp, init), M, budget = dict(EQUIV_INSTANCES)["seeded-3x4x2"](), 8, 300
    cc = ConcurrentConfig(agents=M, k_eps_override=budget)
    n_max = (budget + M) * mdp.H + 1
    ref = run_both(mdp, "advantage", cc, n_max, init=init)[1][0]
    T = ref.total_consumed
    c = max(c for r, c in zip(ref.rounds, accumulate((r.consumed for r in ref.rounds),
                                                     initial=0))
            if r.consumed == M and (c + M - 1) * T < (c + M) * budget)
    u = ((c + M - 1) / budget + (c + M) / T) / 2
    assert c > 0 and int(u * budget) - M + 1 == c and int(u * T) == c + M - 1
    both = run_both(mdp, "advantage", cc, n_max, u=u, init=init)
    assert_runs_match(both, path)
    (got, _, _, snapshots), (want, *_) = both
    assert got.picked_trajectory == c + M - 1
    assert window_starts(want, M, u)[0] == c
    assert len(snapshots) == len(window_starts(want, M, u))


@pytest.mark.parametrize("budget", [20_000, 80_000])
def test_greedy_snapshots_stay_within_two_rounds(budget):
    # classic-qucb changes Q in every episode, so every round consumes one
    # trajectory and starts at every consumed count below the budget: the
    # policy is kept at each one in the window, 2M - 1 of them at most,
    # which u = (budget - 1) / (budget + M - 1) reaches
    mdp, M = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2).build(), 8
    cc = ConcurrentConfig(agents=M, k_eps_override=budget)
    kept = []
    for u in (0.0, 0.37, (budget - 1) / (budget + M - 1), 1 - 2 ** -53):
        lr = make_learner("classic-qucb", mdp, AlgoConstants(p=0.1), n_max=1, cb=0.01)
        snapshots = count_snapshots(lr)
        res = run_concurrent(mdp, lr, cc, seeded_stream(0, 0, "env"), FixedPick(u))
        assert res.update_rounds == len(res.rounds) == budget
        lo, hi = int(u * budget), int(u * (budget + M - 1))
        window = range(max(lo - M + 1, 0), min(hi, budget - 1) + 1)
        assert len(snapshots) == len(window)
        kept.append(len(snapshots))
    assert max(kept) == 2 * M - 1


def test_round_log_memory_is_the_change_indices():
    # classic-qucb updates in every round, so the round log is as long as
    # the budget: the run keeps it as 8-byte change indices, and the
    # tracemalloc peak at a budget of 80,000 is the one at 20,000 plus
    # those of the 60,000 added update rounds and at most 64 KiB
    mdp, M = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2).build(), 8
    peaks, updates = [], []
    for budget in (20_000, 80_000):
        lr = make_learner("classic-qucb", mdp, AlgoConstants(p=0.1), n_max=1, cb=0.01)
        tracemalloc.start()
        res = run_concurrent(mdp, lr, ConcurrentConfig(agents=M, k_eps_override=budget),
                             seeded_stream(0, 0, "env"), seeded_stream(0, 0, "policy-pick"))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        updates.append(res.update_rounds)
    assert updates == [20_000, 80_000]
    assert peaks[1] - peaks[0] <= 8 * (updates[1] - updates[0]) + 2 ** 16


@pytest.fixture(scope="module")
def qucb_round_logs():
    """The rounds of the classic-qucb M = 8 runs above (every round an
    update round) at budgets 20,000 and 80,000, each unread."""
    mdp, M = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2).build(), 8
    return [run_concurrent(mdp, make_learner("classic-qucb", mdp, AlgoConstants(p=0.1),
                                             n_max=1, cb=0.01),
                           ConcurrentConfig(agents=M, k_eps_override=budget),
                           seeded_stream(0, 0, "env"), seeded_stream(0, 0, "policy-pick")).rounds
            for budget in (20_000, 80_000)]


def test_writing_rounds_csv_holds_one_window_whatever_the_round_count(qucb_round_logs, path,
                                                                      tmp_path):
    # the tracemalloc peak of write_rounds_csv alone is that of one window
    # of rounds: at 80,000 rounds it is the one at 20,000 plus at most 64
    # KiB, where all of the added rounds' columns would be 32 B a round
    peaks = []
    for rounds in qucb_round_logs:
        tracemalloc.start()
        write_rounds_csv(rounds, tmp_path / "rounds.csv")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert list(map(len, qucb_round_logs)) == [20_000, 80_000]
    assert peaks[1] - peaks[0] <= 2 ** 16


def test_rounds_m8_calls_end_at_start_blocks_or_the_limit(path):
    # rounds-m8's instance at a smaller budget.  A call, the kernel's and
    # the Python path's alike, plays through Q changes and ends at a round
    # start that reaches the call's consumed limit, or at the end of its
    # block of 256 start states (past it after a skip).  The limit
    # moves to the pick window's first round start, then one round at a
    # time through the window (at most 2M - 1 rounds), then to the budget.
    mdp = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2).build()
    M = 8
    cc = ConcurrentConfig(agents=M, k_eps_override=4000)
    lr = make_learner("advantage", mdp,
                      AlgoConstants(n0_override=400, p=0.1, c1=1.2, c2=1.2, c3=0.06),
                      n_max=(4000 + M) * mdp.H + 1)
    ends, per_call = Counter(), []
    run_rounds = lr.run_rounds

    def counted(mdp, rng, first, agents, consumed, limit, changes, init):
        n = len(changes)
        played, consumed = run_rounds(mdp, rng, first, agents, consumed, limit, changes, init)
        per_call.append(len(changes) - n)
        end = first + played
        if end % agents == 0 and consumed >= limit:
            ends["limit"] += 1
        elif end >= (first // 256 + 1) * 256:
            ends["block"] += 1
        else:
            ends["other"] += 1
        return played, consumed

    lr.run_rounds = counted
    res = run_concurrent(mdp, lr, cc, seeded_stream(0, 0, "env"),
                         seeded_stream(0, 0, "policy-pick"))
    calls = len(per_call)
    assert ends["other"] == 0 and ends["limit"] >= 2
    assert sum(per_call) == res.update_rounds > 0
    assert ends["block"] > 0
    assert calls <= math.ceil(res.total_generated / 256) + 2 * M
    assert max(per_call) > 1      # Q changes do not end a call


# perfbench/digests.json's rounds.csv digests for the rounds-m8 workload,
# and each run's pick and output policy (flat by (h, s))
ROUNDS_M8_PINS = {
    0: (25967, "20000000001210020012120111122112110221221012021020210111121201112202100001221221"),
    1: (26316, "10000000001210020022000111122112112220021012021020200111121200112202000001221222"),
}


@pytest.mark.parametrize("seed", sorted(ROUNDS_M8_PINS))
def test_rounds_m8_driver_matches_recorded_digests(seed, path, tmp_path):
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    env = EnvSpec(kind="random", S=10, A=3, H=8, env_seed=2)
    cc = ConcurrentConfig(agents=8, epsilon=0.1, k_eps_override=32_000)
    res = run_concurrent_experiment(
        env, cc, algo="advantage", seed=seed, out_dir=tmp_path,
        constants=AlgoConstants(n0_override=400, p=0.1, c1=1.2, c2=1.2, c3=0.06))
    digest = hashlib.sha256((tmp_path / "rounds.csv").read_bytes()).hexdigest()
    assert {"rounds.csv": digest} == recorded["digests"]["rounds-m8"][str(seed)]
    pick, policy = ROUNDS_M8_PINS[seed]
    assert res.picked_trajectory == pick
    assert "".join(map(str, res.output_policy.actions.ravel().tolist())) == policy


def test_frozen_actor_plays_table():
    actor = FrozenActor([1, 0, 2, 1], S=2)
    assert actor.select_action(0, 0) == 1
    assert actor.select_action(0, 1) == 0
    assert actor.select_action(1, 0) == 2
    assert not hasattr(actor, "observe")


def test_rounds_csv_golden(tmp_path):
    mdp = make_random_mdp(2, 2, 3, seed=1)
    cc = ConcurrentConfig(agents=5, k_eps_override=13)
    res = _run(mdp, cc, constants=AlgoConstants())
    path = tmp_path / "rounds.csv"
    write_rounds_csv(res.rounds, path)
    text = path.read_text().splitlines()
    assert text[0] == ROUNDS_CSV_HEADER
    assert text[1] == "1,5,0,0"
    assert len(text) == 1 + len(res.rounds)


def rounds_against_the_reference(make_mdp, algo, M, budget, seed=0):
    """run_concurrent's rounds view and the RoundLog list the reference
    builds, each from a fresh learner."""
    mdp, init = make_mdp()
    cc = ConcurrentConfig(agents=M, k_eps_override=budget)
    views = []
    for runner in (run_concurrent, sample_then_replay_concurrent):
        lr = make_learner(algo, mdp, TIGHT, n_max=(budget + M) * mdp.H + 1, cb=0.05)
        views.append(runner(mdp, lr, cc, seeded_stream(seed, 0, "env"),
                            seeded_stream(seed, 0, "policy-pick"), init).rounds)
    return views


def assert_rounds_csv_matches(view, rows, path):
    """write_rounds_csv of the view, and of the plain list, against
    "%d,%d,%d,%d" over the list's RoundLog rows."""
    want = ROUNDS_CSV_HEADER + "\n" + "".join(
        "%d,%d,%d,%d\n" % (r.round, r.consumed, r.update_triggered, r.policy_version)
        for r in rows)
    for given_rows in (view, rows):
        write_rounds_csv(given_rows, path)
        assert path.read_bytes() == want.encode()


ROUNDS_CASES = {
    "no-change": ("fixed-4x3x5", "hoeffding-stage", 3, 30,
                  lambda rows: not any(r.update_triggered for r in rows)),
    "change-at-0": ("fixed-4x3x5", "classic-qucb", 3, 30,
                    lambda rows: rows[0].update_triggered and rows[0].consumed == 1),
    "every-round": ("fixed-4x3x5", "advantage", 5, 60,
                    lambda rows: all(r.update_triggered for r in rows)
                    and any(r.consumed > 1 for r in rows)),
    "M1": ("fixed-4x3x5", "advantage", 1, 60,
           lambda rows: 0 < sum(r.update_triggered for r in rows) < len(rows)),
    "M300-budget-50": ("seeded-3x4x2", "hoeffding-stage", 300, 50,
                       lambda rows: len(rows) == 1 and rows[0].update_triggered),
    "update-in-last": ("fixed-4x3x5", "advantage", 3, 30,
                       lambda rows: rows[-1].update_triggered
                       and not all(r.update_triggered for r in rows)),
}


@pytest.mark.parametrize("case", sorted(ROUNDS_CASES))
def test_rounds_view_and_csv_match_the_reference_list(case, path, tmp_path):
    inst, algo, M, budget, holds = ROUNDS_CASES[case]
    view, rows = rounds_against_the_reference(dict(EQUIV_INSTANCES)[inst], algo, M, budget)
    assert isinstance(rows, list) and holds(rows)
    assert_view_matches(view, rows)
    assert_rounds_csv_matches(view, rows, tmp_path / "rounds.csv")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([i[1] for i in EQUIV_INSTANCES]),
       st.sampled_from(["advantage", "hoeffding-stage", "classic-qucb"]),
       st.sampled_from([1, 2, 3, 5, 8, 300]), st.integers(1, 60), st.integers(0, 3),
       st.data())
def test_rounds_view_and_csv_match_the_reference_property(tmp_path_factory, make_mdp, algo,
                                                          M, budget, seed, data):
    view, rows = rounds_against_the_reference(make_mdp, algo, M, budget, seed)
    n = len(rows)
    index, bound = st.integers(-n, n - 1), st.integers(-n - 2, n + 2)
    assert_view_matches(view, rows, {"at": [data.draw(index)],
                                     "slices": [(data.draw(bound), data.draw(bound))]})
    assert_rounds_csv_matches(view, rows, tmp_path_factory.mktemp("rounds") / "rounds.csv")


def test_rounds_csv_windows_match_the_reference_list(monkeypatch, path, tmp_path):
    # windows of 3 rounds of M = 3: changes on the first and last round of
    # the first window, none in the second, the last round of the third
    # and in the lone round of the last
    monkeypatch.setattr(concurrent, "ROUND_WINDOW", 3)
    changed = {1: 1, 3: 3, 9: 1, 10: 2}                 # round: consumed
    rows = [RoundLog(r, changed.get(r, 3), r in changed, sum(c < r for c in changed))
            for r in range(1, 11)]
    view = Table(RoundLog, (array("q", [0, 8, 24, 28]), 30, 3), round_columns)
    assert_view_matches(view, rows)
    assert [tuple(map(type, vars(r).values())) for r in view] == [(int, int, bool, int)] * 10
    assert_rounds_csv_matches(view, rows, tmp_path / "rounds.csv")


def test_rounds_csv_of_no_rounds_is_the_header_alone(path, tmp_path):
    # as write_episode_csv([], path) writes
    write_rounds_csv([], tmp_path / "rounds.csv")
    assert (tmp_path / "rounds.csv").read_text() == ROUNDS_CSV_HEADER + "\n"


def test_rounds_csv_rejects_rows_that_are_no_round_log(path, tmp_path):
    rows = [RoundLog(1, 3, False, 0), RoundLog(2, 2, True, 0), RoundLog(3, 3, False, 1)]
    write_rounds_csv(rows, tmp_path / "rounds.csv")
    assert (tmp_path / "rounds.csv").read_text().splitlines()[1:] == ["1,3,0,0", "2,2,1,0",
                                                                      "3,3,0,1"]
    for bad in ([RoundLog(2, 3, False, 0)],                              # not from round 1
                [RoundLog(1, 3, False, 0), RoundLog(3, 3, False, 0)],    # a round skipped
                [RoundLog(1, 3, False, 0), RoundLog(2, 2, False, 0)],    # short, no update
                [RoundLog(1, 2, True, 0), RoundLog(2, 3, False, 0)],     # version not raised
                [RoundLog(5, 1, True, 0), RoundLog(1, 1, True, 0)]):     # out of order
        with pytest.raises(ValueError, match="round log"):
            write_rounds_csv(bad, tmp_path / "rounds.csv")


def test_rounds_csv_of_a_plain_list_builds_no_round_log(monkeypatch, path, tmp_path):
    # the plain list's rows are checked column by column against the log
    # their change indices give: no RoundLog is made while they are
    # written, and the bytes are the view's
    mdp, M = make_random_mdp(4, 3, 5, seed=0), 3
    view = _run(mdp, ConcurrentConfig(agents=M, k_eps_override=300)).rounds
    rows = list(view)
    assert 0 < sum(r.update_triggered for r in rows) < len(rows)
    made, init = [], RoundLog.__init__

    def counted(self, *args, **kw):
        made.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(RoundLog, "__init__", counted)
    write_rounds_csv(view, tmp_path / "view.csv")
    write_rounds_csv(rows, tmp_path / "rows.csv")
    assert made == []
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "view.csv").read_bytes()


def test_harness_wrapper_runs_and_writes(tmp_path):
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    cc = ConcurrentConfig(agents=3, k_eps_override=30)
    res = run_concurrent_experiment(env, cc, seed=2, out_dir=tmp_path)
    assert (tmp_path / "rounds.csv").exists()
    assert res.total_consumed >= 30


def test_oracle_agent_runs_rounds():
    # the oracle never learns: every round is full and the output policy
    # is the optimal one
    env = EnvSpec(kind="random", S=2, A=2, H=3, env_seed=0)
    cc = ConcurrentConfig(agents=3, k_eps_override=30)
    res = run_concurrent_experiment(env, cc, algo="oracle", seed=2)
    assert res.update_rounds == 0 and len(res.rounds) == 10
    assert res.output_policy.actions.ravel().tolist() == res.learner.greedy_actions_flat()


def test_run_rounds_that_never_end_at_a_round_start_raise():
    # each call after the first ends one episode past a round start, as a
    # round skip one episode too long would: the runner never sees a round
    # start again, and must raise once consumed passes budget + M - 1
    # rather than loop for ever (the alarm fails the test if it hangs)
    class OffRound(OracleAgent):
        def run_rounds(self, mdp, rng, first, agents, consumed, limit, changes, init):
            played = agents if first % agents else agents + 1
            return played, consumed + played

    def hung(signum, frame):
        raise TimeoutError("run_concurrent did not return")

    mdp = make_random_mdp(2, 2, 3, seed=0)
    cc = ConcurrentConfig(agents=3, k_eps_override=30)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(RuntimeError, match="round start"):
            run_concurrent(mdp, OffRound(mdp), cc, seeded_stream(0, 0, "env"),
                           seeded_stream(0, 0, "policy-pick"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
