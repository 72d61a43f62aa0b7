import hashlib
from dataclasses import fields

import numpy as np
import pytest

from stageq import (EPISODE_CSV_HEADER, EpisodeRecord, RoundLog, build_schedule, kernel,
                    load_mdp, make_random_mdp, save_mdp)
from stageq.cli import build_parser, main
from stageq.concurrent import ROUNDS_CSV_HEADER
from stageq.harness import CONFIG_KEYS
from stageq.metrics import PolicyValueCache


def test_schedule_stdout_matches_library(capsys):
    assert main(["schedule", "--H", "2", "--n-max", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,e_i,end_i"
    sched = build_schedule(2, 50)
    got = [tuple(int(x) for x in row.split(",")) for row in lines[1:]]
    assert got == [(i + 1, e, t) for i, (e, t)
                   in enumerate(zip(sched.lengths, sched.ends))]
    assert [e for _, e, _ in got] == [2, 3, 4, 6, 9, 13, 19]


def test_schedule_to_file(tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--H", "4", "--n-max", "30", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "1,4,4"


def test_run_writes_outputs_and_repeats_identically(tmp_path, capsys):
    args = ["run", "--env", "random", "--S", "2", "--A", "2", "--H", "3",
            "--env-seed", "1", "--algo", "classic-qucb", "--episodes", "60",
            "--seed", "9", "--strict"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("episodes.csv", "snapshot_q.csv", "snapshot_v.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    head = (tmp_path / "a" / "episodes.csv").read_text().splitlines()[0]
    assert head == ("k,episode_regret,cum_regret,cum_switching_cost,"
                    "cum_q_updates,cum_optimism_violations,ref_states_fixed")
    out = capsys.readouterr().out
    assert "cum_regret=" in out and "episodes=60" in out


def test_config_file_with_cli_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("env = random\nS = 2\nA = 2\nH = 2\nenv_seed = 3\n"
                   "algo = classic-qucb\nepisodes = 50\nseed = 4\n")
    assert main(["run", "--config", str(cfg), "--episodes", "20"]) == 0
    out = capsys.readouterr().out
    assert "episodes=20" in out  # flag beats file
    assert main(["run", "--config", str(cfg)]) == 0
    assert "episodes=50" in capsys.readouterr().out


def test_bad_values_exit_2(tmp_path, capsys):
    assert main(["run", "--env", "jao", "--H", "8", "--episodes", "5"]) == 2
    assert "delta" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "banana" in capsys.readouterr().err
    assert main(["run", "--env", "file:/nope/missing.mdp"]) == 2
    with pytest.raises(SystemExit) as ei:   # argparse rejects bad choices itself
        main(["run", "--algo", "dqn"])
    assert ei.value.code == 2


def test_sweep_stdout(capsys):
    assert main(["sweep", "--env", "random", "--S", "2", "--A", "2", "--H", "2",
                 "--env-seed", "0", "--algo", "classic-qucb", "--episodes", "40",
                 "--t-mults", "0.5,1.0", "--seeds", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "T,seed,cum_regret"
    assert len(lines) == 1 + 4
    assert lines[1].split(",")[0] == "40"   # T = k*H


def test_sweep_checkpoint_rounds_the_exact_product_half_to_even(capsys):
    # episodes times the multiplier's double, exactly, rounded half to
    # even: 0.3's double is a little below 3/10, so 853725 x 0.3 keeps
    # checkpoint 256117, where the float product (256117.5) would round to
    # 256118; 5 x 0.5 and 5 x 1.5 are ties, kept as 2 and 8
    base = ["sweep", "--env", "random", "--S", "2", "--A", "2", "--H", "2", "--seeds", "0"]
    for episodes, mults, checkpoints in (("853725", "0.3", [256117]),
                                         ("5", "0.5,1.5", [2, 8])):
        assert main(base + ["--episodes", episodes, "--t-mults", mults]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [2 * k for k in checkpoints]


def test_sweep_to_dir(tmp_path):
    assert main(["sweep", "--env", "random", "--S", "2", "--A", "2", "--H", "2",
                 "--env-seed", "0", "--algo", "classic-qucb", "--episodes", "20",
                 "--seeds", "0", "--out", str(tmp_path / "sw")]) == 0
    body = (tmp_path / "sw" / "sweep.csv").read_text()
    assert body.startswith("T,seed,cum_regret\n")


def test_concurrent_cli(tmp_path, capsys):
    assert main(["concurrent", "--env", "random", "--S", "2", "--A", "2",
                 "--H", "2", "--env-seed", "0", "--agents", "4",
                 "--k-eps-override", "30", "--seed", "0",
                 "--out", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    assert "agents=4" in out and "budget=30" in out
    rows = (tmp_path / "c" / "rounds.csv").read_text().splitlines()
    assert rows[0] == "round,consumed,update_triggered,policy_version"
    assert rows[1].startswith("1,")
    assert main(["concurrent", "--env", "random", "--S", "2", "--A", "2",
                 "--H", "2", "--k-eps-override", "0"]) == 2


def test_solve_stdout_and_save(tmp_path, capsys):
    assert main(["solve", "--env", "jao", "--H", "3", "--delta", "0.4",
                 "--jao-epsilon", "0.1", "--env-seed", "7",
                 "--save-mdp", str(tmp_path / "j.mdp"),
                 "--out", str(tmp_path / "sol")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("saved environment to ")
    assert lines[1] == "h,s,V_star,action_star"
    assert lines[-1].startswith("wrote optimal tables to ")
    rows = lines[2:-1]
    assert len(rows) == 3 * 2
    assert "np.float64" not in "".join(lines)
    mdp = load_mdp(tmp_path / "j.mdp")
    assert (mdp.S, mdp.A, mdp.H) == (2, 2, 3)
    vstar = (tmp_path / "sol" / "vstar.csv").read_text().splitlines()
    assert vstar[0] == "h,s,V"
    assert len(vstar) == 1 + (3 + 1) * 2   # boundary layer included
    qstar = (tmp_path / "sol" / "qstar.csv").read_text().splitlines()
    assert qstar[0] == "h,s,a,Q"
    assert len(qstar) == 1 + 3 * 2 * 2


def test_solve_roundtrip_values(tmp_path, capsys):
    mdp = make_random_mdp(3, 2, 3, seed=11)
    save_mdp(mdp, tmp_path / "m.mdp")
    assert main(["solve", "--env", str(tmp_path / "m.mdp")]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    from stageq import backward_induction
    tables, _ = backward_induction(mdp)
    first = lines[0].split(",")
    assert float(first[2]) == tables.V[0, 0]


def test_config_key_tables_match_flags():
    # every config key is a flag's dest and every flag's dest a config key,
    # except --config, which names the file the keys come from
    parser = build_parser()

    def dests(command):
        return set(vars(parser.parse_args([command]))) - {"command", "func", "config"}

    conc_keys = {k for k, row in CONFIG_KEYS.items() if row.field.startswith("conc.")}
    run_keys = set(CONFIG_KEYS) - conc_keys
    assert conc_keys == {"agents", "epsilon", "c5", "k_eps_override"}
    assert dests("run") == run_keys
    # sweep and concurrent leave out the run keys they never read
    assert dests("sweep") - {"t_mults", "seeds"} == run_keys - {"seed", "log_every"}
    assert dests("concurrent") == \
        (run_keys - {"episodes", "log_every", "strict"}) | conc_keys
    # solve reads the environment keys and out, plus its own --save-mdp
    assert dests("solve") - {"save_mdp"} == {
        "env", "S", "A", "H", "sparsity", "env_seed", "jao_epsilon", "delta",
        "init", "out"}


SMALL_ENV_ARGS = ["--env", "random", "--S", "2", "--A", "2", "--H", "2",
                  "--env-seed", "0"]
UNREAD = [("sweep", "--seed", "3"), ("sweep", "--log-every", "all"),
          ("concurrent", "--episodes", "10"),
          ("concurrent", "--log-every", "all"), ("concurrent", "--strict", None),
          ("solve", "--episodes", "5"), ("solve", "--algo", "classic-qucb"),
          ("solve", "--seed", "3")]


@pytest.mark.parametrize("command,flag,value", UNREAD,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD])
def test_unread_flag_is_rejected(capsys, command, flag, value):
    with pytest.raises(SystemExit) as ei:
        main([command] + SMALL_ENV_ARGS + [flag] + ([value] if value else []))
    assert ei.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", UNREAD,
                         ids=[f"{c}-{f[2:].replace('-', '_')}" for c, f, _ in UNREAD])
def test_unread_config_key_is_rejected(tmp_path, capsys, command, flag, value):
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value or 'true'}\n")
    extra = ["--k-eps-override", "30"] if command == "concurrent" else []
    assert main([command, "--config", str(cfg)] + SMALL_ENV_ARGS + extra) == 2
    assert repr(key) in capsys.readouterr().err
    # without the key the same command runs
    cfg.write_text("")
    assert main([command, "--config", str(cfg)] + SMALL_ENV_ARGS + extra) == 0


@pytest.mark.parametrize("command", ["run", "concurrent"])
@pytest.mark.parametrize("init", ["fixed:3", "fixed:-1", "cyclic:0,9"])
def test_out_of_range_initial_state_exits_2(capsys, command, init):
    extra = ["--k-eps-override", "30"] if command == "concurrent" else ["--episodes", "5"]
    assert main([command, "--S", "3", "--init", init] + extra) == 2
    assert "initial state" in capsys.readouterr().err


BAD_VALUES = [("run", ["--S", "0"], "S, A, H"), ("run", ["--A", "0"], "S, A, H"),
              ("run", ["--c1", "nan"], "c1"), ("run", ["--beta", "nan"], "beta"),
              ("run", ["--c4", "inf"], "c4"),
              ("run", ["--algo", "classic-qucb", "--cb", "nan"], "cb"),
              ("concurrent", ["--k-eps-override", "inf"], "k_eps_override"),
              ("concurrent", ["--epsilon", "inf"], "epsilon"),
              ("concurrent", ["--epsilon", "nan"], "epsilon"),
              ("concurrent", ["--c5", "inf"], "c5"),
              # budgets that leave the float range
              ("concurrent", ["--epsilon", "1e-200"], "epsilon"),
              ("concurrent", ["--epsilon", "1e300"], "epsilon"),
              ("concurrent", ["--c5", "1e308"], "epsilon"),
              # DIR: a directory where a file is expected, named in the error
              ("run", ["--env", "DIR"], "DIR"), ("run", ["--config", "DIR"], "DIR"),
              ("solve", ["--env", "DIR"], "DIR"),
              ("sweep", ["--t-mults=inf"], "--t-mults"),
              ("sweep", ["--t-mults=-1"], "--t-mults"),
              ("sweep", ["--t-mults=0.5,nan"], "--t-mults"),
              # negative seeds, named where they enter
              ("run", ["--seed", "-1"], "seed"), ("run", ["--env-seed", "-1"], "env_seed"),
              ("run", ["--init", "seeded:-1"], "init"),
              ("solve", ["--init", "seeded:-1"], "init"),
              ("sweep", ["--seeds", "0,-1"], "--seeds"),
              # visit ceilings past int64
              ("run", ["--H", "3", "--episodes", str(3 * 10**18)], "n_max"),
              ("sweep", ["--episodes", str(10**23)], "n_max"),
              # checkpoints in exact arithmetic: 10**23 episodes, not the float's
              ("sweep", ["--episodes", str(10**23), "--t-mults=1"], f"got {5 * 10**23 + 1}"),
              ("schedule", ["--H", "3", "--n-max", str(10**26)], "n_max"),
              ("concurrent", ["--k-eps-override", "1e30"], "n_max"),
              ("concurrent", ["--agents", str(10**20), "--k-eps-override", "10"], "n_max"),
              # 728 TiB, more than a 48-bit address space holds
              ("solve", ["--S", "100000", "--A", "1000", "--H", "10"], "allocate")]


@pytest.mark.parametrize("command,args,name", BAD_VALUES,
                         ids=[f"{c}{' '.join(a)}" for c, a, _ in BAD_VALUES])
def test_bad_values_exit_2_naming_the_key(capsys, tmp_path, command, args, name):
    args = [str(tmp_path) if a == "DIR" else a for a in args]
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (str(tmp_path) if name == "DIR" else name) in err


def test_unallocatable_mdp_file_exits_2(tmp_path, capsys):
    # a header of 71 PiB, more than a 48-bit address space holds
    huge = tmp_path / "huge.mdp"
    huge.write_text("100000 1000 1000\n")
    assert main(["solve", "--env", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err


def test_record_fields_follow_their_headers():
    # each header is its record's fields, in order: the writers read each
    # column by its header name
    assert ",".join(f.name for f in fields(EpisodeRecord)) == EPISODE_CSV_HEADER
    assert ",".join(f.name for f in fields(RoundLog)) == ROUNDS_CSV_HEADER


# SHA-256 of each output file, recorded while hoeffding-stage still had its
# own implementation; hoeffding-stage makes 44 Q updates on this config
PINNED_RUN = ["run", "--env", "random", "--S", "3", "--A", "4", "--H", "2",
              "--env-seed", "3", "--p", "0.5", "--c1", "0.05", "--c2", "0.05",
              "--c3", "0.01", "--n0-override", "100", "--episodes", "20000",
              "--seed", "11"]
PINNED_DIGESTS = {
    "hoeffding-stage": {
        "episodes.csv": "179629a9278ae30c85d8cd571ac5db77308f5ce8218c798072aeeb2171b27daf",
        "snapshot_q.csv": "e8829c98c7f5a63799f48aee8f56fd1f290f3fa59afcb0beb457bb3a10e14ba3",
        "snapshot_v.csv": "1696f572036552ee5aa6472c55e386b9b9ae0a549aafff0d98b668afbcd9f0be"},
    "advantage": {
        "episodes.csv": "588fe3c5cd0750067177c23cd10801cd4d408c56791110c2645b6e47864a25ac",
        "snapshot_q.csv": "8f8d8fdd8b841da3023877ede10f5327e59d7f0e2ad68ed77adbc0df08f6e4cd",
        "snapshot_v.csv": "df445e20c12a98d696c334d628562ddb77169c597ede85a843d68d98c9fcd4e9"},
    "classic-qucb": {
        "episodes.csv": "ae419759cf96ad843c03e3fab1764d3b07fdb465fcda52558262192c1e215cc6",
        "snapshot_q.csv": "4175c2d62d179fedc1c1573a0127cbb0450519d5d9dec767de7641a9c0a1924b",
        "snapshot_v.csv": "f46e88d6027ad8c69785a6d23270d5d3cc9e3bbed16141f6cab62b374fc06941"},
}


def pinned_run_digests(out, algo):
    assert main(PINNED_RUN + ["--algo", algo, "--out", str(out)]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in PINNED_DIGESTS[algo]}


@pytest.mark.parametrize("algo", sorted(PINNED_DIGESTS))
def test_run_outputs_match_pinned_digests(tmp_path, capsys, algo):
    assert pinned_run_digests(tmp_path, algo) == PINNED_DIGESTS[algo]


def test_pow2_log_and_sweep_match_pinned_digests(tmp_path, capsys):
    # SHA-256 recorded while the run loop kept every row and thinned them on
    # writing: the pow2 episodes.csv and a strict two-seed sweep's stdout
    args = PINNED_RUN + ["--algo", "advantage"]
    assert main(args + ["--log-every", "pow2", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "episodes.csv").read_bytes()).hexdigest() == \
        "82025f7c05f12da2de5efcccffaedb4e352c49f57ca599874800deb87cb1b4ec"
    capsys.readouterr()
    # sweep takes no --seed (it never read one): its seeds come from --seeds
    sweep = ["sweep"] + PINNED_RUN[1:-2] + ["--algo", "advantage"]
    assert main(sweep + ["--strict", "--t-mults", "0.25,0.5,1.0",
                         "--seeds", "0,1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "588b541b0c70106c9977cdf33ae6f5f9c6d1b722ae1e86e4e511140d811e7bbf"


@pytest.mark.parametrize("algo", sorted(PINNED_DIGESTS))
def test_run_without_numpys_ddot_matches_pinned_digests(tmp_path, capsys, monkeypatch, algo):
    # where NumPy's ddot is not found, the kernel leaves V^pi's layers to
    # PolicyValueCache.evaluate, once per policy change, with the same bytes
    monkeypatch.setattr(kernel, "ddot", lambda: None)
    tops, evaluate = [], PolicyValueCache.evaluate
    monkeypatch.setattr(PolicyValueCache, "evaluate",
                        lambda self, top: tops.append(top) or evaluate(self, top))
    assert pinned_run_digests(tmp_path, algo) == PINNED_DIGESTS[algo]
    assert len(tops) > 1 or kernel.load() is None


@pytest.mark.parametrize("algo", sorted(PINNED_DIGESTS))
def test_run_without_the_pcg64_layout_matches_pinned_digests(tmp_path, capsys, monkeypatch,
                                                             algo):
    # where PCG64's state does not lie where the kernel would step it,
    # load() gives no kernel and the learners take the Python path, with
    # the same bytes
    monkeypatch.setattr(kernel, "_lib", kernel._UNSET)
    monkeypatch.setattr(kernel, "_pcg64_layout_matches", lambda: False)
    assert kernel.load() is None
    assert pinned_run_digests(tmp_path, algo) == PINNED_DIGESTS[algo]
    assert kernel.load() is None


# SHA-256 of the tables the pins above leave out, recorded while each table
# still had its own hand-written writer, but for the oracle's snapshot_v.csv,
# re-recorded when the oracle became a kernel learner: it holds V*'s rows,
# with the Vref column empty, where it was header-only
SOLVE = ["solve", "--env", "jao", "--H", "4", "--delta", "0.3",
         "--jao-epsilon", "0.12", "--env-seed", "7"]
SCHEDULE = ["schedule", "--H", "3", "--n-max", "2000"]
CONCURRENT = ["concurrent", "--env", "random", "--S", "3", "--A", "2", "--H", "3",
              "--env-seed", "1", "--agents", "4", "--k-eps-override", "300",
              "--seed", "5", "--p", "0.5", "--c1", "0.05", "--c2", "0.05",
              "--c3", "0.01", "--n0-override", "20"]
ORACLE_RUN = ["run", "--env", "random", "--S", "3", "--A", "2", "--H", "3",
              "--env-seed", "1", "--algo", "oracle", "--episodes", "30"]
PINNED_TABLES = {
    "solve stdout":
        "0019ff95ceb4fc113853d9c9d21aa2b64cce5c5922188ebc5e0892e6cc918097",
    "vstar.csv":
        "9ed6d4e333d8fef2a6c51b48b71a62dffb474424611cebcbd45967b732e54357",
    "qstar.csv":
        "b86538f1981cb4f23d21d8b0954319f49d25d778c5d6b25a5e6e03f869f15578",
    "schedule stdout":
        "2142b8c26bd0ecf3f2d4df9526bf54b25d4999ce0f0c05bd38b2e38e8494de9a",
    "schedule --out":
        "2142b8c26bd0ecf3f2d4df9526bf54b25d4999ce0f0c05bd38b2e38e8494de9a",
    "rounds.csv":
        "c16f4d5449ef4db7b0a99918478cbe308f6659b79b69e37d91dd1d0bc5ac3ca0",
    "oracle snapshot_q.csv":
        "8c5f2f2a7cda1aff652e3f509ff13446a6d0e4efbfb45a07f73d8f399c36703f",
    "oracle snapshot_v.csv":
        "397c53fc1ca5244e59064ee397453615df3a770a3842cf5ae52a585b09a17020",
}


def test_other_tables_match_pinned_digests(tmp_path, capsys):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    got = {}
    assert main(SOLVE) == 0
    got["solve stdout"] = sha(capsys.readouterr().out.encode())
    assert main(SOLVE + ["--out", str(tmp_path / "sol")]) == 0
    for name in ("vstar.csv", "qstar.csv"):
        got[name] = sha((tmp_path / "sol" / name).read_bytes())
    capsys.readouterr()
    assert main(SCHEDULE) == 0
    got["schedule stdout"] = sha(capsys.readouterr().out.encode())
    assert main(SCHEDULE + ["--out", str(tmp_path / "sched.csv")]) == 0
    got["schedule --out"] = sha((tmp_path / "sched.csv").read_bytes())
    assert main(CONCURRENT + ["--out", str(tmp_path / "conc")]) == 0
    got["rounds.csv"] = sha((tmp_path / "conc" / "rounds.csv").read_bytes())
    assert main(ORACLE_RUN + ["--out", str(tmp_path / "or")]) == 0
    for name in ("snapshot_q.csv", "snapshot_v.csv"):
        got["oracle " + name] = sha((tmp_path / "or" / name).read_bytes())
    assert got == PINNED_TABLES


def test_float_tables_match_their_pins_on_each_path(path, tmp_path, capsys):
    # every float table goes through metrics.write_table: with the kernel
    # its formatter prints the floats, on the fallback its Python body does
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert main(SOLVE) == 0
    assert sha(capsys.readouterr().out.encode()) == PINNED_TABLES["solve stdout"]
    assert main(SOLVE + ["--out", str(tmp_path / "sol")]) == 0
    for name in ("vstar.csv", "qstar.csv"):
        assert sha((tmp_path / "sol" / name).read_bytes()) == PINNED_TABLES[name]
    assert main(ORACLE_RUN + ["--out", str(tmp_path / "or")]) == 0
    for name in ("snapshot_q.csv", "snapshot_v.csv"):
        assert sha((tmp_path / "or" / name).read_bytes()) == PINNED_TABLES["oracle " + name]
    # snapshot_v.csv with its Vref column empty, and filled
    for algo in ("classic-qucb", "advantage"):
        assert pinned_run_digests(tmp_path / algo, algo) == PINNED_DIGESTS[algo]
    capsys.readouterr()
    sweep = ["sweep"] + PINNED_RUN[1:-2] + ["--algo", "advantage", "--strict",
                                           "--t-mults", "0.25,0.5,1.0", "--seeds", "0,1"]
    assert main(sweep) == 0
    stdout = capsys.readouterr().out.encode()
    assert sha(stdout) == "588b541b0c70106c9977cdf33ae6f5f9c6d1b722ae1e86e4e511140d811e7bbf"
    assert main(sweep + ["--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "sweep.csv").read_bytes() == stdout
