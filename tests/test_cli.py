import hashlib

import numpy as np
import pytest

from stageq import build_schedule, load_mdp, make_random_mdp, save_mdp
from stageq.cli import build_parser, main
from stageq.harness import CONFIG_KEYS


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
              ("sweep", ["--t-mults=0.5,nan"], "--t-mults")]


@pytest.mark.parametrize("command,args,name", BAD_VALUES,
                         ids=[f"{c}{' '.join(a)}" for c, a, _ in BAD_VALUES])
def test_bad_values_exit_2_naming_the_key(capsys, tmp_path, command, args, name):
    args = [str(tmp_path) if a == "DIR" else a for a in args]
    assert main([command] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (str(tmp_path) if name == "DIR" else name) in err


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


@pytest.mark.parametrize("algo", sorted(PINNED_DIGESTS))
def test_run_outputs_match_pinned_digests(tmp_path, capsys, algo):
    assert main(PINNED_RUN + ["--algo", algo, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_DIGESTS[algo]}
    assert got == PINNED_DIGESTS[algo]


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
