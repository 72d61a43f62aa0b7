"""Command-line front end.

Subcommands
-----------
run         one seeded learning run; prints a summary line, optionally
            writes episodes.csv + Q/V snapshots under --out
sweep       cumulative regret at several horizons T across seeds
concurrent  round-based multi-agent run; optionally writes rounds.csv
solve       exact optimal tables for an environment; print or save
schedule    the geometric visit-count stage table for a given H

Config files hold `key = value` lines ('#' comments); any flag given on
the command line overrides the file.  sweep takes no --seed or --log-every
(its seeds come from --seeds) and concurrent no --episodes, --log-every or
--strict; a config file setting one of those keys for them is rejected.
Exit status: 0 ok, 1 a strict-mode invariant failed, 2 bad configuration
or input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .concurrent import BudgetTooSmall
from .harness import (_CONC_KEYS, _RUN_KEYS, ALGOS, ConfigError,
                      InvariantViolation, build_concurrent_config,
                      build_run_config, coerce_kv, parse_kv_file,
                      run_concurrent_experiment, run_experiment,
                      sweep_scaling, write_sweep_csv)
from .mdp import MdpValidationError, backward_induction, save_mdp, validate
from .stages import build_schedule

# Run keys that sweep and concurrent never read: neither registers their
# flags, and a config file that sets one is rejected.
_SWEEP_UNUSED = ("seed", "log_every")
_CONC_UNUSED = ("episodes", "log_every", "strict")
_RUN_ATTRS = tuple(_RUN_KEYS)
_SWEEP_ATTRS = tuple(k for k in _RUN_KEYS if k not in _SWEEP_UNUSED)
_CONC_ATTRS = tuple(k for k in _RUN_KEYS if k not in _CONC_UNUSED) + tuple(_CONC_KEYS)


def _add_env_args(p):
    g = p.add_argument_group("environment")
    g.add_argument("--env", default=None,
                   help="random | jao | file:PATH (a bare path also works)")
    g.add_argument("--S", type=int, default=None, help="state count (random env)")
    g.add_argument("--A", type=int, default=None, help="action count (random env)")
    g.add_argument("--H", type=int, default=None, help="episode length")
    g.add_argument("--sparsity", type=float, default=None,
                   help="probability a reward entry is zeroed (random env)")
    g.add_argument("--env-seed", type=int, default=None,
                   help="seed for instance generation (not the run stream)")
    g.add_argument("--jao-epsilon", type=float, default=None,
                   help="optimal-action advantage in the hard chain env")
    g.add_argument("--delta", type=float, default=None,
                   help="chain switching probability (default 16/H)")
    g.add_argument("--init", default=None,
                   help="initial states: fixed:S | cyclic:a,b,c | seeded:SEED")


def _add_algo_args(p):
    g = p.add_argument_group("algorithm")
    g.add_argument("--algo", default=None, choices=ALGOS)
    g.add_argument("--p", type=float, default=None,
                   help="failure probability behind the log factor")
    g.add_argument("--c1", type=float, default=None)
    g.add_argument("--c2", type=float, default=None)
    g.add_argument("--c3", type=float, default=None)
    g.add_argument("--c4", type=float, default=None)
    g.add_argument("--cb", type=float, default=None,
                   help="bonus constant for classic-qucb")
    g.add_argument("--beta", type=float, default=None,
                   help="reference accuracy target (default 1/sqrt(H))")
    g.add_argument("--n0-override", type=float, default=None,
                   help="replace the computed reference-freeze visit count")


def _add_run_io_args(p, unused=()):
    if "episodes" not in unused:
        p.add_argument("--episodes", type=int, default=None)
    if "seed" not in unused:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--out", default=None, help="output directory for CSVs")
    if "log_every" not in unused:
        p.add_argument("--log-every", default=None, choices=("auto", "all", "pow2"))
    if "strict" not in unused:
        p.add_argument("--strict", action="store_true", default=None,
                       help="exit nonzero if any runtime invariant fails")


def _collect(args, attrs) -> dict:
    vals = {}
    for key in attrs:
        v = getattr(args, key, None)
        if v is not None:
            vals[key] = v
    return vals


def _merged_values(args, attrs) -> dict:
    """Config-file values overridden by flags; a file key outside attrs,
    which the command would ignore, raises ConfigError."""
    values = {}
    if getattr(args, "config", None):
        values = coerce_kv(parse_kv_file(args.config))
        for key in values:
            if key not in attrs:
                raise ConfigError(f"config key {key!r} is not read by "
                                  f"'stageq {args.command}'")
    values.update(_collect(args, attrs))
    return values


def _parse_float_list(text: str, flag: str):
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _parse_int_list(text: str, flag: str):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated integers, got {text!r}") from None


def cmd_run(args) -> int:
    cfg = build_run_config(_merged_values(args, _RUN_ATTRS))
    result = run_experiment(cfg)
    print(result.summary.line())
    return 0


def cmd_sweep(args) -> int:
    values = _merged_values(args, _SWEEP_ATTRS)
    out = values.pop("out", None)
    cfg = build_run_config(values)
    mults = _parse_float_list(args.t_mults, "--t-mults")
    seeds = _parse_int_list(args.seeds, "--seeds")
    if not mults or not seeds:
        raise ConfigError("--t-mults and --seeds must be non-empty")
    rows = sweep_scaling(cfg, mults, seeds)
    if out:
        path = Path(out)
        if path.suffix != ".csv":
            path.mkdir(parents=True, exist_ok=True)
            path = path / "sweep.csv"
        write_sweep_csv(rows, path)
        print(f"wrote {len(rows)} rows to {path}")
    else:
        print("T,seed,cum_regret")
        for T, seed, reg in rows:
            print(f"{T},{seed},{reg!r}")
    return 0


def cmd_concurrent(args) -> int:
    values = _merged_values(args, _CONC_ATTRS)
    conc = {k: values.pop(k) for k in _CONC_KEYS if k in values}
    cfg = build_run_config(values)
    cc = build_concurrent_config(conc)
    result = run_concurrent_experiment(cfg.env, cc, algo=cfg.algo,
                                       constants=cfg.constants, seed=cfg.seed,
                                       cb=cfg.cb, out_dir=cfg.out_dir)
    print(f"agents={cc.agents} budget={result.budget} "
          f"rounds={len(result.rounds)} consumed={result.total_consumed} "
          f"generated={result.total_generated} "
          f"update_rounds={result.update_rounds} "
          f"picked_trajectory={result.picked_trajectory}")
    return 0


def cmd_solve(args) -> int:
    values = _merged_values(args, _RUN_ATTRS)
    out = values.pop("out", None)
    cfg = build_run_config(values)
    mdp = cfg.env.build()
    validate(mdp)
    tables, pistar = backward_induction(mdp)
    if args.save_mdp:
        save_mdp(mdp, args.save_mdp)
        print(f"saved environment to {args.save_mdp}")
    print("h,s,V_star,action_star")
    for h in range(mdp.H):
        for s in range(mdp.S):
            print(f"{h},{s},{float(tables.V[h, s])!r},{int(pistar.actions[h, s])}")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "vstar.csv", "w") as f:
            f.write("h,s,V\n")
            for h in range(mdp.H + 1):
                for s in range(mdp.S):
                    f.write(f"{h},{s},{float(tables.V[h, s])!r}\n")
        with open(outdir / "qstar.csv", "w") as f:
            f.write("h,s,a,Q\n")
            for h in range(mdp.H):
                for s in range(mdp.S):
                    for a in range(mdp.A):
                        f.write(f"{h},{s},{a},{float(tables.Q[h, s, a])!r}\n")
        print(f"wrote optimal tables to {outdir}")
    return 0


def cmd_schedule(args) -> int:
    sched = build_schedule(args.H, args.n_max)
    lines = ["i,e_i,end_i"]
    for i in range(sched.n_stages):
        lines.append(f"{i + 1},{sched.lengths[i]},{sched.ends[i]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {sched.n_stages} stages to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stageq",
        description="Tabular episodic RL runs with stage-based Q-learning, "
                    "variance-reduced bonuses, and exact-DP auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded learning run")
    _add_env_args(p_run)
    _add_algo_args(p_run)
    _add_run_io_args(p_run)
    p_run.set_defaults(func=cmd_run)

    # no prefix matching here, or --seed would be taken for --seeds
    p_sweep = sub.add_parser("sweep", help="regret at several horizons T",
                             allow_abbrev=False)
    _add_env_args(p_sweep)
    _add_algo_args(p_sweep)
    _add_run_io_args(p_sweep, unused=_SWEEP_UNUSED)
    p_sweep.add_argument("--t-mults", default="0.25,0.5,1.0",
                         help="comma list of fractions of --episodes to checkpoint")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list of run seeds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_conc = sub.add_parser("concurrent", help="round-based multi-agent run")
    _add_env_args(p_conc)
    _add_algo_args(p_conc)
    _add_run_io_args(p_conc, unused=_CONC_UNUSED)
    p_conc.add_argument("--agents", type=int, default=None,
                        help="episodes generated per round")
    p_conc.add_argument("--epsilon", type=float, default=None,
                        help="accuracy target that sizes the sample budget")
    p_conc.add_argument("--c5", type=float, default=None,
                        help="budget constant")
    p_conc.add_argument("--k-eps-override", type=float, default=None,
                        help="replace the computed trajectory budget")
    p_conc.set_defaults(func=cmd_concurrent)

    p_solve = sub.add_parser("solve", help="exact optimal tables via DP")
    _add_env_args(p_solve)
    p_solve.add_argument("--config", default=None)
    p_solve.add_argument("--out", default=None,
                         help="directory for vstar.csv / qstar.csv")
    p_solve.add_argument("--save-mdp", default=None,
                         help="also write the environment in text format")
    p_solve.set_defaults(func=cmd_solve)

    p_sched = sub.add_parser("schedule", help="print the stage table")
    p_sched.add_argument("--H", type=int, required=True)
    p_sched.add_argument("--n-max", type=int, default=1 << 20)
    p_sched.add_argument("--out", default=None)
    p_sched.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, BudgetTooSmall, MdpValidationError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
