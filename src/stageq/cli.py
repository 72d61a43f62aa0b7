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
the command line overrides the file.  Each command has a flag for exactly
the keys it reads (harness.CONFIG_KEYS): sweep takes no --seed or
--log-every (its seeds come from --seeds), concurrent no --episodes,
--log-every or --strict, and solve only --out and the environment keys,
not the runs' start states (--init).  A config file setting a key the
command does not read is rejected.
Exit status: 0 ok, 1 a strict-mode invariant failed, 2 bad configuration
or input.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .concurrent import BudgetTooSmall
from .harness import (CONFIG_KEYS, ConfigError, InvariantViolation,
                      build_concurrent_config, build_run_config, coerce_kv,
                      parse_kv_file, run_concurrent_experiment, run_experiment,
                      sweep_scaling, write_q_csv, write_sweep_csv)
from .mdp import MdpValidationError, backward_induction, save_mdp, validate
from .metrics import grid, write_table
from .stages import build_schedule


def _add_config_args(p, command: str) -> None:
    """--config, and one flag per config key that command reads, made from
    the key's CONFIG_KEYS row; an unset flag stays None."""
    p.add_argument("--config", default=None, help="key = value config file")
    for key, row in CONFIG_KEYS.items():
        if command in row.commands:
            kind = ({"action": "store_true"} if row.type is bool else
                    {"choices": row.type} if isinstance(row.type, tuple) else
                    {"type": row.type})
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           help=row.help, **kind)


def _merged_values(args) -> dict:
    """Config-file values overridden by flags; a file key that the command
    does not read raises ConfigError."""
    values = coerce_kv(parse_kv_file(args.config)) if args.config else {}
    for key in values:
        if args.command not in CONFIG_KEYS[key].commands:
            raise ConfigError(f"config key {key!r} is not read by "
                              f"'stageq {args.command}'")
    values.update((key, val) for key, val in vars(args).items()
                  if key in CONFIG_KEYS and val is not None)
    return values


def _parse_list(text: str, flag: str, typ):
    try:
        return [typ(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated {typ.__name__} "
                          f"values, got {text!r}") from None


def cmd_run(args) -> int:
    result = run_experiment(build_run_config(_merged_values(args)))
    print(result.summary.line())
    return 0


def cmd_sweep(args) -> int:
    cfg = build_run_config(_merged_values(args))
    mults = _parse_list(args.t_mults, "--t-mults", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
    if not mults or not seeds:
        raise ConfigError("--t-mults and --seeds must be non-empty")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds: seeds must be >= 0, got {args.seeds!r}")
    if not all(0.0 < m < math.inf for m in mults):
        raise ConfigError(f"--t-mults: multipliers must be finite and positive, "
                          f"got {args.t_mults!r}")
    rows = sweep_scaling(cfg, mults, seeds)
    path = cfg.out_dir and Path(cfg.out_dir)
    if path and path.suffix != ".csv":
        path.mkdir(parents=True, exist_ok=True)
        path = path / "sweep.csv"
    write_sweep_csv(rows, path or sys.stdout)
    if path:
        print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_concurrent(args) -> int:
    values = _merged_values(args)
    cfg, cc = build_run_config(values), build_concurrent_config(values)
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
    cfg = build_run_config(_merged_values(args))
    mdp = cfg.env.build()
    validate(mdp)
    tables, pistar = backward_induction(mdp)
    if args.save_mdp:
        save_mdp(mdp, args.save_mdp)
        print(f"saved environment to {args.save_mdp}")
    write_table(sys.stdout, "h,s,V_star,action_star",
                [*grid((mdp.H, mdp.S)), tables.V[:mdp.H], pistar.actions])
    if cfg.out_dir:
        outdir = Path(cfg.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_table(outdir / "vstar.csv", "h,s,V", [*grid(tables.V.shape), tables.V])
        write_q_csv(tables.Q[:mdp.H], outdir / "qstar.csv")
        print(f"wrote optimal tables to {outdir}")
    return 0


def cmd_schedule(args) -> int:
    sched = build_schedule(args.H, args.n_max)
    write_table(args.out or sys.stdout, "i,e_i,end_i",
                [range(1, sched.n_stages + 1), sched.lengths, sched.ends])
    if args.out:
        print(f"wrote {sched.n_stages} stages to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stageq",
        description="Tabular episodic RL runs with stage-based Q-learning, "
                    "variance-reduced bonuses, and exact-DP auditing.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="one seeded learning run")
    # no prefix matching here, or --seed would be taken for --seeds
    p_sweep = sub.add_parser("sweep", help="regret at several horizons T",
                             allow_abbrev=False)
    p_sweep.add_argument("--t-mults", default="0.25,0.5,1.0",
                         help="comma list of fractions of --episodes to checkpoint")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma list of run seeds")
    sub.add_parser("concurrent", help="round-based multi-agent run")
    p_solve = sub.add_parser("solve", help="exact optimal tables via DP",
                             description="Print the optimal values and actions; "
                                         "--out writes vstar.csv and qstar.csv.")
    p_solve.add_argument("--save-mdp", default=None,
                         help="also write the environment in text format")
    for name, func in (("run", cmd_run), ("sweep", cmd_sweep),
                       ("concurrent", cmd_concurrent), ("solve", cmd_solve)):
        _add_config_args(sub.choices[name], name)
        sub.choices[name].set_defaults(func=func)

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
            MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
