"""stageq benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads are the names in
BENCHMARK.json, and --workload all runs each in turn, one result line
each; perfbench/layers.json says why each was chosen and which
end-to-end metric each per-layer metric should move.

Each repetition runs in a fresh interpreter (perfbench/worker.py), one at
a time, with BLAS held to one thread, until S seconds have passed and at
least MIN_REPS repetitions have ended.  With --trace 0 every repetition is
a plain driver call, and the end-to-end metrics are medians over them.
Their times are adjusted to a nominal host speed: the worker times a fixed
reference loop, which calls no stageq code, just before and just after the
driver call, and each repetition's times are scaled by how much slower than
REF_NOMINAL_S it ran (see end_to_end).  The unadjusted medians are printed
too.  With --trace 1, plain and traced repetitions alternate; the per-layer
metrics are medians over the traced ones, and trace.slowdown compares the
two kinds.

A repetition fails when it raises (strict-mode invariants and the output
checks raise too), when its output digests differ from the other
repetitions of the run, from the digests recorded in perfbench/digests.json
for this workload and seed, or (traced) when its cum_regret differs from
the plain run's.  The failure count goes into the result line; error_rate
is failed / attempted.

Human-readable lines come first, including the machine the figures were
measured on.  The last stdout line is the JSON result.  Exits non-zero
without a result when the package source is missing or no repetition
succeeded.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
MIN_REPS = 3
WORKER_TIMEOUT_S = 60
# Seconds the worker's host-speed reference loop takes at the speed the
# adjusted figures are quoted at (a quiet 2-core Xeon).  It only sets their
# scale; changing it shifts every recorded median.
REF_NOMINAL_S = 0.25


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def recorded_digests(workload: str, seed: int):
    with open(HERE / "digests.json") as f:
        return json.load(f)["digests"].get(workload, {}).get(str(seed))


def machine_info() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}
    try:
        with open("/proc/cpuinfo") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            info[f"l{level}"] = size
    return info


def run_worker(workload: str, seed: int, mode: str, tag: str):
    """One repetition in a fresh interpreter; (result or None, error text)."""
    out = SCRATCH / f"{os.getpid()}-{tag}"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             mode, str(out)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {WORKER_TIMEOUT_S} s"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def summarize(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def raw_rate(r: dict) -> float:
    return r["steps"] / (r["driver_ns"] / 1e9)


def host_factor(r: dict) -> float:
    """How much slower than nominal the host ran around the driver call."""
    return statistics.mean(r["ref_s"]) / REF_NOMINAL_S


def end_to_end(r: dict) -> dict:
    """A plain repetition's figures, adjusted to the nominal host speed.

    The host's speed drifts by tens of percent over minutes, which would
    swamp any change to the program; each repetition's wall times are
    divided by the reference loop's slowdown measured around its driver
    call, so a program change still moves them in full.
    """
    f = host_factor(r)
    return {"steps_per_s": raw_rate(r) * f,
            "setup_s": sum(r["setup"].values()) / f,
            "peak_rss_mb": r["maxrss_kb"] / 1024.0}


def run_one(bench: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> int:
    expected = recorded_digests(workload, seed)
    modes = ("plain", "trace") if trace else ("plain",)
    ok = {m: [] for m in modes}
    failures = []
    attempted = 0
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or min(len(v) for v in ok.values()) < (1 if trace else MIN_REPS)):
        mode = modes[attempted % len(modes)]
        attempted += 1
        result, err = run_worker(workload, seed, mode, str(attempted))
        if result is None:
            failures.append(f"{mode} repetition {attempted}: {err}")
        else:
            ok[mode].append(result)
        if attempted >= 3 * len(modes) and not all(ok.values()):
            break                      # a mode never completes: stop early

    if not all(ok.values()):
        for line in failures:
            print("FAILED " + line, flush=True)
        print(f"error: {workload}: no repetition completed", file=sys.stderr)
        return 1

    # Every repetition must reproduce the same bytes and regret; a wrong
    # output fails the repetition but its timings still count.
    reference = expected or ok["plain"][0]["digests"]
    regret = ok["plain"][0]["cum_regret"]
    for mode, results in ok.items():
        for r in results:
            if r["digests"] != reference:
                failures.append(f"{mode} digests {r['digests']} != {reference}")
            elif r["cum_regret"] != regret:
                failures.append(f"{mode} cum_regret {r['cum_regret']} "
                                f"!= {regret}")
    for line in failures:
        print("FAILED " + line, flush=True)
    failed = len(failures)
    checked = ("match the recorded ones" if expected and not failed
               else "checked against the recorded ones" if expected
               else "not recorded for this seed; checked across repetitions")
    print(f"workload {workload}, seed {seed}: digests {checked}")
    print(f"error_rate = {failed / attempted:.6g} failed/attempted "
          f"({failed} of {attempted} repetitions)")

    metrics = {}
    if trace:
        wanted = bench["per_layer"]
        samples = {m["name"]: [r["layers"][m["name"]] for r in ok["trace"]]
                   for m in wanted if m["name"] != "trace.slowdown"}
        plain_rate = statistics.median(raw_rate(r) for r in ok["plain"])
        traced_rate = [raw_rate(r) for r in ok["trace"]]
        samples["trace.slowdown"] = [plain_rate / x for x in traced_rate]
        print(f"steps_per_s untraced {plain_rate:.6g}, traced "
              f"{statistics.median(traced_rate):.6g}")
        count = len(ok["trace"])
    else:
        wanted = bench["end_to_end"]
        rows = [end_to_end(r) for r in ok["plain"]]
        samples = {m["name"]: [row[m["name"]] for row in rows] for m in wanted}
        count = len(rows)
        raw = [(raw_rate(r), sum(r["setup"].values()), host_factor(r))
               for r in ok["plain"]]
        print("unadjusted: steps_per_s {:.6g} steps/s, setup_s {:.6g} s; "
              "host slowdown {:.4g} (medians)".format(
                  *(statistics.median(col) for col in zip(*raw))))
    for m in wanted:
        med, q1, q3 = summarize(samples[m["name"]])
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print(f"{m['name']} = {med:.6g} {m['unit']} (median of {count} "
              f"repetitions; quartiles {q1:.6g} .. {q3:.6g})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stageq" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'stageq'} not found",
              file=sys.stderr)
        return 2
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_info()), flush=True)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        status = max(status, run_one(bench, name, args.seed, seconds,
                                     bool(args.trace)))
    try:
        SCRATCH.rmdir()                # only when no other run is using it
    except OSError:
        pass
    return status


if __name__ == "__main__":
    sys.exit(main())
