"""spfactor benchmark: wall time of the CLI simulate -> fit -> predict ->
cluster -> diagnose pipeline on one workload.

    python3 perfbench/run.py --workload sim1-m1-gauss --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports spfactor from src/.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
README.md in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402

# Set-up samples per run: this many set-up-only processes plus the workload
# process itself.
SETUP_ONLY_RUNS = 2
# The whole run must end within 180 s; a workload process takes about
# --seconds plus a few seconds of set-up.
WORKER_TIMEOUT_S = 150
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPFACTOR_")}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def _run_worker(args, workdir, setup_only=False):
    """Start one workload process, wait for it and return its worker.json."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    t_spawn = time.monotonic()
    proc = subprocess.run(argv + ["--t-spawn", repr(t_spawn)], env=_child_env(),
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    with open(os.path.join(workdir, "worker.json")) as fh:
        return json.load(fh)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the git checkout rooted here, or "unknown"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath("."):
        return "unknown"
    return lines[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured pipelines")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "spfactor", "__init__.py")):
        print("error: run from the repository root; src/spfactor not found",
              file=sys.stderr)
        return 2

    work = os.path.join(".perfbench_work", args.workload)
    setup = []
    if not args.trace:
        for i in range(SETUP_ONLY_RUNS):
            setup.append(_run_worker(args, os.path.join(work, f"setup{i}"),
                                     setup_only=True)["setup_s"])
    result = _run_worker(args, os.path.join(work, "run"))
    setup.append(result["setup_s"])

    if args.trace:
        values = result["layer"]
        units = LAYER_UNITS
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setup),
                      peak_rss_mb=result["peak_rss_mb"])
        units = END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "nproc": os.cpu_count(), "cpu": _cpu_model(), **result["versions"],
           "thread_pins": THREAD_PINS, "git_commit": _git_commit(),
           "pipelines": len(result["reps"]) - 1,
           "setup_samples_s": setup}
    print("environment " + json.dumps(env, sort_keys=True))
    for key, unit in units.items():
        print(f"{args.workload} {key} = {values[key]!r} {unit}")
    print(f"{args.workload} failed_stage_ratio = {failed / attempted!r} "
          f"({failed} of {attempted} stages and checks)")
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"environment": env, "worker": result, "setup_s": setup},
                  fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
