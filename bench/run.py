"""Run one benchmark workload and print its metrics; see bench/README.md.

    python3 bench/run.py --workload dn-cubic-h24 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --self-test

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones. Details, the
machine record and (traced) the spans go to ``bench/out/``.
"""

import os

# SuperLU is serial; a plain single-threaded BLAS keeps runs comparable.
# These must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
# set up at least this often, and until this much set-up time is measured
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
WARM_UP_H = 1 / 8

sys.path.insert(0, str(SRC))
try:
    import ddsemi
except ImportError as exc:
    sys.exit(f"bench: cannot import ddsemi from {SRC}: {exc}")
if pathlib.Path(ddsemi.__file__).resolve().parent.parent != SRC:
    sys.exit(f"bench: ddsemi was imported from {ddsemi.__file__}, not from {SRC}")

import numpy as np
import scipy

import tracing
import workloads


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine():
    source = hashlib.sha256()
    for path in sorted((SRC / "ddsemi").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
    }


def attempt(state):
    """One timed solve: (seconds, result), result None if the solve raised."""
    start = time.perf_counter()
    try:
        result = workloads.solve(state)
    except Exception:  # a solver error is a failed attempt, not a crash
        traceback.print_exc()
        result = None
    return time.perf_counter() - start, result


def check(state, result):
    if result is None:
        return ["the solve raised; traceback on stderr"]
    return workloads.check(state, result)


def warm_up(workload, inputs):
    """One untimed solve on a tiny mesh: the first call of each code path
    pays for lazy imports and caches that later solves do not."""
    state = workloads.setup(dataclasses.replace(workload, h=WARM_UP_H), inputs)
    workloads.solve(state)


def run_untraced(workload, batch, seconds):
    """Set up repeatedly, then solve the batch's inputs in turn, each at
    least once, for about ``seconds`` of wall time."""
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        states = None  # let the previous set-up go before building the next
        gc.collect()
        start = time.perf_counter()
        states = workloads.setup_batch(workload, batch)
        setup_s.append(time.perf_counter() - start)
    warm_up(workload, batch[0])
    solve_s = [[] for _ in states]
    problems = []
    start = time.perf_counter()
    for k in itertools.count():
        state = states[k % len(states)]
        result = None
        # free the last solve's garbage now, not at some point inside this
        # one, so that neither its time nor the peak memory depends on when
        # the collector happens to run
        gc.collect()
        took, result = attempt(state)
        solve_s[k % len(states)].append(took)
        problems.append(check(state, result))
        if result is None:
            break
        state.renew_workspaces()
        # stop once every input is solved and the next solve, taken to last
        # as long as that input's previous one, would end after ``seconds``
        following = solve_s[(k + 1) % len(states)]
        if following and time.perf_counter() - start + following[-1] > seconds:
            break
    metrics = {
        # mean over the batch of each input's median
        "solve_s": (statistics.fmean(statistics.median(took) for took in solve_s if took), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, problems, {"setup_s": setup_s, "solve_s": solve_s}


def run_traced(workload, inputs, run_id, spans_path):
    """One traced set-up, one untraced solve (the overhead baseline), then
    one traced solve, each solve on fresh workspaces. Checks run untraced."""
    tracer = tracing.Tracer(run_id)
    with tracer.installed(), tracer.span(tracing.SETUP):
        state = workloads.setup(workload, inputs)
    untraced_s, result = attempt(state)
    problems = [check(state, result)]
    state.renew_workspaces()
    with tracer.installed(), tracer.span(tracing.SOLVE) as root:
        _, result = attempt(state)
    problems.append(check(state, result))
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, root.id, untraced_s)
    return metrics, problems, {"untraced_solve_s": untraced_s,
                               "traced_solve_s": root.seconds, "spans_file": str(spans_path)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0,
                   help="untraced: keep solving the batch's inputs in turn for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check on tiny meshes that the correctness checks reject wrong results")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.self_test:
        import selftest
        return selftest.main()
    workload = workloads.WORKLOADS[args.workload]
    batch = workloads.make_batch(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "inputs": [{"amplitude": inputs.amplitude, "modes": inputs.modes}
                         for inputs in batch],
              "machine": machine()}
    print("machine:", json.dumps(record["machine"], sort_keys=True))
    print("inputs:", json.dumps(record["inputs"]))

    if args.trace:
        metrics, problems, detail = run_traced(workload, batch[0], stem,
                                               OUT / f"{stem}-spans.jsonl")
    else:
        metrics, problems, detail = run_untraced(workload, batch, args.seconds)
    failed = sum(1 for found in problems if found)
    for found in problems:
        for problem in found:
            print("check failed:", problem)
    print("samples:", json.dumps(detail))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {"correct": failed == 0, "attempted": len(problems), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record.update(result=result, detail=detail, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
