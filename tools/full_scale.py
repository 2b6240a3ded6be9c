"""Full-scale timings: the reference solve, a DN and an RR run at h = 1/128 and 1/256.

    python tools/full_scale.py --src SRC --label NAME [--out BENCH_full.json]

SRC is the ``src`` directory of the ddsemi tree to time; NAME labels its
results in the output file, for example ``parent abc1234`` and ``change``.
Every case runs in a fresh Python process that imports ddsemi from SRC, one
process at a time, and reports its own peak resident set size:

- ``ref-cubic``, ``ref-plaplace``: ``solve_monolithic`` of example1 or of
  the p-Laplace problem on the 3 x 2 rectangle: seconds of the call,
  Newton steps (of every level) and peak RSS;
- ``dn``, ``rr``: ``ddsemi run --method dn|rr --h H`` into an empty output
  directory, so the reference cache starts empty: wall seconds of the
  command (mesh, decomposition, reference and run), outer steps,
  factorizations, final error and peak RSS.

Runs are appended to the output file under NAME, so that two trees run
alternately land side by side; the file also records the machine.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

SIZES = ("1/128", "1/256")
CASES = ("ref-cubic", "ref-plaplace", "dn", "rr")
WIDTH, HEIGHT = 3.0, 2.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_case(case, h):
    """Run one case in this process; returns its measurements."""
    from ddsemi import cli, problems
    from ddsemi.mesh import build_rect_mesh
    from ddsemi.oracle import solve_monolithic

    if case in ("dn", "rr"):
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            code = cli.main(["run", "--method", case, "--h", h, "--output-dir", out])
            seconds = time.perf_counter() - start
            with open(os.path.join(out, "summary.json")) as f:
                summary = json.load(f)[0]
        if code != 0:
            raise SystemExit(f"ddsemi run exited with {code}")
        return {"seconds": seconds, "outer_steps": summary["iterations"],
                "factorizations": summary["factorizations"],
                "final_error": summary["final_error"],
                "termination": summary["termination"], "peak_rss_mb": _peak_rss_mb()}
    make = {"ref-cubic": problems.cubic_reaction_problem,
            "ref-plaplace": problems.p_laplace_problem}[case]
    prob, mesh = make(), build_rect_mesh(WIDTH, HEIGHT, float(Fraction(h)))
    start = time.perf_counter()
    sol = solve_monolithic(prob, mesh)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "newton_steps": sol.newton_iterations,
            "residual": sol.residual_norm, "peak_rss_mb": _peak_rss_mb()}


def machine():
    """CPU model, cores, memory and library versions of this machine."""
    import numpy
    import scipy

    record = {"platform": platform.platform(), "python": platform.python_version(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "cpus": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as f:
            record["cpu"] = next(line.split(":", 1)[1].strip() for line in f
                                 if line.startswith("model name"))
        with open("/proc/meminfo") as f:
            kb = next(int(line.split()[1]) for line in f if line.startswith("MemTotal"))
        record["memory_gb"] = round(kb / 2 ** 20, 1)
    except (OSError, StopIteration):
        pass
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="src directory of the tree to time")
    parser.add_argument("--label", required=True, help="name of the tree in the output")
    parser.add_argument("--out", default="BENCH_full.json")
    parser.add_argument("--child", nargs=2, metavar=("CASE", "H"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_case(*args.child)))
        return 0

    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    results = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            results = json.load(f)
    results["machine"] = machine()
    tree = results.setdefault("trees", {}).setdefault(args.label, {})
    for h in SIZES:
        for case in CASES:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", args.src,
                                   "--label", args.label, "--child", case, h],
                                  env=env, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            record = json.loads(proc.stdout.strip().splitlines()[-1])
            tree.setdefault(f"h={h}", {}).setdefault(case, []).append(record)
            print(f"{args.label} h={h} {case}: {record}", flush=True)
            with open(args.out, "w") as f:
                json.dump(results, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
