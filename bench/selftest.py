"""Fast self-test of the benchmark, run by ``run.py --self-test``.

Each workload is solved on a tiny mesh; its check must pass on the real
result and flag every deliberately wrong one built from it. One traced
solve per workload checks that the tracer emits exactly the per-layer
metrics BENCHMARK.json lists, that its counts agree with each other, and
that the library is left unwrapped afterwards.
"""

import dataclasses
import json
import pathlib

import numpy as np

import tracing
import workloads
from ddsemi import assembly
from ddsemi.assembly import FieldVector

TINY_H = 1 / 8
SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def wrong_results(state, result):
    """(label, state, result) variants that the check must reject."""
    if state.workload.method == "mono":
        bumped = result.field.data.copy()
        bumped[bumped.size // 2] += 1e-6
        yield "perturbed solution", state, dataclasses.replace(
            result, field=FieldVector(bumped, result.field.n_interior))
        return
    ref = state.reference
    bumped = FieldVector(ref.field.data * (1 + 1e-6), ref.field.n_interior)
    yield "perturbed reference", dataclasses.replace(
        state, reference=dataclasses.replace(ref, field=bumped)), result
    if state.workload.method == "nn":
        yield "NN marked converged", state, dataclasses.replace(result, termination="converged")
        return
    yield "stopped at max-iterations", state, dataclasses.replace(
        result, termination="max-iterations")
    rows = result.rows[:-1] + [dataclasses.replace(result.rows[-1], error=1e-3)]
    yield "final error 1e-3", state, dataclasses.replace(result, rows=rows)


def trace_problems(state, per_layer):
    """What is wrong with one traced tiny solve, as a list of messages."""
    residual = vars(assembly.Assembler)["residual"]
    tracer = tracing.Tracer("self-test")
    with tracer.installed(), tracer.span(tracing.SOLVE) as root:
        workloads.solve(state)
    metrics = {name: value for name, (value, _unit) in
               tracing.layer_metrics(tracer.spans, root.id, root.seconds).items()}
    found = []
    if vars(assembly.Assembler)["residual"] is not residual:
        found.append("the tracer left Assembler.residual wrapped")
    if set(metrics) != per_layer:
        found.append(f"per-layer names differ from BENCHMARK.json: "
                     f"{sorted(set(metrics) ^ per_layer)}")
        return found
    spans = tracer.spans
    if any(not spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
           for s in spans if s.parent is not None):
        found.append("a span does not nest inside its parent")
    # Newton steps counted from the spans must match the library's own count
    if state.workload.method == "mono":
        counted = metrics["oracle.solve_monolithic.newton_steps"]
    else:
        counted = sum(ws.newton_iters for ws in state.workspaces)
    if not metrics["subdomain.splu.calls"] or metrics["subdomain.newton.steps"] != counted:
        found.append("traced Newton steps disagree with the library's count")
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    if not abs(shares + metrics["trace.unattributed_share"] - 1) < 1e-9:
        found.append("layer self shares do not add up to the solve time")
    return found


def main():
    failures = []
    per_layer = {m["name"] for m in json.loads(SPEC.read_text())["per_layer"]}
    if workloads.make_inputs(0) != workloads.Inputs():
        failures.append("seed 0 does not give the acceptance-suite inputs")
    if workloads.make_batch(0)[0] != workloads.Inputs():
        failures.append("seed 0's batch does not start with the acceptance-suite inputs")
    if workloads.make_batch(7) != workloads.make_batch(7):
        failures.append("the same seed gave different inputs")
    if len(set(workloads.make_batch(0) + workloads.make_batch(1))) != 2 * workloads.BATCH_SIZE:
        failures.append("a batch repeats an input")
    for workload in workloads.WORKLOADS.values():
        tiny = dataclasses.replace(workload, h=TINY_H)
        for seed in (0, 1):
            state = workloads.setup(tiny, workloads.make_inputs(seed))
            if seed and state.eta0 is not None:
                peak = np.abs(state.eta0.data).max()
                ref_peak = np.abs(state.reference.trace(state.decomp).data).max()
                if not np.isclose(peak, workloads.ETA0_SCALE * ref_peak):
                    failures.append(f"{workload.name}: eta0 not scaled to the reference")
            result = workloads.solve(state)
            found = workloads.check(state, result)
            if found:
                failures.append(f"{workload.name} seed {seed}: real result rejected: {found}")
            for label, bad_state, bad in wrong_results(state, result):
                if not workloads.check(bad_state, bad):
                    failures.append(f"{workload.name} seed {seed}: {label} accepted")
            if seed:
                state.renew_workspaces()
                failures += [f"{workload.name} seed {seed}: {found}"
                             for found in trace_problems(state, per_layer)]
            print(f"self-test {workload.name} seed {seed}: checked")
    for failure in failures:
        print("self-test FAILED:", failure)
    print("self-test:", "failed" if failures else "ok")
    return 1 if failures else 0
