"""The four benchmark workloads: seeded inputs, set-up, solve and check.

Every call into ddsemi goes through a module attribute (``mesh.build_rect_mesh``,
``iterations.run_robin_robin``, ...) looked up at call time, so the traced
run can wrap those attributes from outside the library.

One run solves a batch of ``BATCH_SIZE`` inputs, so that the work of a run
moves less with the seed than the work of one input does. Input 0 of
seed 0 is exactly the acceptance suite's. Every other input draws a
source amplitude and a smooth initial interface trace; the library only
ever sees the resulting problem and ``eta0``.
"""

import dataclasses
import math

import numpy as np

from ddsemi import assembly, iterations, mesh, oracle, problems, subdomain

WIDTH, HEIGHT, X_CUT = 3.0, 2.0, 1.5
NEWTON_RTOL = 1e-12
AMPLITUDE_RANGE = (0.8, 1.25)
ETA0_MODES = 3
ETA0_MAX_MODE = 6
ETA0_SCALE = 0.5  # max |eta0| as a share of max |reference trace|
MAX_FINAL_ERROR = 1e-8
# NN stagnates after 65-90 outer steps depending on the seed; stopping
# every run at a fixed step count, before the stagnation test can fire,
# keeps its work from hinging on when it does. Newton steps per input
# vary as much at 12 outer steps as at 20 or 30, and 12 keep a solve
# short enough to repeat within a run.
NN_OUTER_STEPS = 12
# inputs per run: their mean work moves less with the seed than one input's
BATCH_SIZE = 4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "dn", "rr", "nn" or "mono"
    problem: str  # "cubic" or "plaplace"
    h: float


WORKLOADS = {w.name: w for w in (
    Workload("dn-cubic-h24", "dn", "cubic", 1 / 24),
    Workload("nn-plaplace-h16", "nn", "plaplace", 1 / 16),
    Workload("mono-cubic-h64", "mono", "cubic", 1 / 64),
    Workload("rr-cubic-h12", "rr", "cubic", 1 / 12),
)}


@dataclasses.dataclass(frozen=True)
class Inputs:
    """What a seed decides: the source amplitude and the initial trace modes."""

    amplitude: float = 1.0
    modes: tuple = ()  # (wavenumber, coefficient) pairs; () is the zero trace


def make_inputs(seed):
    if seed == 0:
        return Inputs()
    rng = np.random.default_rng(seed)
    amplitude = math.exp(rng.uniform(*np.log(AMPLITUDE_RANGE)))
    ks = rng.choice(np.arange(1, ETA0_MAX_MODE + 1), size=ETA0_MODES, replace=False)
    coefs = rng.uniform(-1.0, 1.0, size=ETA0_MODES)
    return Inputs(float(amplitude), tuple((int(k), float(c)) for k, c in zip(ks, coefs)))


def make_batch(seed):
    """The inputs one run solves: those of input seeds BATCH_SIZE * seed + k."""
    return tuple(make_inputs(BATCH_SIZE * seed + k) for k in range(BATCH_SIZE))


def make_problem(kind, amplitude):
    prob = {"cubic": problems.cubic_reaction_problem,
            "plaplace": problems.p_laplace_problem}[kind]()
    if amplitude == 1.0:
        return prob
    base = prob.source
    return dataclasses.replace(prob, source=lambda x, y: amplitude * base(x, y))


def initial_trace(inputs, decomp, reference):
    """Sum of sine modes in y, scaled to a share of the reference trace's max."""
    if not inputs.modes:
        return None
    y = decomp.mesh.nodes[decomp.interface_nodes, 1]
    eta = sum(c * np.sin(k * np.pi * y / HEIGHT) for k, c in inputs.modes)
    target = ETA0_SCALE * float(np.abs(reference.trace(decomp).data).max())
    return subdomain.InterfaceVector(eta * (target / float(np.abs(eta).max())))


@dataclasses.dataclass
class State:
    """Everything a solve needs; built by ``setup``."""

    workload: Workload
    problem: object
    mesh: object
    decomp: object
    reference: object = None
    eta0: object = None
    workspaces: tuple = ()

    def renew_workspaces(self):
        """Fresh workspaces (no warm starts or caches) for another solve."""
        if self.workload.method != "mono":
            self.workspaces = tuple(
                subdomain.SubdomainWorkspace(self.mesh, self.decomp, self.problem, side,
                                             newton_rtol=NEWTON_RTOL)
                for side in (1, 2))


def setup_batch(workload, batch):
    """One mesh and decomposition, then for each input its problem and, for
    the interface methods, the monolithic reference, the initial trace and
    both workspaces. Returns one state per input."""
    m = mesh.build_rect_mesh(WIDTH, HEIGHT, workload.h)
    decomp = mesh.decompose_vertical(m, X_CUT)
    states = []
    for inputs in batch:
        prob = make_problem(workload.problem, inputs.amplitude)
        state = State(workload, prob, m, decomp)
        if workload.method != "mono":
            state.reference = oracle.solve_monolithic(prob, m, newton_rtol=NEWTON_RTOL)
            state.eta0 = initial_trace(inputs, decomp, state.reference)
            state.renew_workspaces()
        states.append(state)
    return states


def setup(workload, inputs):
    """``setup_batch`` for a single input."""
    return setup_batch(workload, (inputs,))[0]


def solve(state):
    """The measured call: the method run, or the monolithic solve for mono.
    Parameters are the acceptance suite's, except NN's ``max_iter``."""
    method = state.workload.method
    if method == "mono":
        return oracle.solve_monolithic(state.problem, state.mesh, newton_rtol=NEWTON_RTOL)
    ws1, ws2 = state.workspaces
    if method == "dn":
        cfg = iterations.DNConfig(s=0.36, stop_tol=1e-12, max_iter=120, eta0=state.eta0)
        return iterations.run_dirichlet_neumann(cfg, ws1, ws2, state.reference)
    if method == "rr":
        cfg = iterations.RRConfig(s=46, stop_tol=1e-12, max_iter=800, eta0=state.eta0)
        return iterations.run_robin_robin(cfg, ws1, ws2, state.reference)
    cfg = iterations.NNConfig(s1=0.02, s2=0.02, stop_tol=1e-11, max_iter=NN_OUTER_STEPS,
                              eta0=state.eta0)
    return iterations.run_neumann_neumann(cfg, ws1, ws2, state.reference)


def monolithic_residual_check(prob, m, sol):
    """Problems with a monolithic solution, recomputed here: the residual
    at the returned field must meet the solver's own tolerance."""
    dofmap = oracle.mesh_global_dofmap(m)
    asm = assembly.Assembler(m, np.arange(m.n_triangles), dofmap)
    tol = NEWTON_RTOL * max(1.0, float(np.linalg.norm(
        asm.residual(np.zeros(dofmap.n_dofs), prob))))
    u = sol.field.data
    if u.shape != (dofmap.n_dofs,) or not np.all(np.isfinite(u)):
        return ["monolithic solution has the wrong shape or is not finite"]
    res = float(np.linalg.norm(asm.residual(u, prob)))
    if not res <= tol:
        return [f"monolithic residual {res:.3e} above tolerance {tol:.3e}"]
    return []


def check(state, result):
    """Property checks on one solve; returns a list of problems found.

    Exact iteration counts are not checked, so a legitimate change to Newton
    or to the iterations does not count as a failure.
    """
    method = state.workload.method
    if method == "mono":
        return monolithic_residual_check(state.problem, state.mesh, result)
    problems_found = monolithic_residual_check(state.problem, state.mesh, state.reference)
    if not result.rows:
        return problems_found + ["the report has no rows"]
    if method == "nn":
        # criterion 9: NN on the p-Laplace problem must be flagged non-converged
        if not result.non_converged:
            problems_found.append(f"NN ended {result.termination!r}; expected non-converged")
        return problems_found
    if result.termination != "converged":
        problems_found.append(f"{method} ended {result.termination!r}, not converged")
    if not result.final_error <= MAX_FINAL_ERROR:
        problems_found.append(f"final error {result.final_error:.3e} above {MAX_FINAL_ERROR:g}")
    return problems_found
