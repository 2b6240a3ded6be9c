"""Interface iterations: Dirichlet-Neumann, Robin-Robin, Neumann-Neumann.

All three methods iterate on the interface trace of a two-subdomain
decomposition and report per-iteration field errors against a monolithic
reference, the interface dual residual (coefficient 2-norm of the summed
flux functionals), wall time, and subdomain Newton counts.

The Dirichlet-Neumann method is available in two algebraically equivalent
formulations: the subdomain form (alternating constrained and coupled
solves with the relaxed trace update) and the interface form, which runs
the abstract relaxed-splitting engine on the two Steklov-Poincare
operators. ``verify_lemma_equivalence`` checks their iterates against each
other step by step.
"""

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import Assembler
from .splitting import (IterationConfig, SingularJacobian, SplittingProblem,
                        splitting_iterate)
from .subdomain import (InterfaceVector, NewtonDivergence, SteklovOperator,
                        SubdomainWorkspace)

DIVERGENCE_FACTOR = 1e6

SUBDOMAIN_FORM = "subdomain-form"
INTERFACE_FORM = "interface-form"


class MeshMismatch(ValueError):
    """Fields and reference do not live on the same discretization."""


class EquivalenceViolation(RuntimeError):
    """The two Dirichlet-Neumann formulations drifted apart."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class DNConfig:
    """Dirichlet-Neumann parameters: trace update is
    eta <- s * trace(neumann solve) + (1 - s) * eta."""

    s: float
    eta0: InterfaceVector = None
    max_iter: int = 200
    stop_tol: float = 1e-10
    formulation: str = SUBDOMAIN_FORM

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("relaxation parameter s must be positive")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.formulation not in (SUBDOMAIN_FORM, INTERFACE_FORM):
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass
class RRConfig:
    """Robin-Robin parameters; s weighs the interface L2 pairing."""

    s: float
    eta0: InterfaceVector = None
    max_iter: int = 200
    stop_tol: float = 1e-10

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("Robin parameter s must be positive")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class NNConfig:
    """Neumann-Neumann parameters: linearized interface corrections on both
    sides, update eta <- eta - (s1 * trace(w1) + s2 * trace(w2))."""

    s1: float
    s2: float
    eta0: InterfaceVector = None
    max_iter: int = 200
    stop_tol: float = 1e-10
    stagnation_window: int = 20
    stagnation_rtol: float = 1e-3

    def __post_init__(self):
        if not (self.s1 > 0 and self.s2 > 0):
            raise ValueError("weights s1, s2 must be positive")
        if not self.stop_tol > 0:
            raise ValueError("stop_tol must be positive")
        if self.max_iter < 1 or self.stagnation_window < 1:
            raise ValueError("iteration limits must be at least 1")


@dataclass
class IterationRow:
    n: int
    error: float  # nan when no reference is available
    residual: float
    newton1: int
    newton2: int
    seconds: float


@dataclass
class MethodReport:
    """Per-iteration record of one interface method run.

    Row n pairs the side-1 constrained solve at the current trace with the
    side-2 field produced by the step (row 0 pairs the two constrained
    solves at the initial trace).
    """

    method: str
    rows: list = field(default_factory=list)
    termination: str = "max-iterations"

    @property
    def converged(self):
        return self.termination == "converged"

    @property
    def non_converged(self):
        return not self.converged

    @property
    def iterations(self):
        return self.rows[-1].n if self.rows else 0

    @property
    def errors(self):
        return np.array([row.error for row in self.rows])

    @property
    def residuals(self):
        return np.array([row.residual for row in self.rows])

    @property
    def final_error(self):
        return self.rows[-1].error if self.rows else float("nan")

    @property
    def min_error(self):
        errs = self.errors
        return float(np.nanmin(errs)) if errs.size and not np.all(np.isnan(errs)) else float("nan")

    def iterations_to(self, error_tol):
        """First step index whose error is at or below error_tol, else None."""
        for row in self.rows:
            if np.isfinite(row.error) and row.error <= error_tol:
                return row.n
        return None

    def fitted_factor(self, lo=1e-8, hi=1e-2):
        """Least-squares per-iteration error factor over the window lo..hi."""
        pts = [(row.n, row.error) for row in self.rows
               if np.isfinite(row.error) and lo <= row.error <= hi]
        if len(pts) < 2:
            return None
        ns = np.array([p[0] for p in pts], dtype=float)
        es = np.log(np.array([p[1] for p in pts]))
        slope = np.polyfit(ns, es, 1)[0]
        return float(np.exp(slope))

    def error_ratios(self, start=1, floor=0.0):
        """Consecutive error ratios e_{n+1}/e_n for rows past ``start``."""
        out = []
        for a, b in zip(self.rows[:-1], self.rows[1:]):
            if b.n <= start:
                continue
            if np.isfinite(a.error) and np.isfinite(b.error) and a.error > floor and b.error > floor:
                out.append(b.error / a.error)
        return np.array(out)

    def to_csv(self, target):
        """Write rows as CSV (fixed schema, '.' decimal, blank error cells
        when no reference was supplied)."""
        def fmt(x):
            return "" if x is None or (isinstance(x, float) and np.isnan(x)) else repr(float(x))

        lines = ["n,error,residual,newton1,newton2,seconds"]
        for row in self.rows:
            lines.append(",".join([str(row.n), fmt(row.error), fmt(row.residual),
                                   str(row.newton1), str(row.newton2), fmt(row.seconds)]))
        text = "\n".join(lines) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as f:
                f.write(text)

    def summary(self, h=None, s=None):
        return {
            "method": self.method,
            "h": h,
            "s": s,
            "iterations": self.iterations,
            "final_error": None if np.isnan(self.final_error) else self.final_error,
            "final_residual": self.rows[-1].residual if self.rows else None,
            "fitted_L": self.fitted_factor(),
            "converged": self.converged,
            "non_converged": self.non_converged,
            "termination": self.termination,
        }

    def to_json(self, target=None, h=None, s=None):
        """Summary plus per-iteration rows as a JSON document."""
        def clean(x):
            return None if isinstance(x, float) and np.isnan(x) else x

        obj = dict(self.summary(h=h, s=s))
        obj["rows"] = [{"n": r.n, "error": clean(r.error), "residual": r.residual,
                        "newton1": r.newton1, "newton2": r.newton2,
                        "seconds": r.seconds} for r in self.rows]
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        if target is None:
            return text
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as f:
                f.write(text)
        return text


class RelativeFieldError:
    """Discrete-H1 relative error of a subdomain pair against a reference.

    e = (||u1 - r1|| + ||u2 - r2||) / (||r1|| + ||r2||) with per-subdomain
    H1 norms and r_i the reference restricted to subdomain i.
    """

    def __init__(self, mesh, decomp, reference, degree=4):
        data = reference.field.data if hasattr(reference, "field") else \
            np.asarray(getattr(reference, "data", reference), dtype=float)
        if data.shape[0] != decomp.global_dofmap().n_dofs:
            raise MeshMismatch("reference does not match the mesh's free dofs")
        self._h1 = []
        self._ref = []
        denom = 0.0
        for side in (1, 2):
            asm = Assembler(mesh, decomp.side_triangles(side),
                            decomp.side_dofmap(side), degree)
            h1 = asm.h1_matrix()
            ref = decomp.restrict(data, side)
            self._h1.append(h1)
            self._ref.append(ref)
            denom += float(np.sqrt(ref @ (h1 @ ref)))
        self._denom = denom

    def side_norm(self, side, v):
        h1 = self._h1[side - 1]
        return float(np.sqrt(v @ (h1 @ v)))

    def __call__(self, u1, u2):
        num = 0.0
        for side, u in ((1, u1), (2, u2)):
            v = u.data if hasattr(u, "data") else np.asarray(u, dtype=float)
            if v.shape[0] != self._ref[side - 1].shape[0]:
                raise MeshMismatch(f"side {side} field has wrong length")
            num += self.side_norm(side, v - self._ref[side - 1])
        return num / self._denom if self._denom > 0 else num


def compute_error(u1, u2, reference, mesh, decomp, degree=4):
    """One-shot relative field error; see RelativeFieldError."""
    return RelativeFieldError(mesh, decomp, reference, degree)(u1, u2)


def _zero_trace(decomp):
    return InterfaceVector(np.zeros(decomp.n_interface))


class _RowRecorder:
    """Tracks wall time and Newton-counter deltas between rows."""

    def __init__(self, ws1, ws2, meter):
        self.ws1 = ws1
        self.ws2 = ws2
        self.meter = meter
        self.rows = []
        self._t = time.perf_counter()
        self._c1 = ws1.newton_iters
        self._c2 = ws2.newton_iters

    def add(self, n, residual, u1, u2):
        # the meter runs first, so each row is billed its own error time
        err = self.meter(u1, u2) if (self.meter and u1 is not None) else float("nan")
        now = time.perf_counter()
        c1, c2 = self.ws1.newton_iters, self.ws2.newton_iters
        self.rows.append(IterationRow(n, err, residual,
                                      c1 - self._c1, c2 - self._c2, now - self._t))
        self._t, self._c1, self._c2 = now, c1, c2


def run_dirichlet_neumann(cfg, ws1, ws2, reference=None, on_step=None):
    """Run the Dirichlet-Neumann iteration in the configured formulation.

    Stops when the interface dual residual (norm of the summed flux
    functionals at the current trace) falls to cfg.stop_tol, on divergence
    (growth by 1e6 over the initial residual), or at cfg.max_iter.
    """
    meter = RelativeFieldError(ws1.mesh, ws1.decomp, reference) if reference is not None else None
    eta = cfg.eta0.copy() if cfg.eta0 is not None else _zero_trace(ws1.decomp)
    if cfg.formulation == INTERFACE_FORM:
        return _run_dn_interface_form(cfg, ws1, ws2, eta, meter, on_step)
    rec = _RowRecorder(ws1, ws2, meter)

    s1 = ws1.apply_steklov_poincare(eta)
    u1 = ws1.last_dirichlet
    s2 = ws2.apply_steklov_poincare(eta)
    u2 = ws2.last_dirichlet
    residual = (s1 + s2).norm()
    residual0 = residual
    rec.add(0, residual, u1, u2)
    if on_step is not None:
        on_step(0, eta.data.copy())

    report = MethodReport("dn", rec.rows)
    n = 0
    while True:
        if residual <= cfg.stop_tol:
            report.termination = "converged"
            return report
        if residual0 > 0 and residual > DIVERGENCE_FACTOR * residual0:
            report.termination = "diverged"
            return report
        if n >= cfg.max_iter:
            report.termination = "max-iterations"
            return report
        n += 1
        u2 = ws2.neumann_solve(-1.0 * s1)
        eta = cfg.s * ws2.trace(u2) + (1.0 - cfg.s) * eta
        s1 = ws1.apply_steklov_poincare(eta)
        u1 = ws1.last_dirichlet
        s2 = ws2.apply_steklov_poincare(eta)
        residual = (s1 + s2).norm()
        rec.add(n, residual, u1, u2)
        if on_step is not None:
            on_step(n, eta.data.copy())


def _run_dn_interface_form(cfg, ws1, ws2, eta, meter, on_step):
    """Interface form: the relaxed-splitting engine on the two
    Steklov-Poincare operators with zero right-hand side."""
    problem = SplittingProblem(SteklovOperator(ws1), SteklovOperator(ws2),
                               np.zeros(len(eta)))
    icfg = IterationConfig(s=cfg.s, eta0=eta.data, max_outer=cfg.max_iter,
                           outer_tol=cfg.stop_tol,
                           newton_tol=min(ws1.newton_tol, ws2.newton_tol),
                           newton_max=ws2.newton_max)
    marks = []
    t0 = time.perf_counter()
    c0 = (ws1.newton_iters, ws2.newton_iters)

    def mark(step, vec):
        marks.append((time.perf_counter(), ws1.newton_iters, ws2.newton_iters))
        if on_step is not None:
            on_step(step, vec)

    def error_fn(_vec):
        u2 = ws2.last_neumann if ws2.last_neumann is not None else ws2.last_dirichlet
        return meter(ws1.last_dirichlet, u2)

    trace = splitting_iterate(problem, icfg,
                              error_fn=error_fn if meter is not None else None,
                              on_step=mark)
    rows = []
    prev = (t0,) + c0
    for recd, mk in zip(trace.records, marks):
        rows.append(IterationRow(recd.step, recd.error, recd.residual,
                                 mk[1] - prev[1], mk[2] - prev[2], mk[0] - prev[0]))
        prev = mk
    return MethodReport("dn", rows, trace.termination)


def run_robin_robin(cfg, ws1, ws2, reference=None, on_step=None):
    """Alternating Robin solves with the interface L2 pairing weighted by s.

    Side 1 matches side 2's previous Robin trace, then side 2 matches the
    fresh side-1 data. The reported residual is the norm of the summed flux
    functionals of the current pair, which equals s times the interface
    mass matrix applied to the trace jump.
    """
    meter = RelativeFieldError(ws1.mesh, ws1.decomp, reference) if reference is not None else None
    eta = cfg.eta0.copy() if cfg.eta0 is not None else _zero_trace(ws1.decomp)
    mass = ws1.mass_gamma
    rec = _RowRecorder(ws1, ws2, meter)

    u1 = ws1.dirichlet_solve(eta)
    u2 = ws2.dirichlet_solve(eta)
    r1 = ws1.interface_residual(u1)
    r2 = ws2.interface_residual(u2)
    residual = (r1 + r2).norm()
    residual0 = residual
    rec.add(0, residual, u1, u2)
    if on_step is not None:
        on_step(0, ws2.trace(u2).data)

    report = MethodReport("rr", rec.rows)
    n = 0
    while True:
        if residual <= cfg.stop_tol:
            report.termination = "converged"
            return report
        if residual0 > 0 and residual > DIVERGENCE_FACTOR * residual0:
            report.termination = "diverged"
            return report
        if n >= cfg.max_iter:
            report.termination = "max-iterations"
            return report
        n += 1
        g1 = InterfaceVector(cfg.s * (mass @ u2.interface) - r2.data, dual=True)
        u1 = ws1.robin_solve(g1, cfg.s)
        r1 = ws1.interface_residual(u1)
        g2 = InterfaceVector(cfg.s * (mass @ u1.interface) - r1.data, dual=True)
        u2 = ws2.robin_solve(g2, cfg.s)
        r2 = ws2.interface_residual(u2)
        residual = (r1 + r2).norm()
        rec.add(n, residual, u1, u2)
        if on_step is not None:
            on_step(n, ws2.trace(u2).data)


def run_neumann_neumann(cfg, ws1, ws2, reference=None, on_step=None):
    """Neumann-Neumann iteration with zero-load interface corrections.

    Each step solves both constrained problems at the current trace, forms
    the flux-jump residual, solves the source-free coupled problem on each
    side with that residual as interface data, and subtracts the weighted
    correction traces. Stagnation (no relative improvement of the best
    error over ``stagnation_window`` consecutive steps while above
    stop_tol) and inner solver failures terminate the run with the
    corresponding non-convergence flag instead of raising.
    """
    meter = RelativeFieldError(ws1.mesh, ws1.decomp, reference) if reference is not None else None
    eta = cfg.eta0.copy() if cfg.eta0 is not None else _zero_trace(ws1.decomp)
    rec = _RowRecorder(ws1, ws2, meter)
    report = MethodReport("nn", rec.rows)

    best = np.inf
    streak = 0
    residual0 = None
    n = 0
    while True:
        try:
            u1 = ws1.dirichlet_solve(eta)
            u2 = ws2.dirichlet_solve(eta)
            rho = ws1.interface_residual(u1) + ws2.interface_residual(u2)
        except (NewtonDivergence, SingularJacobian):
            report.termination = "solver-failure"
            return report
        residual = rho.norm()
        if residual0 is None:
            residual0 = residual
        rec.add(n, residual, u1, u2)
        if on_step is not None:
            on_step(n, eta.data.copy())

        metric = rec.rows[-1].error if meter is not None else residual
        if np.isfinite(metric):
            if metric >= best * (1.0 - cfg.stagnation_rtol):
                streak += 1
            else:
                streak = 0
            best = min(best, metric)

        if residual <= cfg.stop_tol:
            report.termination = "converged"
            return report
        if residual0 > 0 and residual > DIVERGENCE_FACTOR * residual0:
            report.termination = "diverged"
            return report
        if streak >= cfg.stagnation_window and best > cfg.stop_tol:
            report.termination = "stagnated"
            return report
        if n >= cfg.max_iter:
            report.termination = "max-iterations"
            return report
        n += 1
        try:
            w1 = ws1.neumann_correction_solve(rho)
            w2 = ws2.neumann_correction_solve(rho)
        except (NewtonDivergence, SingularJacobian):
            report.termination = "solver-failure"
            return report
        eta = eta - (cfg.s1 * ws1.trace(w1) + cfg.s2 * ws2.trace(w2))


@dataclass
class EquivalenceReport:
    discrepancies: np.ndarray
    tolerance: float

    @property
    def max_discrepancy(self):
        return float(self.discrepancies.max())


def verify_lemma_equivalence(prob, mesh, decomp, cfg, n_steps=20,
                             degree=4, newton_rtol=1e-12):
    """Run both Dirichlet-Neumann formulations and compare their traces.

    Fresh workspaces are built for each path; the iterates must agree to 10
    times the subdomain Newton tolerance at every step, else
    EquivalenceViolation reports the first divergent step.
    """
    etas = {}
    for form in (SUBDOMAIN_FORM, INTERFACE_FORM):
        wsa = SubdomainWorkspace(mesh, decomp, prob, 1, degree, newton_rtol)
        wsb = SubdomainWorkspace(mesh, decomp, prob, 2, degree, newton_rtol)
        collected = []
        run_cfg = replace(cfg, formulation=form, max_iter=n_steps, stop_tol=1e-300)
        run_dirichlet_neumann(run_cfg, wsa, wsb,
                              on_step=lambda n, v: collected.append(v))
        etas[form] = collected
        tol = 10.0 * max(wsa.newton_tol, wsb.newton_tol)
    a, b = etas[SUBDOMAIN_FORM], etas[INTERFACE_FORM]
    steps = min(len(a), len(b))
    diffs = np.array([float(np.linalg.norm(a[i] - b[i])) for i in range(steps)])
    bad = np.nonzero(diffs > tol)[0]
    if bad.size:
        raise EquivalenceViolation(
            f"formulations differ by {diffs[bad[0]]:.3e} at step {bad[0]} "
            f"(tolerance {tol:.3e})", step=int(bad[0]))
    return EquivalenceReport(diffs, tol)
