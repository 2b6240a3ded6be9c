"""Interface iterations: Dirichlet-Neumann, Robin-Robin, Neumann-Neumann.

All three methods iterate on the interface trace of a two-subdomain
decomposition and report per-iteration field errors against a monolithic
reference, the interface dual residual (coefficient 2-norm of the summed
flux functionals), wall time, and subdomain Newton counts; a report also
counts the sparse factorizations of the whole run, and renders itself as
CSV or JSON text for the caller to write.

The Dirichlet-Neumann method is available in two algebraically equivalent
formulations: the subdomain form (alternating constrained and coupled
solves with the relaxed trace update) and the interface form, which runs
the abstract relaxed-splitting engine on the two Steklov-Poincare
operators. ``verify_lemma_equivalence`` checks their iterates against each
other step by step.

Every method runs on the outer loop of ``splitting.outer_iterate`` and
supplies only its first-row and step functions (Neumann-Neumann also a
stall test); ``_run_method`` records the rows and ends any run whose
subdomain Newton fails with termination "solver-failure". The five
terminations are "converged", "diverged", "stagnated", "max-iterations"
and "solver-failure".
"""

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import Assembler
from .splitting import (IterationConfig, NonConvergence, SingularJacobian,
                        SplittingProblem, outer_iterate, splitting_steps)
from .subdomain import InterfaceVector, SteklovOperator, SubdomainWorkspace

SUBDOMAIN_FORM = "subdomain-form"
INTERFACE_FORM = "interface-form"


class MeshMismatch(ValueError):
    """Fields and reference do not live on the same discretization."""


class EquivalenceViolation(RuntimeError):
    """The two Dirichlet-Neumann formulations drifted apart."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(kw_only=True)
class MethodConfig:
    """Parameters every interface method shares: initial trace, outer iteration
    budget and stopping tolerance (> 0, as are the fields named in ``positive``)."""

    eta0: InterfaceVector = None
    max_iter: int = 200
    stop_tol: float = 1e-10
    positive = ()

    def __post_init__(self):
        for name in ("stop_tol",) + self.positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class DNConfig(MethodConfig):
    """Dirichlet-Neumann parameters: trace update is
    eta <- s * trace(neumann solve) + (1 - s) * eta."""

    s: float
    formulation: str = SUBDOMAIN_FORM
    positive = ("s",)

    def __post_init__(self):
        super().__post_init__()
        if self.formulation not in (SUBDOMAIN_FORM, INTERFACE_FORM):
            raise ValueError(f"unknown formulation {self.formulation!r}")


@dataclass
class RRConfig(MethodConfig):
    """Robin-Robin parameters; s weighs the interface L2 pairing."""

    s: float
    positive = ("s",)


@dataclass
class NNConfig(MethodConfig):
    """Neumann-Neumann parameters: nonlinear zero-load correction solves on
    both sides, update eta <- eta - (s1 * trace(w1) + s2 * trace(w2))."""

    s1: float
    s2: float
    positive = ("s1", "s2")


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
    solves at the initial trace). ``factorizations`` counts the sparse
    factorizations of both workspaces during the run.
    """

    method: str
    rows: list = field(default_factory=list)
    termination: str = "max-iterations"
    factorizations: int = 0

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

    def to_csv(self):
        """Rows as CSV text (fixed schema, '.' decimal, blank error cells
        when no reference was supplied)."""
        def fmt(x):
            return "" if x is None or (isinstance(x, float) and np.isnan(x)) else repr(float(x))

        lines = ["n,error,residual,newton1,newton2,seconds"]
        for row in self.rows:
            lines.append(",".join([str(row.n), fmt(row.error), fmt(row.residual),
                                   str(row.newton1), str(row.newton2), fmt(row.seconds)]))
        return "\n".join(lines) + "\n"

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
            "factorizations": self.factorizations,
        }

    def to_json(self, h=None, s=None):
        """Summary plus per-iteration rows as JSON text."""
        def clean(x):
            return None if isinstance(x, float) and np.isnan(x) else x

        obj = dict(self.summary(h=h, s=s))
        obj["rows"] = [{"n": r.n, "error": clean(r.error), "residual": r.residual,
                        "newton1": r.newton1, "newton2": r.newton2,
                        "seconds": r.seconds} for r in self.rows]
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class RelativeFieldError:
    """Discrete-H1 relative error of a subdomain pair against a reference.

    e = (||u1 - r1|| + ||u2 - r2||) / (||r1|| + ||r2||) with per-subdomain
    H1 norms and r_i the reference restricted to subdomain i. The H1 Gram
    values of a side are those of its shared geometry, so a meter on the
    workspaces' decomposition and degree assembles none of its own.
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
            h1 = Assembler(mesh, decomp.side_triangles(side), decomp.side_dofmap(side),
                           degree).h1_matrix()
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


class _RowRecorder:
    """Tracks wall time and Newton-counter deltas between rows."""

    def __init__(self, ws1, ws2, meter, on_step):
        self.ws1 = ws1
        self.ws2 = ws2
        self.meter = meter
        self.on_step = on_step
        self.rows = []
        self._t = time.perf_counter()
        self._c1 = ws1.newton_iters
        self._c2 = ws2.newton_iters

    def add(self, n, residual, u1, u2, vec):
        """Append row n for the field pair (u1, u2), pass a copy of ``vec``
        to on_step, and return the row."""
        # the meter runs first, so each row is billed its own error time
        err = self.meter(u1, u2) if self.meter is not None else float("nan")
        now = time.perf_counter()
        c1, c2 = self.ws1.newton_iters, self.ws2.newton_iters
        row = IterationRow(n, err, residual, c1 - self._c1, c2 - self._c2, now - self._t)
        self.rows.append(row)
        self._t, self._c1, self._c2 = now, c1, c2
        if self.on_step is not None:
            self.on_step(n, np.array(vec, dtype=float, copy=True))
        return row


def _run_method(method, cfg, ws1, ws2, reference, on_step, steps):
    """Run one interface method on the shared outer loop and report it.

    ``steps(eta0, record)`` returns the method's first-row function, its
    step function and optionally a stall test (see
    ``splitting.outer_iterate``); ``record`` is ``_RowRecorder.add``, and
    building the steps is billed to row 0. An inner Newton failure ends
    every method as "solver-failure", keeping the rows recorded so far.
    """
    meter = None if reference is None else RelativeFieldError(ws1.mesh, ws1.decomp, reference)
    eta0 = cfg.eta0.copy() if cfg.eta0 is not None else \
        InterfaceVector(np.zeros(ws1.decomp.n_interface))
    rec = _RowRecorder(ws1, ws2, meter, on_step)
    report = MethodReport(method, rec.rows)
    factorizations = ws1.factorizations + ws2.factorizations
    try:
        report.termination = outer_iterate(cfg.stop_tol, cfg.max_iter, *steps(eta0, rec.add))
    except (NonConvergence, SingularJacobian):
        report.termination = "solver-failure"
    report.factorizations = ws1.factorizations + ws2.factorizations - factorizations
    return report


def run_dirichlet_neumann(cfg, ws1, ws2, reference=None, on_step=None):
    """Run the Dirichlet-Neumann iteration in the configured formulation.

    Stops when the interface dual residual (norm of the summed flux
    functionals at the current trace) falls to cfg.stop_tol, on divergence
    (growth by 1e6 over the initial residual), or at cfg.max_iter.
    """
    steps = _dn_interface_steps if cfg.formulation == INTERFACE_FORM else _dn_subdomain_steps
    return _run_method("dn", cfg, ws1, ws2, reference, on_step,
                       lambda eta0, record: steps(cfg, ws1, ws2, eta0, record))


def _constrained(ws1, ws2, eta):
    """Both constrained solves at trace eta and their flux functionals,
    as (u1, u2, r1, r2)."""
    u1 = ws1.dirichlet_solve(eta)
    u2 = ws2.dirichlet_solve(eta)
    return u1, u2, ws1.interface_residual(u1), ws2.interface_residual(u2)


def _dn_subdomain_steps(cfg, ws1, ws2, eta, record):
    """Subdomain form: both constrained solves at the trace, then side 2's
    coupled solve against side 1's flux and the relaxed trace update."""
    r1 = None

    def constrained(n, u2=None):
        nonlocal r1
        u1, u2_dirichlet, r1, r2 = _constrained(ws1, ws2, eta)
        return record(n, (r1 + r2).norm(), u1,
                      u2_dirichlet if u2 is None else u2, eta.data).residual

    def step(n):
        nonlocal eta
        u2 = ws2.neumann_solve(-1.0 * r1)
        eta = cfg.s * ws2.trace(u2) + (1.0 - cfg.s) * eta
        return constrained(n, u2)

    return lambda: constrained(0), step


def _dn_interface_steps(cfg, ws1, ws2, eta, record):
    """Interface form: the relaxed-splitting engine on the two
    Steklov-Poincare operators with zero right-hand side."""
    problem = SplittingProblem(SteklovOperator(ws1), SteklovOperator(ws2),
                               np.zeros(len(eta)))
    # side 2's operator inverts at its workspace's Newton tolerance and budget
    icfg = IterationConfig(s=cfg.s, eta0=eta.data)

    def add(n, vec, residual, _newton_iters):
        # both operators were just applied at vec, so these repeat
        # Dirichlet solves start at their answer, whose residual the
        # workspace kept: they take no Newton step and assemble nothing
        eta_n = InterfaceVector(vec)
        record(n, residual, ws1.dirichlet_solve(eta_n),
               ws2.last_neumann if n else ws2.dirichlet_solve(eta_n), vec)

    return splitting_steps(problem, icfg, add)


def run_robin_robin(cfg, ws1, ws2, reference=None, on_step=None):
    """Alternating Robin solves with the interface L2 pairing weighted by s.

    Side 1 matches side 2's previous Robin trace, then side 2 matches the
    fresh side-1 data. The reported residual is the norm of the summed flux
    functionals of the current pair, which equals s times the interface
    mass matrix applied to the trace jump.
    """
    def steps(eta, record):
        mass = ws1.mass_gamma
        u2 = r2 = None

        def first():
            nonlocal u2, r2
            u1, u2, r1, r2 = _constrained(ws1, ws2, eta)
            return record(0, (r1 + r2).norm(), u1, u2, ws2.trace(u2).data).residual

        def step(n):
            nonlocal u2, r2
            g1 = InterfaceVector(cfg.s * (mass @ u2.interface) - r2.data, dual=True)
            u1 = ws1.robin_solve(g1, cfg.s)
            r1 = ws1.interface_residual(u1)
            g2 = InterfaceVector(cfg.s * (mass @ u1.interface) - r1.data, dual=True)
            u2 = ws2.robin_solve(g2, cfg.s)
            r2 = ws2.interface_residual(u2)
            return record(n, (r1 + r2).norm(), u1, u2, ws2.trace(u2).data).residual

        return first, step

    return _run_method("rr", cfg, ws1, ws2, reference, on_step, steps)


# a step improves the best metric only if it lowers it by this relative amount
STAGNATION_RTOL = 1e-3
# steps without such an improvement after which NN ends as "stagnated"
STAGNATION_WINDOW = 20


def run_neumann_neumann(cfg, ws1, ws2, reference=None, on_step=None):
    """Neumann-Neumann iteration with zero-load interface corrections.

    Each step solves both constrained problems at the current trace, forms
    the flux-jump residual, solves the source-free coupled problem on each
    side with that residual as interface data, and subtracts the weighted
    correction traces. Stagnation (no relative improvement by
    STAGNATION_RTOL of the best error, or of the best residual without a
    reference, over STAGNATION_WINDOW consecutive steps while above
    stop_tol) ends the run as "stagnated".
    """
    def steps(eta, record):
        rho = None
        best = np.inf
        streak = 0

        def constrained(n):
            nonlocal rho, best, streak
            u1, u2, r1, r2 = _constrained(ws1, ws2, eta)
            rho = r1 + r2
            row = record(n, rho.norm(), u1, u2, eta.data)
            metric = row.residual if reference is None else row.error
            if np.isfinite(metric):
                streak = streak + 1 if metric >= best * (1.0 - STAGNATION_RTOL) else 0
                best = min(best, metric)
            return row.residual

        def step(n):
            nonlocal eta
            w1 = ws1.neumann_correction_solve(rho)
            w2 = ws2.neumann_correction_solve(rho)
            eta = eta - (cfg.s1 * ws1.trace(w1) + cfg.s2 * ws2.trace(w2))
            return constrained(n)

        def stalled():
            return streak >= STAGNATION_WINDOW and best > cfg.stop_tol

        return lambda: constrained(0), step, stalled

    return _run_method("nn", cfg, ws1, ws2, reference, on_step, steps)


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
    EquivalenceViolation reports the first divergent step. A subdomain
    Newton failure in either run, or runs of different lengths, also raise
    it, at the first step one of the runs lacks.
    """
    etas = {}
    for form in (SUBDOMAIN_FORM, INTERFACE_FORM):
        wsa = SubdomainWorkspace(mesh, decomp, prob, 1, degree, newton_rtol)
        wsb = SubdomainWorkspace(mesh, decomp, prob, 2, degree, newton_rtol)
        collected = []
        run_cfg = replace(cfg, formulation=form, max_iter=n_steps, stop_tol=1e-300)
        report = run_dirichlet_neumann(run_cfg, wsa, wsb,
                                       on_step=lambda n, v: collected.append(v))
        if report.termination == "solver-failure":
            raise EquivalenceViolation(f"{form}: subdomain Newton failed at step "
                                       f"{len(collected)}", step=len(collected))
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
    if len(a) != len(b):
        raise EquivalenceViolation(f"formulations ran {len(a)} and {len(b)} steps",
                                   step=steps)
    return EquivalenceReport(diffs, tol)
