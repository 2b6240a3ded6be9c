"""Relaxed splitting iteration for monotone operator equations.

Solves G1(eta) + G2(eta) = chi in a finite-dimensional Hilbert space by

    eta_{n+1} = (1 - s) * eta_n + s * G2^{-1}(chi - G1(eta_n)),

with the inverse realized by damped Newton unless the operator supplies
its own. The engine is generic over operators: the matrix-scale test
battery and the interface (Steklov-Poincare) layer both drive it.

Every solver in the package shares the two loops defined here:
``damped_newton`` and the outer loop ``outer_iterate``.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la


class NonConvergence(RuntimeError):
    """Newton ran out of iterations, the line search stalled, or the
    residual stopped being finite; carries the residual-norm history."""

    def __init__(self, message, iterations=None, residual=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = list(history or [])


class SingularJacobian(RuntimeError):
    """Linearization could not be factorized; coercivity is likely lost."""


class HilbertSpace:
    """Finite-dimensional Hilbert space with an optional Gram matrix.

    With gram=None the metric is Euclidean. The dual norm applies the
    inverse Gram matrix through a Cholesky factorization cached at
    construction (which simultaneously certifies positive definiteness).
    """

    def __init__(self, dim, gram=None):
        self.dim = dim
        if gram is None:
            self._chol = None
        else:
            gram = np.asarray(gram, dtype=float)
            if gram.shape != (dim, dim):
                raise ValueError("Gram matrix shape does not match the dimension")
            if not np.allclose(gram, gram.T, rtol=1e-12, atol=0):
                raise ValueError("inner product must be symmetric")
            try:
                self._chol = la.cho_factor(gram)
            except la.LinAlgError as exc:
                raise ValueError("inner product must be positive definite") from exc
        self.gram = gram

    def norm(self, x):
        x = np.asarray(x, dtype=float)
        if self._chol is None:
            return float(np.linalg.norm(x))
        return float(np.sqrt(x @ (self.gram @ x)))

    def dual_norm(self, psi):
        psi = np.asarray(psi, dtype=float)
        if self._chol is None:
            return float(np.linalg.norm(psi))
        return float(np.sqrt(psi @ la.cho_solve(self._chol, psi)))


class MonotoneOperator(ABC):
    """A map from a vector space into its dual, assumed monotone.

    ``apply`` must be deterministic. ``jacobian`` (symmetric linearization)
    is an optional capability used by the default Newton inverse;
    ``invert`` may be overridden by operators with a cheaper or more robust
    inverse of their own.
    """

    @abstractmethod
    def apply(self, x):
        """Evaluate the operator, returning a dual vector."""

    def jacobian(self, x):
        raise NotImplementedError(f"{type(self).__name__} provides no jacobian")

    @property
    def has_jacobian(self):
        return type(self).jacobian is not MonotoneOperator.jacobian

    def invert(self, psi, x0, tol, max_iter, space=None):
        """Solve apply(x) = psi; returns (x, newton_iterations)."""
        result = newton_invert(self, psi, x0, tol, max_iter, space)
        return result.x, result.iterations


class MatrixOperator(MonotoneOperator):
    """Linear operator x -> A @ x."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def apply(self, x):
        return self.a @ x

    def jacobian(self, x):
        return self.a


class CallableOperator(MonotoneOperator):
    """Wrap plain functions (value and optional Jacobian) as an operator."""

    def __init__(self, fn, jac=None):
        self.fn = fn
        self.jac = jac

    def apply(self, x):
        return np.asarray(self.fn(x), dtype=float)

    def jacobian(self, x):
        if self.jac is None:
            raise NotImplementedError("no jacobian registered")
        return np.asarray(self.jac(x), dtype=float)

    @property
    def has_jacobian(self):
        return self.jac is not None


@dataclass
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float
    history: list


# sufficient-decrease constant and smallest step length of the line search
ARMIJO = 1e-4
MIN_STEP = 2.0 ** -30


def damped_newton(residual_fn, jacobian_fn, solve, norm, x0, tol, max_iter,
                  at_floor=None):
    """Damped Newton for residual_fn(x) = 0 with Armijo backtracking.

    ``solve(jac, rhs)`` solves one linearized system and raises
    SingularJacobian when it cannot; ``norm`` of the residual is the merit
    function. When the line search stalls, ``at_floor(jac, x, rnorm)`` may
    declare the current residual accurate to rounding, and x is returned
    instead of raising NonConvergence.
    """
    x = np.array(x0, dtype=float, copy=True)
    r = residual_fn(x)
    rnorm = norm(r)
    history = [rnorm]
    iters = 0
    while rnorm > tol:
        if not np.isfinite(rnorm):
            raise NonConvergence("residual is not finite", iters, rnorm, history)
        if iters >= max_iter:
            raise NonConvergence(
                f"no convergence in {max_iter} Newton iterations "
                f"(residual {rnorm:.3e}, tol {tol:.3e})", iters, rnorm, history)
        jac = jacobian_fn(x)
        step = solve(jac, -r)
        t = 1.0
        while True:
            x_new = x + t * step
            r_new = residual_fn(x_new)
            rnorm_new = norm(r_new)
            if rnorm_new <= (1.0 - ARMIJO * t) * rnorm:
                break
            t *= 0.5
            if t < MIN_STEP:
                if at_floor is not None and at_floor(jac, x, rnorm):
                    return NewtonResult(x, iters, rnorm, history)
                history.append(rnorm_new)
                raise NonConvergence("line search failed to reduce the residual",
                                     iters, rnorm, history)
        x, r, rnorm = x_new, r_new, rnorm_new
        iters += 1
        history.append(rnorm)
    return NewtonResult(x, iters, rnorm, history)


def _dense_solve(jac, rhs):
    try:
        return np.linalg.solve(jac, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(f"Newton linearization is singular: {exc}") from exc


def newton_invert(g, psi, x0, tol, max_iter, space=None):
    """Damped Newton for g.apply(x) = psi; the merit function is the dual
    norm of the residual. Returns a NewtonResult."""
    if not g.has_jacobian:
        raise NonConvergence("operator provides neither jacobian nor custom inverse")
    psi = np.asarray(psi, dtype=float)
    space = space or HilbertSpace(psi.shape[0])
    return damped_newton(lambda x: g.apply(x) - psi,
                         lambda x: np.asarray(g.jacobian(x), dtype=float),
                         _dense_solve, space.dual_norm, x0, tol, max_iter)


def invert_operator(g, psi, x0=None, tol=1e-12, max_iter=50, space=None):
    """Solve g.apply(x) = psi to dual-residual tolerance ``tol``."""
    psi = np.asarray(psi, dtype=float)
    if x0 is None:
        x0 = np.zeros_like(psi)
    return newton_invert(g, psi, x0, tol, max_iter, space).x


@dataclass
class SplittingProblem:
    """Operator pair, right-hand side, and metric of G1 + G2 = chi."""

    g1: MonotoneOperator
    g2: MonotoneOperator
    chi: np.ndarray
    inner_product: np.ndarray = None

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=float)
        self.space = HilbertSpace(self.chi.shape[0], self.inner_product)
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            out = np.asarray(g.apply(np.zeros_like(self.chi)))
            if out.shape != self.chi.shape:
                raise ValueError(f"{name} dimension {out.shape} does not match chi")


@dataclass
class IterationConfig:
    """Relaxation parameter, initial guess, and stopping control."""

    s: float
    eta0: np.ndarray
    max_outer: int = 200
    outer_tol: float = 1e-10
    newton_tol: float = 1e-12
    newton_max: int = 50

    def __post_init__(self):
        self.eta0 = np.asarray(self.eta0, dtype=float)
        if not self.s > 0:
            raise ValueError("relaxation parameter s must be positive")
        if not (self.outer_tol > 0 and self.newton_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.newton_max < 1:
            raise ValueError("iteration limits must be at least 1")


@dataclass
class TraceRecord:
    step: int
    iterate_norm: float
    residual: float
    error: float  # nan when no reference is available
    newton_iterations: int


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)
    termination: str = "max-iterations"

    @property
    def errors(self):
        return np.array([r.error for r in self.records])


DIVERGENCE_FACTOR = 1e6


def outer_iterate(tol, max_steps, first, step, stalled=None):
    """The outer loop of the splitting iteration and of every interface
    method; returns its termination.

    ``first()`` records the initial iterate and ``step(n)`` outer step
    n = 1, 2, ...; both return the new residual. After each record the
    checks run in this order: "converged" (residual <= tol), "diverged"
    (above DIVERGENCE_FACTOR times the initial residual), "stagnated" (if
    a ``stalled()`` test is given and holds), "max-iterations".
    """
    residual = residual0 = first()
    n = 0
    while True:
        if residual <= tol:
            return "converged"
        if residual0 > 0 and residual > DIVERGENCE_FACTOR * residual0:
            return "diverged"
        if stalled is not None and stalled():
            return "stagnated"
        if n >= max_steps:
            return "max-iterations"
        n += 1
        residual = step(n)


def splitting_steps(problem, config, record):
    """(first, step) of the relaxed splitting iteration for outer_iterate.

    ``record(step, eta, residual, newton_iterations)`` sees every iterate,
    eta0 at step 0; the residual is the dual norm of G(eta) - chi. An inner
    failure is re-raised with its outer step (counted from 0) in the message.
    """
    space = problem.space
    eta = np.array(config.eta0, dtype=float, copy=True)
    if eta.shape != problem.chi.shape:
        raise ValueError("eta0 dimension does not match the problem")
    warm = eta.copy()
    g1v = None

    def evaluate(n, newton_iters):
        nonlocal g1v
        g1v = np.asarray(problem.g1.apply(eta), dtype=float)
        g2v = np.asarray(problem.g2.apply(eta), dtype=float)
        residual = space.dual_norm(g1v + g2v - problem.chi)
        record(n, eta, residual, newton_iters)
        return residual

    def step(n):
        nonlocal eta, warm
        try:
            warm, newton_iters = problem.g2.invert(problem.chi - g1v, warm, config.newton_tol,
                                                   config.newton_max, space)
        except (NonConvergence, SingularJacobian) as exc:
            exc.args = (f"inner solve failed at outer step {n - 1}: {exc}",)
            raise
        eta = (1.0 - config.s) * eta + config.s * warm
        return evaluate(n, newton_iters)

    return lambda: evaluate(0, 0), step


def splitting_iterate(problem, config, reference=None):
    """Run the relaxed splitting iteration and record its trace.

    Every iterate is recorded, eta0 at step 0, with its distance to
    ``reference`` in the problem's norm (nan without one). Termination is
    that of outer_iterate with config.outer_tol and config.max_outer.
    """
    space = problem.space
    trace = IterationTrace()

    def record(step, eta, residual, newton_iters):
        error = float("nan") if reference is None else \
            space.norm(eta - np.asarray(reference, dtype=float))
        trace.records.append(TraceRecord(step, space.norm(eta), residual, error,
                                         newton_iters))

    trace.termination = outer_iterate(config.outer_tol, config.max_outer,
                                      *splitting_steps(problem, config, record))
    return trace


def monotonicity_probe(op, dim, n_pairs=100, radius=1.0, rng=None):
    """Smallest pairing <g(x) - g(y), x - y> over random pairs in a ball.

    A negative return flags a violation of monotonicity; the uniform
    constant itself is not estimated.
    """
    rng = np.random.default_rng(rng)
    worst = np.inf
    for _ in range(n_pairs):
        x = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        for v in (x, y):
            norm = np.linalg.norm(v)
            if norm > 0:
                v *= radius * rng.random() / norm
        gap = float((np.asarray(op.apply(x)) - np.asarray(op.apply(y))) @ (x - y))
        worst = min(worst, gap)
    return worst
