"""Subdomain solves and discrete Steklov-Poincare operators.

A SubdomainWorkspace binds (mesh, decomposition, problem, side) and owns
the assembler, one warm start and one held LU factor per solve kind, the
Newton and factorization counters and the tangent Jacobian at the last
linearization trace. Local coefficient vectors are laid out
[interior | interface]; the trace operator extracts the interface block.

The Steklov-Poincare action of a trace eta is the interface block of the
assembled residual at the constrained subdomain solution; its inverse is a
coupled solve over interior and interface unknowns. All four nonlinear
solves run one Newton kernel, which reuses the held factor of its kind
across Newton steps and solves (chord Newton), and every sparse LU goes
through one helper.
"""

import ctypes
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import DEFAULT_DEGREE, Assembler, FieldVector, interface_mass_matrix
from .splitting import MonotoneOperator, NonConvergence, SingularJacobian, damped_newton

# Every Jacobian factored here is symmetric, so a minimum-degree ordering of
# the pattern of A^T + A keeps the LU fill lower than SuperLU's COLAMD default.
ORDERING = "MMD_AT_PLUS_A"


# importable under this name too: one failure class covers every Newton solve
NewtonDivergence = NonConvergence


@dataclass
class InterfaceVector:
    """Coefficients on the interface nodes; ``dual`` marks functionals.

    Primal traces and dual (residual-type) vectors never mix in arithmetic.
    """

    data: np.ndarray
    dual: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)

    def _check(self, other):
        if not isinstance(other, InterfaceVector):
            raise TypeError("expected an InterfaceVector")
        if other.dual != self.dual:
            raise TypeError("cannot mix primal traces with dual vectors")

    def __add__(self, other):
        self._check(other)
        return InterfaceVector(self.data + other.data, self.dual)

    def __sub__(self, other):
        self._check(other)
        return InterfaceVector(self.data - other.data, self.dual)

    def __neg__(self):
        return InterfaceVector(-self.data, self.dual)

    def __mul__(self, scalar):
        return InterfaceVector(self.data * float(scalar), self.dual)

    __rmul__ = __mul__

    def norm(self):
        return float(np.linalg.norm(self.data))

    def copy(self):
        return InterfaceVector(self.data.copy(), self.dual)

    def __len__(self):
        return self.data.shape[0]


def _factor(jac):
    """Solve function of the sparse LU of jac."""
    try:
        return splu(sp.csc_matrix(jac), permc_spec=ORDERING).solve
    except RuntimeError as exc:
        raise SingularJacobian(f"sparse factorization failed: {exc}") from exc


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


class HeldFactor:
    """The sparse LU of one solve kind, kept across Newton steps and solves.

    ``solve`` is the solve function of the last linearization factored, or
    None; ``factorizations`` counts the factorizations. A replaced factor is
    freed before its successor is built, and glibc is then asked to return
    the freed heap: a long-lived factor otherwise keeps the pages freed
    below it resident (DN at h = 1/24: peak RSS 111 MB without the trim,
    92 MB with it, 89 MB when every Newton step factors afresh).
    """

    def __init__(self):
        self.solve = None
        self.factorizations = 0

    def refactor(self, factor, jac):
        if self.solve is not None:
            self.solve = None
            if _malloc_trim is not None:
                _malloc_trim(0)
        self.solve = factor(jac)
        self.factorizations += 1
        return self.solve


def _no_source(x, y):
    return np.zeros_like(x)


def _at_rounding_floor(jac, u, rnorm):
    floor = np.finfo(float).eps * max(1.0, float(np.abs(jac.diagonal()).max())) \
        * (1.0 + float(np.abs(u).max()))
    return rnorm <= 1e3 * floor


def sparse_newton(residual_fn, jacobian_fn, u0, tol, max_iter, held=None):
    """Damped Newton with sparse LU solves, Euclidean merit function and
    Armijo backtracking; with a HeldFactor ``held``, chord steps reuse its
    factor (see splitting.damped_newton).

    Returns (u, iterations, residual_norm). Raises SingularJacobian when a
    factorization fails and NonConvergence (with history) otherwise. A
    line-search stall at the rounding floor of the current iterate scale
    (which an absolute tolerance cannot beat once iterates grow large, as
    in diverging outer iterations) returns the floor-accurate solution
    instead of raising.
    """
    result = damped_newton(residual_fn, jacobian_fn, _factor,
                           lambda r: float(np.linalg.norm(r)), u0, tol, max_iter,
                           at_floor=_at_rounding_floor, held=held)
    return result.x, result.iterations, result.residual


class SubdomainWorkspace:
    """Solver state for one subdomain of a decomposition.

    newton_rtol is relative to the load scale (the residual norm of the
    zero field), giving an absolute tolerance that warm starts cannot
    over-tighten. Each solve kind warm-starts from its own last field, so
    repeating a solve takes no Newton step and returns the same field, and
    its Newton steps reuse the kind's held factor while that factor keeps
    contracting the residual.
    """

    def __init__(self, mesh, decomp, problem, side,
                 degree=DEFAULT_DEGREE, newton_rtol=1e-12, newton_max=50):
        self.mesh = mesh
        self.decomp = decomp
        self.problem = problem
        self.side = side
        self.asm = Assembler(mesh, decomp.side_triangles(side),
                             decomp.side_dofmap(side), degree)
        self.m = decomp.side_dofmap(side).n_interior
        self.k = decomp.n_interface
        load = self.asm.residual(np.zeros(self.asm.n_dofs), problem)
        self.newton_tol = newton_rtol * max(1.0, float(np.linalg.norm(load)))
        self.newton_max = newton_max
        self.newton_iters = 0  # cumulative, across all solves
        self._warm = {}
        self._held = {kind: HeldFactor() for kind in
                      ("dirichlet", "neumann", "robin", "correction", "tangent")}
        self._tangent = None  # (nu bytes, jacobian at the constrained solution)
        # built once, so that the assembler's load cache serves every correction solve
        self._correction_problem = replace(problem, source=_no_source)
        self._mass_gamma = None

    @property
    def factorizations(self):
        """Sparse LU factorizations so far, across all solves."""
        return sum(h.factorizations for h in self._held.values())

    # -- helpers -----------------------------------------------------------

    def _require(self, vec, dual):
        if not isinstance(vec, InterfaceVector):
            raise TypeError("expected an InterfaceVector")
        if vec.dual != dual:
            kind = "dual" if dual else "primal"
            raise TypeError(f"expected a {kind} InterfaceVector")
        if len(vec) != self.k:
            raise ValueError(f"interface vector length {len(vec)} != {self.k}")
        return vec.data

    def _tolerance(self, tol):
        if tol is None:
            return self.newton_tol
        if not (np.isfinite(tol) and tol >= 0):
            raise ValueError(f"Newton tolerance must be finite and non-negative, got {tol!r}")
        return tol

    def trace(self, u):
        """Interface coefficients of a subdomain field (primal)."""
        return InterfaceVector(u.data[self.m:].copy())

    def interface_residual(self, u):
        """Interface block of the assembled residual at a field (dual)."""
        r = self.asm.residual(u.data, self.problem)
        return InterfaceVector(r[self.m:], dual=True)

    @property
    def mass_gamma(self):
        if self._mass_gamma is None:
            self._mass_gamma = interface_mass_matrix(self.decomp)
            m, n = self.m, self.asm.n_dofs
            embed = sp.coo_matrix(self._mass_gamma)
            self._mass_gamma_embedded = sp.coo_matrix(
                (embed.data, (embed.row + m, embed.col + m)), shape=(n, n)).tocsr()
        return self._mass_gamma

    def h1_matrix(self):
        return self.asm.h1_matrix()

    @property
    def last_neumann(self):
        """Copy of the field of the last Neumann solve, or None."""
        u = self._warm.get("neumann")
        return None if u is None else FieldVector(u.copy(), self.m)

    # -- nonlinear solves ---------------------------------------------------

    def _solve(self, problem, kind, tol, eta=None, psi=None, robin_s=None):
        """Damped Newton on the subdomain operator of ``problem``, warm-started
        from the last field of ``kind``, which the result replaces, and with
        the held factor of ``kind``. The caller gets a copy, never the warm
        start itself.

        With ``eta`` only the m interior unknowns are free and the trace is
        fixed to eta. Otherwise all unknowns are free: interior residual
        zero and interface residual psi, or with ``robin_s`` the interface
        residual plus robin_s * M_Gamma * trace equal to psi.
        """
        m = self.m
        free = self.asm.n_dofs if eta is None else m
        warm = self._warm.get(kind)
        full = warm.copy() if warm is not None else np.zeros(self.asm.n_dofs)
        if eta is not None:
            full[m:] = eta
        if robin_s is not None:
            mass = self.mass_gamma
            penalty = robin_s * self._mass_gamma_embedded

        def residual(x):
            full[:free] = x
            r = self.asm.residual(full, problem)
            if robin_s is not None:
                r[m:] += robin_s * (mass @ full[m:]) - psi
            elif psi is not None:
                r[m:] -= psi
            return r[:free]

        def jacobian(x):
            full[:free] = x
            jac = self.asm.jacobian(full, problem)
            if eta is not None:
                return jac[:m, :m]
            return jac if robin_s is None else jac + penalty

        x, iters, _ = sparse_newton(residual, jacobian, full[:free], tol, self.newton_max,
                                    self._held[kind])
        self.newton_iters += iters
        full[:free] = x
        self._warm[kind] = full
        return FieldVector(full.copy(), m)

    def dirichlet_solve(self, eta, tol=None):
        """Subdomain solution with trace constrained to eta.

        The interface block of the result equals eta exactly (elimination,
        not penalty); the interior residual is driven below the Newton
        tolerance.
        """
        eta_data = self._require(eta, dual=False)
        return self._solve(self.problem, "dirichlet", self._tolerance(tol), eta=eta_data)

    def apply_steklov_poincare(self, eta, tol=None):
        """Dual interface vector of the flux functional at trace eta."""
        u = self.dirichlet_solve(eta, tol)
        return self.interface_residual(u)

    def neumann_solve(self, psi, tol=None):
        """Coupled solve: interior residual zero, interface residual psi.

        Equivalently the subdomain field whose Steklov-Poincare action is
        psi; its trace realizes the inverse interface operator.
        """
        return self._solve(self.problem, "neumann", self._tolerance(tol),
                           psi=self._require(psi, dual=True))

    def robin_solve(self, g, robin_s, tol=None):
        """Solve with Robin coupling: interface residual + s*M_Gamma*trace = g."""
        return self._solve(self.problem, "robin", self._tolerance(tol),
                           psi=self._require(g, dual=True), robin_s=robin_s)

    def neumann_correction_solve(self, psi, tol=None):
        """Zero-load coupled solve: the subdomain operator without its
        source, driven purely by the interface data psi.

        This is the correction problem of the Neumann-Neumann iteration; at
        a vanishing flux jump its solution vanishes (for reactions with
        beta(x, 0) = 0).
        """
        return self._solve(self._correction_problem, "correction", self._tolerance(tol),
                           psi=self._require(psi, dual=True))

    # -- linearized solves ----------------------------------------------------

    def _tangent_factors(self, nu_data):
        """(Jacobian at the constrained solution at nu, solve function of its
        interior block), factored afresh whenever nu changes."""
        key = nu_data.tobytes()
        if self._tangent is None or self._tangent[0] != key:
            w = self.dirichlet_solve(InterfaceVector(nu_data))
            jac = self.asm.jacobian(w.data, self.problem)
            self._tangent = None  # a failed factorization leaves no stale entry
            self._held["tangent"].refactor(_factor, jac[: self.m, : self.m])
            self._tangent = (key, jac)
        return self._tangent[1], self._held["tangent"].solve

    def dirichlet_tangent_solve(self, nu, eta):
        """Directional derivative of the constrained solve: linear system at
        the linearization trace nu with interface block fixed to eta."""
        nu_data = self._require(nu, dual=False)
        eta_data = self._require(eta, dual=False)
        jac, solve_ii = self._tangent_factors(nu_data)
        rhs = -jac[: self.m, self.m:] @ eta_data
        ui = solve_ii(rhs)
        if not np.all(np.isfinite(ui)):
            raise SingularJacobian("tangent solve produced non-finite values")
        return FieldVector(np.concatenate([ui, eta_data.copy()]), self.m)

    def apply_sp_derivative(self, nu, eta):
        """Derivative of the Steklov-Poincare action at nu applied to eta."""
        u = self.dirichlet_tangent_solve(nu, eta)
        jac, _ = self._tangent_factors(self._require(nu, dual=False))
        return InterfaceVector((jac @ u.data)[self.m:], dual=True)


class SteklovOperator(MonotoneOperator):
    """Adapter exposing a workspace's interface operator to the splitting
    engine: apply is the flux functional, invert the coupled Neumann solve."""

    def __init__(self, workspace):
        self.ws = workspace

    @property
    def dim(self):
        return self.ws.k

    def apply(self, x):
        return self.ws.apply_steklov_poincare(InterfaceVector(x)).data

    def invert(self, psi, x0, tol, max_iter, space=None):
        before = self.ws.newton_iters
        # warm starting lives in the workspace's field space; x0 is implied
        u = self.ws.neumann_solve(InterfaceVector(psi, dual=True), tol)
        return self.ws.trace(u).data, self.ws.newton_iters - before
