"""Subdomain solves and discrete Steklov-Poincare operators.

A SubdomainWorkspace binds (mesh, decomposition, problem, side) and owns
the assembler, warm starts, Newton counters, and single-slot factorization
caches. Local coefficient vectors are laid out [interior | interface]; the
trace operator extracts the interface block.

The Steklov-Poincare action of a trace eta is the interface block of the
assembled residual at the constrained subdomain solution; its inverse is a
single coupled Newton solve over interior and interface unknowns.
"""

import hashlib
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


def _lu_solve(jac, rhs):
    try:
        lu = splu(sp.csc_matrix(jac), permc_spec=ORDERING)
    except RuntimeError as exc:
        raise SingularJacobian(f"sparse factorization failed: {exc}") from exc
    step = lu.solve(rhs)
    if not np.all(np.isfinite(step)):
        raise SingularJacobian("factorization produced non-finite Newton step")
    return step


def _at_rounding_floor(jac, u, rnorm):
    floor = np.finfo(float).eps * max(1.0, float(np.abs(jac.diagonal()).max())) \
        * (1.0 + float(np.abs(u).max()))
    return rnorm <= 1e3 * floor


def sparse_newton(residual_fn, jacobian_fn, u0, tol, max_iter):
    """Damped Newton with sparse LU solves, Euclidean merit function and
    Armijo backtracking.

    Returns (u, iterations, residual_norm). Raises SingularJacobian when a
    factorization fails and NonConvergence (with history) otherwise. A
    line-search stall at the rounding floor of the current iterate scale
    (which an absolute tolerance cannot beat once iterates grow large, as
    in diverging outer iterations) returns the floor-accurate solution
    instead of raising.
    """
    result = damped_newton(residual_fn, jacobian_fn, _lu_solve,
                           lambda r: float(np.linalg.norm(r)), u0, tol, max_iter,
                           at_floor=_at_rounding_floor)
    return result.x, result.iterations, result.residual


def _point_key(arr):
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


class SubdomainWorkspace:
    """Solver state for one subdomain of a decomposition.

    newton_rtol is relative to the load scale (the residual norm of the
    zero field), giving an absolute tolerance that warm starts cannot
    over-tighten. Factorization caches hold a single slot per solve kind
    and are invalidated whenever the linearization point changes.
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
        self.last_dirichlet = None
        self.last_neumann = None
        self._warm = {}
        self._cache = {}
        self._mass_gamma = None

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

    def _cached(self, kind, point, build):
        key = _point_key(point)
        slot = self._cache.get(kind)
        if slot is not None and slot[0] == key:
            return slot[1]
        value = build()
        self._cache[kind] = (key, value)
        return value

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
        return self._cached("h1", np.zeros(1), self.asm.h1_matrix)

    # -- nonlinear solves ---------------------------------------------------

    def dirichlet_solve(self, eta, tol=None):
        """Subdomain solution with trace constrained to eta.

        The interface block of the result equals eta exactly (elimination,
        not penalty); the interior residual is driven below the Newton
        tolerance.
        """
        eta_data = self._require(eta, dual=False)
        tol = self._tolerance(tol)
        hit = self._cache.get("dirichlet_field")
        if hit is not None and hit[0] == _point_key(eta_data):
            self.last_dirichlet = hit[1]
            return hit[1].copy()

        m = self.m
        full = np.empty(self.asm.n_dofs)
        full[m:] = eta_data

        def residual(ui):
            full[:m] = ui
            return self.asm.residual(full, self.problem)[:m]

        def jacobian(ui):
            full[:m] = ui
            return self.asm.jacobian(full, self.problem)[:m, :m]

        warm = self._warm.get("dirichlet")
        u0 = warm[:m] if warm is not None else np.zeros(m)
        ui, iters, _ = sparse_newton(residual, jacobian, u0,
                                     tol, self.newton_max)
        self.newton_iters += iters
        out = np.concatenate([ui, eta_data.copy()])
        self._warm["dirichlet"] = out
        result = FieldVector(out, m)
        self._cache["dirichlet_field"] = (_point_key(eta_data), result)
        self.last_dirichlet = result
        return result.copy()

    def apply_steklov_poincare(self, eta, tol=None):
        """Dual interface vector of the flux functional at trace eta."""
        u = self.dirichlet_solve(eta, tol)
        return self.interface_residual(u)

    def _coupled_solve(self, problem, psi, warm_key, tol, robin_s=None):
        """Newton solve over interior and interface unknowns, warm-started
        from the last solve of the same kind: interior residual zero,
        interface residual psi, or with ``robin_s`` the interface residual
        plus robin_s * M_Gamma * trace equal to psi."""
        psi_data = self._require(psi, dual=True)
        tol = self._tolerance(tol)
        m = self.m
        if robin_s is not None:
            mass = self.mass_gamma
            penalty = robin_s * self._mass_gamma_embedded

        def residual(u):
            r = self.asm.residual(u, problem)
            if robin_s is None:
                r[m:] -= psi_data
            else:
                r[m:] += robin_s * (mass @ u[m:]) - psi_data
            return r

        def jacobian(u):
            jac = self.asm.jacobian(u, problem)
            return jac if robin_s is None else jac + penalty

        warm = self._warm.get(warm_key)
        u0 = warm if warm is not None else np.zeros(self.asm.n_dofs)
        u, iters, _ = sparse_newton(residual, jacobian, u0, tol, self.newton_max)
        self.newton_iters += iters
        self._warm[warm_key] = u
        return FieldVector(u, m)

    def neumann_solve(self, psi, tol=None):
        """Coupled solve: interior residual zero, interface residual psi.

        Equivalently the subdomain field whose Steklov-Poincare action is
        psi; its trace realizes the inverse interface operator.
        """
        self.last_neumann = self._coupled_solve(self.problem, psi, "neumann", tol)
        return self.last_neumann.copy()

    def robin_solve(self, g, robin_s, tol=None):
        """Solve with Robin coupling: interface residual + s*M_Gamma*trace = g."""
        return self._coupled_solve(self.problem, g, "robin", tol, robin_s).copy()

    # -- linearized solves ----------------------------------------------------

    def _tangent_factors(self, nu_data):
        def build():
            eta = InterfaceVector(nu_data)
            w = self.dirichlet_solve(eta)
            jac = self.asm.jacobian(w.data, self.problem)
            lu_ii = splu(sp.csc_matrix(jac[: self.m, : self.m]), permc_spec=ORDERING)
            return w, jac, lu_ii

        return self._cached("tangent", nu_data, build)

    def dirichlet_tangent_solve(self, nu, eta):
        """Directional derivative of the constrained solve: linear system at
        the linearization trace nu with interface block fixed to eta."""
        nu_data = self._require(nu, dual=False)
        eta_data = self._require(eta, dual=False)
        _, jac, lu_ii = self._tangent_factors(nu_data)
        rhs = -jac[: self.m, self.m:] @ eta_data
        ui = lu_ii.solve(rhs)
        if not np.all(np.isfinite(ui)):
            raise SingularJacobian("tangent solve produced non-finite values")
        return FieldVector(np.concatenate([ui, eta_data.copy()]), self.m)

    def apply_sp_derivative(self, nu, eta):
        """Derivative of the Steklov-Poincare action at nu applied to eta."""
        u = self.dirichlet_tangent_solve(nu, eta)
        _, jac, _ = self._tangent_factors(self._require(nu, dual=False))
        return InterfaceVector((jac @ u.data)[self.m:], dual=True)

    def neumann_correction_solve(self, psi, tol=None):
        """Zero-load coupled solve: the subdomain operator without its
        source, driven purely by the interface data psi.

        This is the correction problem of the Neumann-Neumann iteration; at
        a vanishing flux jump its solution vanishes (for reactions with
        beta(x, 0) = 0).
        """
        return self._coupled_solve(self._homogeneous_problem(), psi, "correction", tol)

    def _homogeneous_problem(self):
        if not hasattr(self, "_hom_problem"):
            self._hom_problem = replace(
                self.problem, source=lambda x, y: np.zeros_like(x))
        return self._hom_problem


class SteklovOperator(MonotoneOperator):
    """Adapter exposing a workspace's interface operator to the splitting
    engine: apply is the flux functional, invert the coupled Neumann solve."""

    def __init__(self, workspace):
        self.ws = workspace

    def apply(self, x):
        return self.ws.apply_steklov_poincare(InterfaceVector(x)).data

    def invert(self, psi, x0, tol, max_iter, space=None):
        before = self.ws.newton_iters
        # warm starting lives in the workspace's field space; x0 is implied
        u = self.ws.neumann_solve(InterfaceVector(psi, dual=True), tol)
        return self.ws.trace(u).data, self.ws.newton_iters - before
