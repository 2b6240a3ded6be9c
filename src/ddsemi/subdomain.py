"""Subdomain solves and discrete Steklov-Poincare operators.

A SubdomainWorkspace binds (mesh, decomposition, problem, side) and owns
the assembler, one warm start and one held LU factor per solve kind, the
Newton and factorization counters, the tangent Jacobian at the last
linearization trace and the interface block of the last residual a solve
assembled. Local coefficient vectors are laid out
[interior | interface]; the trace operator extracts the interface block.

The Steklov-Poincare action of a trace eta is the interface block of the
assembled residual at the constrained subdomain solution; its inverse is a
coupled solve over interior and interface unknowns. All four nonlinear
solves run one Newton kernel, which reuses the held factor of its kind
across Newton steps and solves (chord Newton), and every sparse LU goes
through one helper and one factorization entry point, ``splu``: LAPACK's
banded LU on a reverse Cuthill-McKee order for narrow patterns, SuperLU
for wide ones.
"""

import ctypes
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu as superlu

from .assembly import DEFAULT_DEGREE, Assembler, FieldVector, interface_mass_matrix
from .splitting import MonotoneOperator, SingularJacobian, damped_newton

# Every Jacobian factored here is symmetric, so a minimum-degree ordering of
# the pattern of A^T + A keeps the LU fill lower than SuperLU's COLAMD default.
ORDERING = "MMD_AT_PLUS_A"
# Patterns whose reverse Cuthill-McKee half-bandwidth is at most this are
# factored by LAPACK's banded LU, wider ones by SuperLU. NN on the p-Laplace
# problem, 2-core VM, SuperLU against banded: half-bandwidth 48 (h = 1/32,
# 12 outer steps) 3.0 -> 1.5 s with OpenBLAS's default two threads and
# 2.7 -> 1.7 s with one; 96 (h = 1/64, 8 outer steps) 15.5 -> 25.5 s with
# two threads, 14.7 -> 11.0 s with one, and peak RSS 144 -> 218 MB. Band
# storage grows as (3k + 1) n, so h = 1/48 (k = 72, +28 MB) stays on SuperLU.
BAND_MAX = 64

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


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


class BandOrder:
    """Symbolic part of a factorization, computed once per sparsity pattern.

    ``perm`` is the reverse Cuthill-McKee order of the pattern of the square
    sparse matrix a (Cuthill & McKee 1969; George & Liu 1981, ch. 4), ``k`` the
    half-bandwidth of a on that order and, when ``banded`` (k <= BAND_MAX),
    ``scatter`` the position of each stored entry of a in LAPACK band
    storage: A[i, j] at ab[2k + i - j, j] of a (3k + 1, n) array in Fortran
    order, whose top k rows take the fill of partial pivoting. Positions
    refer to a's entries in CSR form.
    """

    def __init__(self, a):
        a = a.tocsr()
        n = a.shape[0]
        self.indptr, self.indices = a.indptr.copy(), a.indices.copy()
        self.perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        rank = np.empty(n, dtype=np.intp)
        rank[self.perm] = np.arange(n)
        rows = rank[np.repeat(np.arange(n), np.diff(a.indptr))]
        cols = rank[a.indices]
        self.k = int(np.abs(rows - cols).max(initial=0))
        self.banded = self.k <= BAND_MAX
        self.scatter = (2 * self.k + rows - cols) + (3 * self.k + 1) * cols \
            if self.banded else None

    def fits(self, a):
        """Whether a has the pattern this order was computed from."""
        a = a.tocsr()
        return np.array_equal(self.indptr, a.indptr) and np.array_equal(self.indices, a.indices)


def _order_for(jac, order):
    """order when it fits jac's pattern, else jac's own BandOrder."""
    return order if order is not None and order.fits(jac) else BandOrder(jac)


class BandedLU:
    """LAPACK banded LU with partial pivoting of a sparse matrix permuted to
    its BandOrder; ``solve(b)`` and ``nnz`` (the band storage) as on
    SciPy's SuperLU."""

    def __init__(self, a, order):
        n, k = a.shape[0], order.k
        ab = np.bincount(order.scatter, weights=a.tocsr().data, minlength=(3 * k + 1) * n)
        self._lu, self._piv, info = _gbtrf(ab.reshape(n, 3 * k + 1).T, k, k, overwrite_ab=1)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")
        self._k, self._perm = k, order.perm
        self.nnz = self._lu.size

    def solve(self, b):
        x, _ = _gbtrs(self._lu, self._k, self._k, b[self._perm], self._piv, overwrite_b=1)
        out = np.empty_like(x)
        out[self._perm] = x
        return out


def splu(a, order=None):
    """LU factors of the square sparse matrix a, with ``solve(b)`` and ``nnz``.

    ``order`` is the BandOrder of a's pattern, computed here when not given.
    A banded order is factored by LAPACK (``gbtrf``), a wider one by SuperLU
    with ORDERING; both pivot partially. Raises RuntimeError when a is
    exactly singular.
    """
    if order is None:
        order = BandOrder(a)
    if not order.banded:
        return superlu(sp.csc_matrix(a), permc_spec=ORDERING)
    return BandedLU(a, order)


def _factor(jac, order=None):
    """Solve function of the LU factors of jac (see ``splu``)."""
    try:
        return splu(jac, order).solve
    except RuntimeError as exc:
        raise SingularJacobian(f"sparse factorization failed: {exc}") from exc


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


class HeldFactor:
    """The LU factors of one solve kind, kept across Newton steps and
    solves, and the BandOrder of their pattern, which is recomputed only
    when the pattern changes.

    ``solve`` is the solve function of the last linearization factored, or
    None; ``factorizations`` counts the factorizations. A replaced factor is
    freed before its successor is built. After a SuperLU factor glibc is
    then asked to return the freed heap: a long-lived SuperLU factor
    otherwise keeps the pages freed below it resident (NN at h = 1/48, 12
    outer steps: peak RSS 108 MB with the trim, 130-176 MB without it). A
    banded factor is one array, and trimming after it costs more than the
    factorization.
    """

    def __init__(self):
        self.solve = None
        self.order = None
        self.factorizations = 0

    def refactor(self, factor, jac):
        """Replace the factor by ``factor(jac, order)``; returns its solve."""
        if self.solve is not None:
            self.solve = None
            if not self.order.banded and _malloc_trim is not None:
                _malloc_trim(0)
        self.order = _order_for(jac, self.order)
        self.solve = factor(jac, self.order)
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
    factor (see splitting.damped_newton). Without one, every step refactors
    on one BandOrder, rebuilt only when the Jacobian's pattern changes.

    Returns (u, iterations, residual_norm). Raises SingularJacobian when a
    factorization fails and NonConvergence (with history) otherwise. A
    line-search stall at the rounding floor of the current iterate scale
    (which an absolute tolerance cannot beat once iterates grow large, as
    in diverging outer iterations) returns the floor-accurate solution
    instead of raising.
    """
    order = None

    def factor(jac):
        nonlocal order
        order = _order_for(jac, order)
        return _factor(jac, order)

    result = damped_newton(residual_fn, jacobian_fn, _factor if held is not None else factor,
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
        # (problem, field, interface block) of the last residual a solve assembled
        self._last_residual = None
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
        """Interface block of the assembled residual at a field (dual).

        When u is byte-equal to the field of the last residual a solve of
        the workspace's problem assembled, that residual's interface block
        is returned instead of assembling it again; assembly is
        deterministic, so the two agree bit for bit.
        """
        last = self._last_residual
        if last is not None and last[0] is self.problem \
                and last[1].tobytes() == u.data.tobytes():
            return InterfaceVector(last[2].copy(), dual=True)
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

        With ``eta`` only the m interior unknowns are free, the trace is
        fixed to eta and Newton factors the assembled interior block.
        Otherwise all unknowns are free: interior residual zero and
        interface residual psi, or with ``robin_s`` the interface residual
        plus robin_s * M_Gamma * trace equal to psi.
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
            # the flux functional, before psi or the Robin terms enter
            self._last_residual = (problem, full.copy(), r[m:].copy())
            if robin_s is not None:
                r[m:] += robin_s * (mass @ full[m:]) - psi
            elif psi is not None:
                r[m:] -= psi
            return r[:free]

        def jacobian(x):
            full[:free] = x
            jac = self.asm.jacobian(full, problem, interior=eta is not None)
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
