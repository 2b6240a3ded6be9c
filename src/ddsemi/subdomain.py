"""Subdomain solves and discrete Steklov-Poincare operators.

A SubdomainWorkspace binds (mesh, decomposition, problem, side) and owns
the assembler, the last two solved pairs and one held factor per solve
kind, the Newton and factorization counters, the tangent Jacobian at the
last linearization trace and the last residual a solve assembled. Local
coefficient vectors are laid out [interior | interface]; the trace
operator extracts the interface block.

The Steklov-Poincare action of a trace eta is the interface block of the
assembled residual at the constrained subdomain solution; its inverse is a
coupled solve over interior and interface unknowns. All four nonlinear
solves run one Newton kernel to the workspace's Newton tolerance, which
reuses the held factor of its kind across Newton steps and solves (chord
Newton). Every sparse factorization goes through ``HeldFactor.refactor``
and one entry point, ``splu``: LAPACK's banded Cholesky on a reverse
Cuthill-McKee order, built once per pattern (``shared_order``), for narrow
symmetric positive definite matrices, SuperLU for all others.
"""

import ctypes
import glob
import os
import threading
from dataclasses import dataclass, replace

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu as superlu

from .assembly import DEFAULT_DEGREE, Assembler, FieldVector, interface_mass_matrix
from .splitting import MonotoneOperator, SingularJacobian, damped_newton

# Every Jacobian factored here has a symmetric pattern, so a minimum-degree
# ordering of the pattern of A^T + A keeps SuperLU's fill lower than its
# COLAMD default does.
ORDERING = "MMD_AT_PLUS_A"
# Symmetric positive definite matrices whose reverse Cuthill-McKee
# half-bandwidth k is at most this are factored by LAPACK's banded Cholesky,
# all others by SuperLU. 2-core VM, one factorization of a p-Laplace
# subdomain Jacobian on one BLAS thread: k = 96 (h = 1/64) 18 ms and (k + 1) n
# = 1.18M band entries against SuperLU's 42 ms and 0.73M entries; criterion
# 9's NN run (h = 1/64, 1270 factorizations) 85-100 s -> 45-50 s, peak RSS
# 137 -> 148 MB. The banded calls run on one OpenBLAS thread
# (``_one_blas_thread``): left on OpenBLAS's default two, that NN run takes
# 111 s. At k = 192 (h = 1/128) ``pbtrf`` takes 194 ms against SuperLU's
# 242 ms, but its 9.4M band entries are 2.6 times SuperLU's fill, so h = 1/128
# stays on SuperLU. The upper triangle is stored because ``pbtrs`` on a lower
# factor runs the transposed lower band solve, which is 2.5 times slower than
# the other triangular band solves in the OpenBLAS scipy bundles (k = 36).
BAND_MAX = 128

_pbtrf, _pbtrs = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


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
    sparse matrix a (Cuthill & McKee 1969; George & Liu 1981, ch. 4) and
    ``k`` the half-bandwidth of a on that order. When ``banded``
    (k <= BAND_MAX), ``entries`` lists the entries of a in the upper
    triangle on that order and ``scatter`` their positions in LAPACK band
    storage: A[i, j] at ab[k + i - j, j] of a (k + 1, n) array in Fortran
    order. ``transpose`` gives, for each entry of a, the position of its
    mirror entry, or is None when the pattern is not structurally
    symmetric. Positions refer to a's entries in CSR form.
    """

    def __init__(self, a):
        a = a.tocsr()
        n = a.shape[0]
        self.perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        rank = np.empty(n, dtype=np.intp)
        rank[self.perm] = np.arange(n)
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        cols = a.indices
        prow, pcol = rank[rows], rank[cols]
        self.k = int(np.abs(prow - pcol).max(initial=0))
        self.banded = self.k <= BAND_MAX
        self.entries = self.scatter = self.transpose = None
        if self.banded:
            self.entries = np.flatnonzero(prow <= pcol)
            self.scatter = (self.k + prow + self.k * pcol)[self.entries]
            # when the pattern is symmetric and a's entries are in (row, column)
            # order, as in canonical CSR, the t-th entry in (column, row) order
            # is the mirror of a's t-th entry
            mirror = np.lexsort((rows, cols))
            if np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows):
                self.transpose = mirror


def shared_order(asm, interior=False):
    """Function giving the BandOrder of the Jacobian pattern of ``asm`` (or of its
    interior block), built once and kept for all by the assembler's geometry."""
    geometry = asm.geometry
    return lambda: geometry.shared(("order", interior),
                                   lambda: BandOrder(geometry.pattern(interior)))


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with scipy's
    wheel, which runs scipy's LAPACK calls; None when it is not there."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_BLAS_THREADS = _openblas_threads()


class _OneBlasThread:
    """``with _one_blas_thread:`` runs its body on one OpenBLAS thread.

    A banded factor or solve at k <= BAND_MAX is too small to split: on two
    threads it runs slower than on one (see BAND_MAX). The first thread in
    saves the count and sets 1, the last thread out restores it, also when
    the body raises, so worker threads that overlap share one saved count
    and none is left behind. Without ``_BLAS_THREADS`` it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None  # (set, count) to put back when the last thread leaves

    def __enter__(self):
        with self._lock:
            if self._depth == 0 and _BLAS_THREADS is not None:
                get, set_ = _BLAS_THREADS
                count = get()
                if count != 1:
                    set_(1)
                    self._restore = (set_, count)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                set_, count = self._restore
                self._restore = None
                set_(count)


_one_blas_thread = _OneBlasThread()


class BandedCholesky:
    """LAPACK banded Cholesky factor (``pbtrf``) of a sparse matrix permuted
    to its BandOrder, stored as the upper triangle; ``solve(b)`` and ``nnz``
    (the band storage, (k + 1) n) as on SciPy's SuperLU. ``banded`` tells it
    from a SuperLU factor, which has no such attribute."""

    banded = True

    def __init__(self, c, order):
        self._c, self._perm = c, order.perm
        self.nnz = c.size

    def solve(self, b):
        with _one_blas_thread:
            x, _ = _pbtrs(self._c, b[self._perm], lower=0, overwrite_b=1)
        out = np.empty_like(x)
        out[self._perm] = x
        return out


def splu(a, order):
    """Factors of the square sparse matrix a, with ``solve(b)`` and ``nnz``.

    ``order`` is the BandOrder of a's pattern. A banded order whose matrix
    is symmetric (``a.data`` equal to its mirror under ``order.transpose``)
    is factored by LAPACK's banded Cholesky. A wider order, non-symmetric
    values or pattern, or a non-positive pivot go to SuperLU with ORDERING
    and partial pivoting. Raises RuntimeError when a is exactly singular.
    """
    if order.transpose is not None:
        data = a.tocsr().data
        if np.array_equal(data, data[order.transpose]):
            n, k = len(order.perm), order.k
            ab = np.bincount(order.scatter, weights=data[order.entries], minlength=(k + 1) * n)
            with _one_blas_thread:
                c, info = _pbtrf(ab.reshape(n, k + 1).T, lower=0, overwrite_ab=1)
            if info == 0:
                return BandedCholesky(c, order)
    return superlu(sp.csc_matrix(a), permc_spec=ORDERING)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


class HeldFactor:
    """The one owner of a sparse factorization: the factors of one solve
    kind, kept across Newton steps and solves, and the BandOrder of their
    pattern, from the function ``order`` (a ``shared_order``), which is called
    at the first factorization: a holder that never factors, as on an empty
    interior block, builds no order. Every matrix it factors has that pattern.

    ``solve`` is the solve function of the last factor, or None once its
    owner drops it (see splitting.damped_newton); ``factorizations`` counts
    the factors. A replaced factor is freed before its successor is built,
    and glibc is then asked to return the freed heap unless the freed
    factor (or, before the first, no factor) and the new order are both
    banded. A long-lived SuperLU factor otherwise keeps the pages freed
    below it resident (NN at h = 1/48, 12 outer steps: peak RSS 108 MB with
    the trim, 130-176 MB without it); before a first one, the trim returns
    the heap that assembly and coarser levels freed (nested reference at
    h = 1/256: 1074-1155 MB without it, 1040 MB with it). A banded Cholesky
    factor is one array, and trimming after it costs more than the
    factorization. The freed factor's kind is read from the factor
    (``BandedCholesky.banded``), not from its order: a banded order falls
    back to SuperLU on an indefinite matrix.
    """

    def __init__(self, order):
        self.solve = None
        self.order = order  # the function until the first factorization, then its BandOrder
        self.factorizations = 0
        self._banded = True  # the kind of the last factor; True before the first

    def refactor(self, jac):
        """Replace the factor by the factors of jac (see ``splu``); returns
        their solve. Raises SingularJacobian when jac cannot be factored."""
        self.solve = None
        if callable(self.order):
            self.order = self.order()
        if not (self._banded and self.order.banded) and _malloc_trim is not None:
            _malloc_trim(0)
        try:
            lu = splu(jac, self.order)
        except RuntimeError as exc:
            raise SingularJacobian(f"sparse factorization failed: {exc}") from exc
        self._banded = getattr(lu, "banded", False)
        self.solve = lu.solve
        self.factorizations += 1
        return self.solve


def _secant_start(pairs, datum, n):
    """Newton start for a solve with interface datum ``datum`` from up to two
    (datum, field) pairs, newest last: u_b + theta (u_b - u_a) with
    theta = <d - d_b, d_b - d_a> / |d_b - d_a|^2, the secant predictor of
    continuation methods (Allgower & Georg 1990, ch. 2). It is u_b itself
    with one pair or when d_b = d_a, and zero without a pair. Always a fresh
    array. (A repeated solve starts from u_b without coming here.)
    """
    if not pairs:
        return np.zeros(n)
    d_b, u_b = pairs[-1]
    if len(pairs) < 2:
        return u_b.copy()
    d_a, u_a = pairs[0]
    chord = d_b - d_a
    length = float(chord @ chord)
    if length == 0.0:
        return u_b.copy()
    return u_b + (float((datum - d_b) @ chord) / length) * (u_b - u_a)


def _recorded(pairs, datum, field):
    """pairs with (datum, field) added as the newest and at most two kept;
    a pair whose datum is byte-equal to the newest one's replaces it, so
    that repeating a solve leaves the pairs as they were."""
    if pairs and datum.tobytes() == pairs[-1][0].tobytes():
        pairs = pairs[:-1]
    return pairs[-1:] + ((datum, field),)


def _no_source(x, y):
    return np.zeros_like(x)


def _at_rounding_floor(jac, u, rnorm):
    floor = np.finfo(float).eps * max(1.0, float(np.abs(jac.diagonal()).max())) \
        * (1.0 + float(np.abs(u).max()))
    return rnorm <= 1e3 * floor


def sparse_newton(residual_fn, jacobian_fn, u0, tol, max_iter, held, chord=True, r0=None):
    """splitting.damped_newton on the HeldFactor ``held`` with the Euclidean
    merit function (``r0`` as there); returns (u, iterations, residual_norm).
    A line-search stall at the rounding floor of the current iterate scale
    (which an absolute tolerance cannot beat once iterates grow large, as in
    diverging outer iterations) returns the floor-accurate solution.
    """
    result = damped_newton(residual_fn, jacobian_fn, held,
                           lambda r: float(np.linalg.norm(r)), u0, tol, max_iter,
                           at_floor=_at_rounding_floor, chord=chord, r0=r0)
    return result.x, result.iterations, result.residual


def load_tolerance(asm, problem, rtol):
    """(absolute Newton tolerance, load) of ``problem`` on ``asm``: rtol times
    the norm of the load (the residual of the zero field), at least rtol.
    Raises ValueError, before it assembles, unless rtol is finite and >= 0."""
    if not (np.isfinite(rtol) and rtol >= 0):
        raise ValueError(f"Newton tolerance must be finite and non-negative, got {rtol!r}")
    load = asm.residual(np.zeros(asm.n_dofs), problem)
    return rtol * max(1.0, float(np.linalg.norm(load))), load


class SubdomainWorkspace:
    """Solver state for one subdomain of a decomposition.

    newton_rtol is relative to the load scale (the residual norm of the
    zero field), giving an absolute tolerance ``newton_tol`` that warm
    starts cannot over-tighten; every solve runs Newton to it, with at most
    ``newton_max`` steps. A newton_rtol that is not finite and >= 0 or a
    newton_max below 1 raises ValueError. Each solve starts from the secant
    prediction of its last two solved (interface datum, field) pairs
    (``_secant_start``), so repeating a solve takes no Newton step and
    returns the same field; unless another solve assembled a residual in
    between, it assembles none either. Newton steps reuse the kind's held
    factor while that factor keeps contracting the residual.

    The Neumann, Robin and correction solves each keep their own pairs,
    with the datum psi, g or rho; the Robin pairs are dropped when
    ``robin_s`` changes. The Dirichlet pairs are the last two fields that
    solve the interior equations of the workspace's problem, from
    Dirichlet, Neumann and Robin solves alike, each with its trace: after a
    Dirichlet solve at eta and a Neumann solve with trace tau, a Dirichlet
    solve at s tau + (1 - s) eta, the relaxed Dirichlet-Neumann update,
    starts from s u_N + (1 - s) u_D. Only solves that succeed are recorded.
    """

    def __init__(self, mesh, decomp, problem, side,
                 degree=DEFAULT_DEGREE, newton_rtol=1e-12, newton_max=50):
        if not newton_max >= 1:
            raise ValueError(f"newton_max must be at least 1, got {newton_max!r}")
        self.mesh = mesh
        self.decomp = decomp
        self.problem = problem
        self.side = side
        self.asm = Assembler(mesh, decomp.side_triangles(side),
                             decomp.side_dofmap(side), degree)
        self.m = decomp.side_dofmap(side).n_interior
        self.k = decomp.n_interface
        self.newton_tol, _ = load_tolerance(self.asm, problem, newton_rtol)
        self.newton_max = newton_max
        self.newton_iters = 0  # cumulative, across all solves
        # up to two (datum, field) pairs per solve kind, newest last
        self._pairs = {kind: () for kind in ("dirichlet", "neumann", "robin", "correction")}
        self._robin_s = None  # the Robin parameter of the Robin pairs
        # the constrained solves factor the interior block, the others the
        # whole Jacobian (Robin adds a penalty on its pattern)
        full, interior = shared_order(self.asm), shared_order(self.asm, interior=True)
        self._held = {kind: HeldFactor(interior if kind in ("dirichlet", "tangent") else full)
                      for kind in ("dirichlet", "neumann", "robin", "correction", "tangent")}
        self._tangent = None  # (nu bytes, jacobian at the constrained solution)
        # (problem, field, residual) of the last residual a solve assembled
        self._last_residual = None
        # built once, so that the assembler's load cache serves every correction solve
        self._correction_problem = replace(problem, source=_no_source)
        self._mass_gamma = None

    @property
    def factorizations(self):
        """Sparse factorizations so far, across all solves."""
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
            return InterfaceVector(last[2][self.m:].copy(), dual=True)
        r = self.asm.residual(u.data, self.problem)
        return InterfaceVector(r[self.m:], dual=True)

    @property
    def mass_gamma(self):
        if self._mass_gamma is None:
            self._mass_gamma = interface_mass_matrix(self.decomp)
            entries = self._mass_gamma.tocoo()
            # the places of its entries among the Jacobian's nonzeros: entry
            # numbers on the pattern (from 1, as 0 is off it) read at the rows
            # and columns past the m interior dofs
            numbers = self.asm.geometry.pattern()
            numbers.data = np.arange(1, numbers.nnz + 1)
            pos = np.asarray(numbers[entries.row + self.m, entries.col + self.m]).ravel() - 1
            self._penalty = (pos, entries.data)
        return self._mass_gamma

    def h1_matrix(self):
        return self.asm.h1_matrix()

    @property
    def last_neumann(self):
        """Copy of the field of the last Neumann solve, or None."""
        pairs = self._pairs["neumann"]
        return FieldVector(pairs[-1][1].copy(), self.m) if pairs else None

    # -- nonlinear solves ---------------------------------------------------

    def _solve(self, problem, kind, eta=None, psi=None, robin_s=None):
        """Damped Newton on the subdomain operator of ``problem``, started
        from the secant prediction of the pairs of ``kind`` (see the class)
        and with the held factor of ``kind``. The caller gets a copy, never
        a recorded field.

        With ``eta`` only the m interior unknowns are free, the trace is
        fixed to eta and Newton factors the assembled interior block.
        Otherwise all unknowns are free: interior residual zero and
        interface residual psi, or with ``robin_s`` the interface residual
        plus robin_s * M_Gamma * trace equal to psi.
        """
        m, n = self.m, self.asm.n_dofs
        free = n if eta is None else m
        datum = psi if eta is None else eta
        pairs = self._pairs[kind]
        if robin_s is not None and robin_s != self._robin_s:
            pairs = ()
        repeat = bool(pairs) and datum.tobytes() == pairs[-1][0].tobytes()
        full = pairs[-1][1].copy() if repeat else _secant_start(pairs, datum, n)
        if eta is not None:
            full[m:] = eta
        if robin_s is not None:
            mass = self.mass_gamma
            pos, values = self._penalty

        def finish(r):  # the solve's residual from the assembled r, in place
            if robin_s is not None:
                r[m:] += robin_s * (mass @ full[m:]) - psi
            elif psi is not None:
                r[m:] -= psi
            return r[:free]

        def residual(x):
            full[:free] = x
            r = self.asm.residual(full, problem)
            # the assembled residual, before psi or the Robin terms enter
            self._last_residual = (problem, full.copy(), r.copy())
            return finish(r)

        def jacobian(x):
            full[:free] = x
            jac = self.asm.jacobian(full, problem, interior=eta is not None)
            if robin_s is not None:
                jac.data[pos] += robin_s * values
            return jac

        # a repeat starts from its recorded field, whose residual is the last
        # one assembled unless another solve came between
        last = self._last_residual
        r0 = finish(last[2].copy()) if repeat and last[0] is problem \
            and last[1].tobytes() == full.tobytes() else None
        x, iters, _ = sparse_newton(residual, jacobian, full[:free], self.newton_tol,
                                    self.newton_max, self._held[kind], True, r0)
        self.newton_iters += iters
        full[:free] = x
        self._pairs[kind] = _recorded(pairs, full[m:] if eta is not None else psi.copy(), full)
        if robin_s is not None:
            self._robin_s = robin_s
        if kind != "dirichlet" and problem is self.problem:
            self._pairs["dirichlet"] = _recorded(self._pairs["dirichlet"], full[m:], full)
        return FieldVector(full.copy(), m)

    def dirichlet_solve(self, eta):
        """Subdomain solution with trace constrained to eta.

        The interface block of the result equals eta exactly (elimination,
        not penalty); the interior residual is driven below the Newton
        tolerance.
        """
        eta_data = self._require(eta, dual=False)
        return self._solve(self.problem, "dirichlet", eta=eta_data)

    def apply_steklov_poincare(self, eta):
        """Dual interface vector of the flux functional at trace eta."""
        u = self.dirichlet_solve(eta)
        return self.interface_residual(u)

    def neumann_solve(self, psi):
        """Coupled solve: interior residual zero, interface residual psi.

        Equivalently the subdomain field whose Steklov-Poincare action is
        psi; its trace realizes the inverse interface operator.
        """
        return self._solve(self.problem, "neumann", psi=self._require(psi, dual=True))

    def robin_solve(self, g, robin_s):
        """Solve with Robin coupling: interface residual + s*M_Gamma*trace = g."""
        return self._solve(self.problem, "robin", psi=self._require(g, dual=True),
                           robin_s=robin_s)

    def neumann_correction_solve(self, psi):
        """Zero-load coupled solve: the subdomain operator without its
        source, driven purely by the interface data psi.

        This is the correction problem of the Neumann-Neumann iteration; at
        a vanishing flux jump its solution vanishes (for reactions with
        beta(x, 0) = 0).
        """
        return self._solve(self._correction_problem, "correction",
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
            self._held["tangent"].refactor(jac[: self.m, : self.m])
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
        # warm starting lives in the workspace's field space, so x0 is implied;
        # the workspace's own Newton tolerance and budget replace tol and max_iter
        u = self.ws.neumann_solve(InterfaceVector(psi, dual=True))
        return self.ws.trace(u).data, self.ws.newton_iters - before
