"""Ground-truth generators for cross-checking the solver stack.

The dense brute-force path recomputes residuals and Jacobians on tiny
meshes by per-element loops with its own basis-function derivation, so it
shares no assembly code with the sparse path it validates. The monolithic
full-domain solve provides the reference fields for error curves, with an
on-disk cache keyed by a content hash of the configuration.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .assembly import DEFAULT_DEGREE, Assembler, FieldVector
from .mesh import build_rect_mesh, mesh_global_dofmap, prolong_p1
from .problems import P_LAPLACE
from .quadrature import quadrature_rule
from .splitting import NonConvergence, SingularJacobian
from .subdomain import (HeldFactor, InterfaceVector, load_tolerance, shared_order,
                        sparse_newton)

DENSE_NODE_LIMIT = 60
# The reference solve starts from the solution on the 2h mesh when that mesh
# keeps at least this many cells across its shorter side. Nested over direct
# time of one reference with one coarse level and chord steps on the 3 x 2
# domain, by cells across the 2h mesh (h = 1/12 ... 1/32), median of 11
# interleaved runs on a 2-core VM, one BLAS thread (an earlier prototype's
# figures in brackets):
#   cells      12           16           20           24           32
#   cubic      1.05 (1.01)  0.90 (0.84)  0.77 (0.79)  0.77 (0.67)  0.77 (0.66)
#   p-Laplace  1.18 (1.09)  1.05 (1.07)  0.87 (0.92)  0.83 (0.78)  0.71 (0.79)
NEST_MIN_CELLS = 20


class TooLarge(ValueError):
    """Dense brute-force oracle is restricted to tiny meshes."""


@dataclass
class MonolithicSolution:
    """Full-domain discrete solution plus Newton statistics."""

    field: FieldVector  # coefficients over the global free dofs
    newton_iterations: int
    residual_norm: float

    def restrict(self, decomp, side):
        """View of the solution in one subdomain's local layout."""
        dm = decomp.side_dofmap(side)
        return FieldVector(decomp.restrict(self.field.data, side), dm.n_interior)

    def trace(self, decomp):
        """Interface coefficients of the solution (primal)."""
        gdof = decomp.global_dofmap().dof_of_node[decomp.interface_nodes]
        return InterfaceVector(self.field.data[gdof].copy())


def _nests(mesh):
    """Whether the reference on mesh starts from the solution on its 2h mesh."""
    return mesh.nx % 2 == 0 and mesh.ny % 2 == 0 and min(mesh.nx, mesh.ny) // 2 >= NEST_MIN_CELLS


def _cache_key(prob, mesh, degree, newton_rtol):
    # a nested solve's bits depend on the nesting rule, so its key names it;
    # a solve that does not nest keeps the key of the zero start
    fields = [prob.name, repr(mesh.width), repr(mesh.height), repr(mesh.h),
              str(degree), repr(newton_rtol)]
    if _nests(mesh):
        fields.append(f"nested {NEST_MIN_CELLS}")
    blob = "|".join(fields)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_read(path, key, n):
    try:
        with open(path, "rb") as f:
            header, payload = f.read().split(b"\n", 1)
        meta = json.loads(header)
        if meta.get("key") != key or meta.get("n") != n:
            return None
        data = np.frombuffer(payload, dtype="<f8")
        if data.shape[0] != n:
            return None
        return np.array(data)
    except (OSError, ValueError, json.JSONDecodeError):
        return None


def atomic_write(path, data):
    """Write text or bytes to path through a temporary file in the same
    directory and one os.replace; the temporary file is removed when any step
    fails."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_write(path, key, meta, data):
    header = dict(meta)
    header["key"] = key
    header["n"] = int(data.shape[0])
    atomic_write(path, json.dumps(header, sort_keys=True).encode() + b"\n"
                 + np.ascontiguousarray(data, dtype="<f8").tobytes())


def _newton(prob, mesh, degree, newton_rtol, newton_max):
    """(field, Newton steps of every level, residual norm) of the reference on
    mesh, nested as ``solve_monolithic`` describes. The start is computed
    before this level's assembler is built, so that a coarse level's
    geometry and factors are gone before the finer level allocates."""
    dofmap = mesh_global_dofmap(mesh)
    start, steps = None, 0
    if _nests(mesh):
        coarse_mesh = build_rect_mesh(mesh.width, mesh.height, 2 * mesh.h)
        try:
            coarse, steps, _ = _newton(prob, coarse_mesh, degree, newton_rtol, newton_max)
        except (NonConvergence, SingularJacobian):
            pass
        else:
            nodal = np.zeros(coarse_mesh.n_nodes)
            nodal[mesh_global_dofmap(coarse_mesh).node_of_dof] = coarse
            start = prolong_p1(coarse_mesh, mesh, nodal)[dofmap.node_of_dof]
    asm = Assembler(mesh, np.arange(mesh.n_triangles), dofmap, degree)
    held = HeldFactor(shared_order(asm))
    tol, load = load_tolerance(asm, prob, newton_rtol)

    def newton(u0, chord, r0=None):
        return sparse_newton(lambda v: asm.residual(v, prob), lambda v: asm.jacobian(v, prob),
                             u0, tol, newton_max, held, chord=chord, r0=r0)

    if start is not None:
        try:
            u, iters, rnorm = newton(start, True)
            return u, steps + iters, rnorm
        except NonConvergence as err:
            steps += err.iterations or 0
        except SingularJacobian:
            pass
    u, iters, rnorm = newton(np.zeros(dofmap.n_dofs), False, load)
    return u, steps + iters, rnorm


def solve_monolithic(prob, mesh, degree=DEFAULT_DEGREE, newton_rtol=1e-12,
                     newton_max=50, cache_dir=None):
    """Newton solve of the full-domain problem over all free nodes.

    Nested iteration (Bank & Rose, Math. Comp. 39, 1982): when both cell
    counts of mesh are even and the 2h mesh keeps at least NEST_MIN_CELLS
    cells across its shorter side, the problem is first solved on the 2h
    mesh by the same rule, and Newton starts from the P1 interpolant of
    that solution, taking chord steps on a held factor (Kelley 1995,
    sec. 5.4). Otherwise, or when a coarse solve raises NonConvergence or
    SingularJacobian, Newton starts from zero and refactors on every step;
    so it does when Newton from the nested start raises either on mesh.
    The residual test on mesh decides the result either way.
    ``newton_max`` bounds each Newton solve of each level, chord steps
    included; ``newton_iterations`` counts the Newton steps of every level
    and of a discarded nested start, so it may exceed ``newton_max``.

    With ``cache_dir`` set and a named problem, coefficients on mesh are
    cached on disk (header + little-endian float64 payload, written
    atomically); a hit takes no Newton step. Coarse levels are not cached.
    A newton_rtol that is not finite and >= 0 or a newton_max below 1
    raises ValueError.
    """
    if not newton_max >= 1:
        raise ValueError(f"newton_max must be at least 1, got {newton_max!r}")
    dofmap = mesh_global_dofmap(mesh)
    key = None
    path = None
    if cache_dir is not None and prob.name:
        key = _cache_key(prob, mesh, degree, newton_rtol)
        os.makedirs(cache_dir, exist_ok=True)
        path = os.path.join(cache_dir, f"ref-{key[:16]}.bin")
        cached = _cache_read(path, key, dofmap.n_dofs)
        if cached is not None:
            asm = Assembler(mesh, np.arange(mesh.n_triangles), dofmap, degree)
            res = float(np.linalg.norm(asm.residual(cached, prob)))
            if res <= load_tolerance(asm, prob, newton_rtol)[0]:
                return MonolithicSolution(FieldVector(cached, dofmap.n_dofs), 0, res)

    u, iters, rnorm = _newton(prob, mesh, degree, newton_rtol, newton_max)
    if path is not None:
        _cache_write(path, key, {"width": mesh.width, "height": mesh.height,
                                 "h": mesh.h, "problem": prob.name}, u)
    return MonolithicSolution(FieldVector(u, dofmap.n_dofs), iters, rnorm)


class DenseOracle:
    """Per-element dense reimplementation of the assembly operators.

    Basis gradients come from inverting each element's linear-geometry
    matrix rather than the edge-rotation formula of the sparse path.
    """

    def __init__(self, prob, mesh, dofmap, tris=None, degree=DEFAULT_DEGREE):
        if mesh.n_nodes > DENSE_NODE_LIMIT:
            raise TooLarge(f"dense oracle limited to {DENSE_NODE_LIMIT} nodes "
                           f"(got {mesh.n_nodes})")
        self.prob = prob
        self.mesh = mesh
        self.dofmap = dofmap
        self.tris = np.arange(mesh.n_triangles) if tris is None else np.asarray(tris)
        self.rule = quadrature_rule(degree)
        self.n = dofmap.n_dofs

    def _elements(self):
        for tri in self.mesh.triangles[self.tris]:
            pts = self.mesh.nodes[tri]
            # rows of C are the coefficients (a, b, c) of phi_i = a + b x + c y
            vander = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
            coeffs = np.linalg.inv(vander).T  # (3, 3): basis i -> (a, b, c)
            area = 0.5 * abs(np.linalg.det(vander))
            dofs = self.dofmap.dof_of_node[tri]
            yield pts, coeffs, area, dofs

    def _quad_points(self, pts):
        ref = self.rule.points
        xq = pts[0, 0] + ref[:, 0] * (pts[1, 0] - pts[0, 0]) + ref[:, 1] * (pts[2, 0] - pts[0, 0])
        yq = pts[0, 1] + ref[:, 0] * (pts[1, 1] - pts[0, 1]) + ref[:, 1] * (pts[2, 1] - pts[0, 1])
        return xq, yq

    def _values(self, u_full, tri_dofs):
        vals = np.zeros(3)
        for i, d in enumerate(tri_dofs):
            if d >= 0:
                vals[i] = u_full[d]
        return vals

    def residual(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(self.n)
        w = self.rule.weights
        for pts, coeffs, area, dofs in self._elements():
            uloc = self._values(u, dofs)
            grad_u = uloc @ coeffs[:, 1:]
            xq, yq = self._quad_points(pts)
            phi = np.array([coeffs[i, 0] + coeffs[i, 1] * xq + coeffs[i, 2] * yq
                            for i in range(3)])
            uq = uloc @ phi
            if self.prob.kind == P_LAPLACE:
                a_elem = np.sqrt(grad_u @ grad_u + self.prob.grad_eps ** 2)
                alpha_int = area * a_elem
            else:
                aq = np.broadcast_to(np.asarray(self.prob.alpha(xq, yq), float), xq.shape)
                alpha_int = 2.0 * area * float(aq @ w)
            bq = np.broadcast_to(np.asarray(self.prob.beta(xq, yq, uq), float), xq.shape)
            fq = np.broadcast_to(np.asarray(self.prob.source(xq, yq), float), xq.shape)
            for i in range(3):
                if dofs[i] < 0:
                    continue
                flux = alpha_int * float(grad_u @ coeffs[i, 1:])
                react = 2.0 * area * float(((bq - fq) * phi[i]) @ w)
                out[dofs[i]] += flux + react
        return out

    def jacobian(self, w_field):
        w_field = np.asarray(w_field, dtype=float)
        out = np.zeros((self.n, self.n))
        w = self.rule.weights
        for pts, coeffs, area, dofs in self._elements():
            wloc = self._values(w_field, dofs)
            grad_w = wloc @ coeffs[:, 1:]
            xq, yq = self._quad_points(pts)
            phi = np.array([coeffs[i, 0] + coeffs[i, 1] * xq + coeffs[i, 2] * yq
                            for i in range(3)])
            wq = wloc @ phi
            if self.prob.kind == P_LAPLACE:
                a_elem = np.sqrt(grad_w @ grad_w + self.prob.grad_eps ** 2)
                dmat = a_elem * np.eye(2) + np.outer(grad_w, grad_w) / a_elem
            else:
                aq = np.broadcast_to(np.asarray(self.prob.alpha(xq, yq), float), xq.shape)
            byq = np.broadcast_to(np.asarray(self.prob.beta_y(xq, yq, wq), float), xq.shape)
            for i in range(3):
                if dofs[i] < 0:
                    continue
                for j in range(3):
                    if dofs[j] < 0:
                        continue
                    if self.prob.kind == P_LAPLACE:
                        stiff = area * float(coeffs[i, 1:] @ dmat @ coeffs[j, 1:])
                    else:
                        stiff = 2.0 * area * float(aq @ w) * float(coeffs[i, 1:] @ coeffs[j, 1:])
                    mass = 2.0 * area * float((byq * phi[i] * phi[j]) @ w)
                    out[dofs[i], dofs[j]] += stiff + mass
        return out

    def linear_steklov(self, m):
        """Affine interface action (S, c) of a *linear* problem.

        ``m`` is the interior block size; the map eta -> S @ eta + c equals
        the Schur-complement reduction of the subdomain system.
        """
        jac = self.jacobian(np.zeros(self.n))
        b = -self.residual(np.zeros(self.n))  # residual(u) = J u - b for linear problems
        jii = jac[:m, :m]
        jig = jac[:m, m:]
        jgi = jac[m:, :m]
        jgg = jac[m:, m:]
        schur = jgg - jgi @ np.linalg.solve(jii, jig)
        u0 = np.linalg.solve(jii, b[:m])
        const = jgi @ u0 - b[m:]
        return schur, const


def dense_brute_force(prob, mesh, dofmap, tris=None, degree=DEFAULT_DEGREE):
    """Dense equivalence oracle for the sparse assembly path."""
    return DenseOracle(prob, mesh, dofmap, tris, degree)


@dataclass
class FdReport:
    slope: float
    deltas: np.ndarray
    errors: np.ndarray


def fd_check(value_fn, derivative_fn, point, direction, deltas=(1e-3, 3e-4, 1e-4)):
    """Taylor-remainder slope of a (value, derivative) pair.

    Fits log ||G(p + d*h) - G(p) - d*G'(p)h|| against log d; a slope near 2
    confirms the derivative. Requires the map to be evaluable at the probe
    points.
    """
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    base = np.asarray(value_fn(point), dtype=float)
    dval = np.asarray(derivative_fn(point, direction), dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    errors = np.empty_like(deltas)
    for i, d in enumerate(deltas):
        shifted = np.asarray(value_fn(point + d * direction), dtype=float)
        errors[i] = np.linalg.norm(shifted - base - d * dval)
    # remainders at rounding level carry no slope information: the
    # derivative is exact there (e.g. linear maps)
    tiny = 1e-13 * max(1.0, float(np.linalg.norm(base)))
    if np.all(errors <= tiny):
        return FdReport(2.0, deltas, errors)
    slope = float(np.polyfit(np.log(deltas), np.log(np.maximum(errors, tiny)), 1)[0])
    return FdReport(slope, deltas, errors)
