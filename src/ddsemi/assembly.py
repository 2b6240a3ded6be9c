"""P1 assembly of semilinear residuals and their Jacobians.

All operators act on coefficient vectors laid out as
[interior dofs | interface dofs] per a DofMap; Dirichlet-eliminated nodes
contribute the value zero. Residual entry k of a field u is

    integral( alpha grad(u) . grad(phi_k) + beta(x, u) phi_k - f phi_k )

over a fixed triangle subset; the Jacobian entry (j, k) replaces the
integrand by alpha grad(phi_j).grad(phi_k) + beta_y(x, w) phi_j phi_k.
Accumulation order is fixed, so repeated assembly is bitwise reproducible.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problems import SEMILINEAR, SemilinearProblem
from .quadrature import quadrature_rule

DEFAULT_DEGREE = 4


@dataclass
class FieldVector:
    """Nodal coefficients over a dof map, interior block first."""

    data: np.ndarray
    n_interior: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)

    @property
    def interior(self):
        return self.data[: self.n_interior]

    @property
    def interface(self):
        return self.data[self.n_interior:]

    def copy(self):
        return FieldVector(self.data.copy(), self.n_interior)

    def __len__(self):
        return self.data.shape[0]


def _at_points(fn, x, y, *args):
    out = np.asarray(fn(x, y, *args), dtype=float)
    return np.broadcast_to(out, x.shape)


class Assembler:
    """Cached geometry and quadrature for one (mesh, triangles, dofmap).

    The triangle subset and the dof map are fixed at construction; the
    field argument varies per call.
    """

    def __init__(self, mesh, tris, dofmap, degree=DEFAULT_DEGREE):
        self.mesh = mesh
        self.tris = np.asarray(tris, dtype=np.int64)
        self.dofmap = dofmap
        self.rule = quadrature_rule(degree)

        pts = mesh.nodes[mesh.triangles[self.tris]]  # (nt, 3, 2)
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # = 2 * area
        if np.any(self.det <= 0):
            raise ValueError("triangles must be counterclockwise")
        self.area = 0.5 * self.det

        nt = self.tris.shape[0]
        self.grads = np.empty((nt, 3, 2))
        for i in range(3):
            d = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
            self.grads[:, i, 0] = -d[:, 1] / self.det
            self.grads[:, i, 1] = d[:, 0] / self.det

        q = self.rule.points
        self.w = self.rule.weights
        self.qx = pts[:, 0, 0:1] + np.outer(e1[:, 0], q[:, 0]) + np.outer(e2[:, 0], q[:, 1])
        self.qy = pts[:, 0, 1:2] + np.outer(e1[:, 1], q[:, 0]) + np.outer(e2[:, 1], q[:, 1])
        self.phi = np.stack([1.0 - q[:, 0] - q[:, 1], q[:, 0], q[:, 1]])  # (3, nq)

        tri_dofs = dofmap.dof_of_node[mesh.triangles[self.tris]]  # (nt, 3), -1 constrained
        self.tri_dofs = tri_dofs
        self.n_dofs = dofmap.n_dofs
        # Sentinel slot n_dofs catches constrained nodes on gather/scatter.
        self.gather = np.where(tri_dofs < 0, self.n_dofs, tri_dofs)

        # Field-independent blocks of the local Jacobians, flattened (j, k):
        # w_q phi_j phi_k per quadrature point, grad(phi_j).grad(phi_k) per triangle.
        wphi = self.w[None, :] * self.phi
        self._mass_table = (wphi[:, None, :] * self.phi[None, :, :]).reshape(9, -1).T.copy()
        gx, gy = self.grads[:, :, 0], self.grads[:, :, 1]
        self._stiff = (gx[:, :, None] * gx[:, None, :]
                       + gy[:, :, None] * gy[:, None, :]).reshape(nt, 9)
        self._build_pattern(tri_dofs)

    def _build_pattern(self, tri_dofs):
        """Canonical CSR pattern of the Jacobian and the map from the 9*nt
        local entries (triangle-major, then j, k) to its nonzeros; entries
        touching a constrained node map to the spill slot nnz."""
        n = self.n_dofs
        rows = np.repeat(tri_dofs, 3, axis=1).ravel()
        cols = np.tile(tri_dofs, (1, 3)).ravel()
        free = (rows >= 0) & (cols >= 0)
        keys, slots = np.unique(rows[free] * n + cols[free], return_inverse=True)
        self._nnz = keys.shape[0]
        self._scatter = np.full(rows.shape[0], self._nnz, dtype=np.int32)
        self._scatter[free] = slots
        self._indices = (keys % n).astype(np.int32)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self._indptr[1:])

    # -- field evaluation ------------------------------------------------

    def _vertex_values(self, u):
        u_ext = np.append(np.asarray(u, dtype=float), 0.0)
        return u_ext[self.gather]  # (nt, 3)

    def _gradient(self, uv):
        g = self.grads
        return np.stack([uv[:, 0] * g[:, 0, d] + uv[:, 1] * g[:, 1, d] + uv[:, 2] * g[:, 2, d]
                         for d in (0, 1)], axis=1)

    def _dot_grads(self, g):
        """g . grad(phi_k) per triangle and vertex, (nt, 3)."""
        return self.grads[:, :, 0] * g[:, 0:1] + self.grads[:, :, 1] * g[:, 1:2]

    def gradient(self, u):
        """Per-triangle constant gradient of the P1 field, (nt, 2)."""
        return self._gradient(self._vertex_values(u))

    def _diffusion(self, prob, gu):
        """(per-triangle integral of the scalar coefficient, coefficient matrix or None)."""
        if prob.kind == SEMILINEAR:
            aq = _at_points(prob.alpha, self.qx, self.qy)
            amin = float(aq.min()) if aq.size else np.inf
            prob.record_probe("alpha_min", amin)
            coef = self.det * (aq @ self.w)
            # a non-finite value at any point makes its triangle's integral non-finite
            if not (amin > 0.0 and np.isfinite(coef).all()):
                raise ValueError(
                    f"diffusion coefficient must be positive and finite (min {amin:g})")
            return coef, None
        anorm = np.sqrt(gu[:, 0] * gu[:, 0] + gu[:, 1] * gu[:, 1] + prob.grad_eps ** 2)
        return self.area * anorm, anorm

    # -- operators --------------------------------------------------------

    def residual(self, u, prob):
        """Dual vector of the semilinear operator minus the load."""
        uv = self._vertex_values(u)
        gu = self._gradient(uv)
        uq = uv @ self.phi
        coef, _ = self._diffusion(prob, gu)

        bq = _at_points(prob.beta, self.qx, self.qy, uq)
        fq = _at_points(prob.source, self.qx, self.qy)
        react = self.det[:, None] * ((bq - fq) @ (self.w[:, None] * self.phi.T))  # (nt, 3)

        local = coef[:, None] * self._dot_grads(gu) + react
        out = np.bincount(self.gather.T.ravel(), weights=local.T.ravel(),
                          minlength=self.n_dofs + 1)
        return out[: self.n_dofs]

    def jacobian(self, w, prob):
        """Sparse symmetric linearization at the field w, in canonical CSR."""
        wv = self._vertex_values(w)
        gw = self._gradient(wv) if prob.kind != SEMILINEAR else None
        wq = wv @ self.phi
        coef, anorm = self._diffusion(prob, gw)

        byq = _at_points(prob.beta_y, self.qx, self.qy, wq)
        if byq.size:
            prob.record_probe("beta_y_min", float(byq.min()))
        mass = self.det[:, None] * (byq @ self._mass_table)  # (nt, 9)

        if prob.kind == SEMILINEAR:
            stiff = coef[:, None] * self._stiff
        else:
            # d/dg [sqrt(|g|^2+eps^2) g] = a I + (g x g)/a with a the regularized modulus
            gdotj = self._dot_grads(gw)
            rank1 = (gdotj[:, :, None] * gdotj[:, None, :]).reshape(-1, 9) / anorm[:, None]
            stiff = self.area[:, None] * (anorm[:, None] * self._stiff + rank1)

        data = np.bincount(self._scatter, weights=(stiff + mass).ravel(),
                           minlength=self._nnz + 1)[: self._nnz]
        return sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()),
                             shape=(self.n_dofs, self.n_dofs))

    def h1_matrix(self):
        """Gram matrix of the discrete H1 inner product (stiffness + mass)."""
        h1 = SemilinearProblem(
            alpha=lambda x, y: np.ones_like(x),
            beta=lambda x, y, u: u,
            beta_y=lambda x, y, u: np.ones_like(u),
            source=lambda x, y: np.zeros_like(x),
        )
        return self.jacobian(np.zeros(self.n_dofs), h1)


def assemble_residual(u, prob, mesh, tris, dofmap, degree=DEFAULT_DEGREE):
    """One-shot residual over a triangle subset; see Assembler.residual."""
    return Assembler(mesh, tris, dofmap, degree).residual(u, prob)


def assemble_jacobian(w, prob, mesh, tris, dofmap, degree=DEFAULT_DEGREE):
    """One-shot Jacobian over a triangle subset; see Assembler.jacobian."""
    return Assembler(mesh, tris, dofmap, degree).jacobian(w, prob)


def interface_mass_matrix(decomp):
    """1D P1 mass matrix of L2(Gamma) on the interface dofs.

    Path edges touching the outer boundary contribute only to the diagonal
    of their interior endpoint (boundary trace values are zero).
    """
    k = decomp.n_interface
    idx = {int(n): i for i, n in enumerate(decomp.interface_nodes)}
    rows, cols, vals = [], [], []
    nodes = decomp.mesh.nodes
    for a, b in decomp.interface_edges:
        ell = float(np.linalg.norm(nodes[a] - nodes[b]))
        ia, ib = idx.get(int(a), -1), idx.get(int(b), -1)
        for i, j, v in ((ia, ia, ell / 3.0), (ib, ib, ell / 3.0),
                        (ia, ib, ell / 6.0), (ib, ia, ell / 6.0)):
            if i >= 0 and j >= 0:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return sp.coo_matrix((vals, (rows, cols)), shape=(k, k)).tocsr()
