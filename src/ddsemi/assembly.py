"""P1 assembly of semilinear residuals and their Jacobians.

All operators act on coefficient vectors laid out as
[interior dofs | interface dofs] per a DofMap; Dirichlet-eliminated nodes
contribute the value zero. Residual entry k of a field u is

    integral( alpha grad(u) . grad(phi_k) + beta(x, u) phi_k - f phi_k )

over a fixed triangle subset; the Jacobian entry (j, k) replaces the
integrand by alpha grad(phi_j).grad(phi_k) + beta_y(x, w) phi_j phi_k.
For the semilinear kind the diffusion term is linear in u with a fixed
coefficient, so its stiffness matrix K is assembled once per coefficient
and held: the residual is K @ u plus the per-triangle reaction minus the
load, and the Jacobian is K plus the reaction mass. The p-Laplace
diffusion depends on the field and is integrated per triangle on every
call: its local residual entries are added to the reaction's, and its
local Jacobian is a_eps times the element stiffness plus a rank-one term.
Accumulation order is fixed, so repeated assembly is bitwise reproducible.
"""

import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problems import SEMILINEAR
from .quadrature import quadrature_rule
from .splitting import NonConvergence

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
    return out if out.shape == x.shape else np.broadcast_to(out, x.shape)


class NonFiniteCoefficient(NonConvergence, ValueError):
    """A source or reaction value is not finite where the field is.

    That is bad problem data, hence a ValueError; it also leaves the
    residual non-finite, which Newton reports as NonConvergence.
    """


def _require_finite(name, values, field):
    """Reject a reaction value that is not finite where the field is; a
    non-finite field (a failed trial step) only makes the residual so."""
    bad = ~np.isfinite(values)
    if bad.any() and np.isfinite(field[bad]).any():
        raise NonFiniteCoefficient(f"{name} must be finite at finite field values")


class Geometry:
    """What no field or problem changes on one (mesh, triangle set, dof map,
    quadrature degree): quadrature tables, basis gradients, the Jacobian's
    pattern and, built on first use (``shared``), the interior block's pattern,
    band orders, H1 Gram values and the element stiffness, which only the
    p-Laplace Jacobian holds. Its arrays are read-only. At degree 4 it holds
    about 248 bytes per triangle, 96 of them the points ``qx``, ``qy`` and 36
    the scatter, and its build peaks at about 1.7 times what it keeps."""

    def __init__(self, mesh, tris, dofmap, degree):
        self.mesh = mesh
        self.tris = np.array(tris, dtype=np.int64)
        self.dof_of_node = np.array(dofmap.dof_of_node)
        self.n_interior = dofmap.n_interior
        self.rule = quadrature_rule(degree)

        pts = mesh.nodes[mesh.triangles[self.tris]]  # (nt, 3, 2)
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        self.det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # = 2 * area
        if np.any(self.det <= 0):
            raise ValueError("triangles must be counterclockwise")
        self.area = 0.5 * self.det

        nt = self.tris.shape[0]
        self._gx = np.empty((3, nt))
        self._gy = np.empty((3, nt))
        for i in range(3):
            d = pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
            self._gx[i] = -d[:, 1] / self.det
            self._gy[i] = d[:, 0] / self.det

        q = self.rule.points
        self.w = self.rule.weights
        # filled one point at a time, with no (nq, nt) temporaries
        self.qx = np.empty((q.shape[0], nt))
        self.qy = np.empty((q.shape[0], nt))
        for i, (a, b) in enumerate(q):
            self.qx[i] = pts[:, 0, 0] + a * e1[:, 0] + b * e2[:, 0]
            self.qy[i] = pts[:, 0, 1] + a * e1[:, 1] + b * e2[:, 1]
        self.phi = np.stack([1.0 - q[:, 0] - q[:, 1], q[:, 0], q[:, 1]])  # (3, nq)
        self._phi_t = self.phi.T.copy()  # (nq, 3): field values at the points
        self._wphi = self.w[None, :] * self.phi  # (3, nq)

        tri_dofs = self.dof_of_node[mesh.triangles[self.tris]]  # (nt, 3), -1 constrained
        self.n_dofs = dofmap.n_dofs
        # Sentinel slot n_dofs catches constrained nodes on gather/scatter.
        # The flat gather is vertex-major, as the (3, nt) local residual entries.
        self._flat_gather = np.where(tri_dofs < 0, self.n_dofs, tri_dofs).T.ravel()

        # Field-independent block of the local Jacobians, rows (j, k):
        # w_q phi_j phi_k per quadrature point.
        self._mass_table = (self._wphi[:, None, :] * self.phi[None, :, :]).reshape(9, -1)
        del pts, e1, e2
        self._build_pattern(tri_dofs.T)
        _frozen(self)
        self._shared = {}  # key -> data built on first use

    def _build_pattern(self, dofs):
        """Canonical CSR pattern of the Jacobian and the map from the 9*nt
        local entries (rows (j, k), then triangles) to its nonzeros; entries
        touching a constrained node map to the spill slot nnz.

        ``dofs`` is (3, nt), -1 where constrained. The off-diagonal nonzeros
        are the triangle edges with two free ends, one in the row of each end.
        Row r holds its edges to lower dofs, then (r, r) when a triangle
        touches r, then its edges to higher dofs, so each nonzero's place
        follows from the row lengths, and no array of all 9*nt local entries
        is formed but the int32 scatter itself.
        """
        n = self.n_dofs
        nt = dofs.shape[1]
        sides = ((0, 1), (0, 2), (1, 2))
        keys = np.empty((3, nt), dtype=np.int64)  # lo*n + hi, negative when constrained
        for e, (j, k) in enumerate(sides):
            keys[e] = np.minimum(dofs[j], dofs[k]) * n + np.maximum(dofs[j], dofs[k])
        edges, edge_of = np.unique(keys.ravel(), return_inverse=True)
        del keys
        first = int(np.searchsorted(edges, 0))
        lo, hi = np.divmod(edges[first:], n)
        ne = lo.shape[0]
        # edge index per triangle side; -1, the spill slot below, when constrained
        edge_of = np.maximum(edge_of.reshape(3, nt) - first, -1)

        touched = np.bincount(self._flat_gather, minlength=n + 1)[:n] > 0
        below = np.bincount(hi, minlength=n)  # row r: edges to lower dofs
        above = np.bincount(lo, minlength=n)
        self._indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(below + touched + above, out=self._indptr[1:])
        nnz = self._nnz = int(self._indptr[-1])
        starts, ends = self._indptr[:-1], self._indptr[1:]
        # each place array ends in the spill slot, which index -1 reaches
        diagonal = np.append(starts + below, nnz)
        # entry (lo, hi) of each edge: the edges are in (lo, hi) order
        upper = np.append((ends - np.cumsum(above))[lo] + np.arange(ne), nnz)
        # entry (hi, lo): a stable sort by hi puts the edges in (hi, lo) order
        lower = np.full(ne + 1, nnz)
        by_hi = np.argsort(hi, kind="stable")
        lower[by_hi] = (starts - np.cumsum(below) + below)[hi[by_hi]] + np.arange(ne)

        self._indices = np.empty(nnz, dtype=np.int32)
        self._indices[upper[:ne]] = hi
        self._indices[lower[:ne]] = lo
        self._indices[diagonal[:n][touched]] = np.flatnonzero(touched)

        self._scatter = np.empty(9 * nt, dtype=np.int32)
        scatter = self._scatter.reshape(9, nt)
        for j in range(3):
            scatter[4 * j] = diagonal[dofs[j]]
        for e, (j, k) in enumerate(sides):
            edge = edge_of[e]
            j_lower = dofs[j] < dofs[k]
            scatter[3 * j + k] = np.where(j_lower, upper[edge], lower[edge])
            scatter[3 * k + j] = np.where(j_lower, lower[edge], upper[edge])

    def element_stiffness(self):
        """The (9, nt) element stiffness grad(phi_j).grad(phi_k), rows (j, k),
        in a new array that the caller may scale in place."""
        gx, gy = self._gx, self._gy
        out = np.empty((9, gx.shape[1]))
        for j in range(3):
            out[3 * j: 3 * j + 3] = gx[j] * gx + gy[j] * gy
        return out

    def shared(self, key, build):
        """build(), made read-only on the first call for key and then kept;
        under a race each thread may build, and all get the value stored."""
        value = self._shared.get(key)
        return value if value is not None else self._shared.setdefault(key, _frozen(build()))

    def interior_pattern(self):
        """(keep, indices, indptr) of the block of the m interior dofs:
        ``keep`` lists the Jacobian's nonzeros in rows and columns below m,
        in their CSR order, which is the block's; it stays a native index
        array, which numpy gathers with about a quarter of the time an
        int32 one takes."""
        def build():
            m = self.n_interior
            rows = np.repeat(np.arange(self.n_dofs), np.diff(self._indptr))
            keep = np.flatnonzero((rows < m) & (self._indices < m))
            indptr = np.zeros(m + 1, dtype=np.int32)
            np.cumsum(np.bincount(rows[keep], minlength=m), out=indptr[1:])
            return keep, self._indices[keep], indptr
        return self.shared("interior", build)

    def fill(self, local):
        """Jacobian nonzeros summed from the (9, nt) local entries."""
        return np.bincount(self._scatter, weights=local.ravel(),
                           minlength=self._nnz + 1)[: self._nnz]

    def pattern(self, interior=False):
        """Matrix of ones on the Jacobian's pattern, or on its interior block's."""
        indices, indptr = self.interior_pattern()[1:] if interior else (self._indices, self._indptr)
        n = indptr.shape[0] - 1
        return sp.csr_matrix((np.ones(indices.shape[0]), indices, indptr), shape=(n, n))


def _frozen(value):
    """value, with the arrays it holds in a tuple or as attributes made read-only."""
    for a in value if isinstance(value, tuple) else vars(value).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


# One geometry per key while some Assembler holds it: an entry goes with its
# last holder, so no geometry outlives its use. A geometry holds its mesh,
# whose id therefore cannot be reused while the entry exists.
_GEOMETRIES = weakref.WeakValueDictionary()
_GEOMETRIES_LOCK = threading.Lock()


def geometry_of(mesh, tris, dofmap, degree=DEFAULT_DEGREE):
    """The live Geometry of (mesh, tris, dofmap, degree), or a new one."""
    tris = np.asarray(tris, dtype=np.int64)
    key = (id(mesh), degree, dofmap.n_interior, hash(tris.tobytes()),
           hash(dofmap.dof_of_node.tobytes()))
    with _GEOMETRIES_LOCK:
        geometry = _GEOMETRIES.get(key)
        # a hit is confirmed on the hashed arrays
        if geometry is None or not (np.array_equal(geometry.tris, tris) and np.array_equal(
                geometry.dof_of_node, dofmap.dof_of_node)):
            geometry = _GEOMETRIES[key] = Geometry(mesh, tris, dofmap, degree)
    return geometry


class Assembler:
    """Residuals and Jacobians over one (mesh, triangles, dofmap).

    The triangle subset and the dof map are fixed at construction, and
    the attributes of their shared ``geometry`` are the assembler's too;
    the field argument varies per call. The field-independent integrals of
    the source and the semilinear stiffness matrix of the diffusion
    coefficient are computed once per callable and kept for the
    assembler's lifetime, so callables must be pure; every returned
    Jacobian owns its arrays. ``jacobian(..., interior=True)`` returns
    the block of the interior dofs, picked from the summed nonzeros
    without forming the full matrix; it equals the slice ``[:m, :m]`` of
    the full Jacobian bit for bit. ``observed`` holds the smallest
    diffusion value (``alpha_min``, semilinear kind) and reaction slope
    (``beta_y_min``) seen at the quadrature points of this assembler's
    residual and Jacobian calls.

    Per-triangle arrays put the triangle last, so each kernel runs along
    contiguous rows: the basis gradients ``_gx``, ``_gy`` are (3, nt), the
    element stiffness (``Geometry.element_stiffness``, formed where it is
    needed) (9, nt) with rows (j, k), the quadrature points ``qx``, ``qy``
    (nq, nt), and the local Jacobian entries are scattered in that
    (j, k)-then-triangle order.
    """

    def __init__(self, mesh, tris, dofmap, degree=DEFAULT_DEGREE):
        self.geometry = geometry_of(mesh, tris, dofmap, degree)
        vars(self).update(vars(self.geometry))
        self.observed = {}
        self._integrals = {}  # (kind, callable) -> load integrals or stiffness matrix

    # -- field evaluation ------------------------------------------------

    def _vertex_values(self, u):
        """Values of the field at the triangles' vertices, (3, nt)."""
        # a fresh extended vector per call keeps the assembler re-entrant
        u_ext = np.empty(self.n_dofs + 1)
        u_ext[: self.n_dofs] = u
        u_ext[self.n_dofs] = 0.0
        return u_ext[self._flat_gather].reshape(3, -1)

    def _p_laplace_gradient(self, uv, eps):
        """(gx, gy, a): the per-triangle constant gradient of the P1 field
        with vertex values uv and its regularized modulus
        a = sqrt(|g|^2 + eps^2), each (nt,)."""
        gx, gy = self._gx, self._gy
        ux = uv[0] * gx[0] + uv[1] * gx[1] + uv[2] * gx[2]
        uy = uv[0] * gy[0] + uv[1] * gy[1] + uv[2] * gy[2]
        return ux, uy, np.sqrt(ux * ux + uy * uy + eps ** 2)

    def _integral(self, kind, fn, build):
        """build(fn), computed on the first call for this (kind, fn)."""
        out = self._integrals.get((kind, fn))
        if out is None:
            out = self._integrals[(kind, fn)] = build(fn)
        return out

    def _stiffness(self, alpha):
        """Semilinear stiffness matrix K, the integral of alpha
        grad(phi_j).grad(phi_k), on the Jacobian's pattern."""
        aq = _at_points(alpha, self.qx, self.qy)
        amin = float(aq.min()) if aq.size else np.inf
        self.observed["alpha_min"] = min(self.observed.get("alpha_min", amin), amin)
        coef = self.det * (self.w @ aq)
        # a non-finite value at any point makes its triangle's integral non-finite
        if not (amin > 0.0 and np.isfinite(coef).all()):
            raise ValueError(
                f"diffusion coefficient must be positive and finite (min {amin:g})")
        stiff = self.geometry.element_stiffness()
        stiff *= coef
        # K shares the pattern's index arrays; it never leaves the assembler
        return sp.csr_matrix((self.geometry.fill(stiff), self._indices,
                              self._indptr), shape=(self.n_dofs, self.n_dofs))

    def _load_integral(self, source):
        """integral(f phi_k) per vertex and triangle, (3, nt)."""
        load = self.det * (self._wphi @ _at_points(source, self.qx, self.qy))
        if not np.isfinite(load).all():
            raise NonFiniteCoefficient("source must be finite")
        return load

    # -- operators --------------------------------------------------------

    def residual(self, u, prob):
        """Dual vector of the semilinear operator minus the load."""
        u = np.asarray(u, dtype=float)
        uv = self._vertex_values(u)
        uq = self._phi_t @ uv  # (nq, nt)

        bq = _at_points(prob.beta, self.qx, self.qy, uq)
        # vertex-major (3, nt): the triangle-wise scalings run along rows
        local = self.det * (self._wphi @ bq)
        load_key = ("load", prob.source)
        if load_key not in self._integrals:
            # a bad beta is reported ahead of a bad source
            _require_finite("reaction term beta", bq, uq)
        local -= self._integral(*load_key, self._load_integral)
        if prob.kind != SEMILINEAR:
            gx, gy, anorm = self._p_laplace_gradient(uv, prob.grad_eps)
            coef = self.area * anorm
            local += (coef * gx) * self._gx + (coef * gy) * self._gy

        out = np.bincount(self._flat_gather, weights=local.ravel(), minlength=self.n_dofs + 1)
        # every weight det w phi is positive, so a non-finite beta value
        # reaches this sum, in the spill slot when its nodes are constrained
        if not np.isfinite(out).all():
            _require_finite("reaction term beta", bq, uq)
        out = out[: self.n_dofs]
        if prob.kind == SEMILINEAR:
            out += self._integral("stiffness", prob.alpha, self._stiffness) @ u
        return out

    def jacobian(self, w, prob, interior=False):
        """Sparse symmetric linearization at the field w, in canonical CSR;
        with ``interior`` only its block of the interior dofs."""
        wv = self._vertex_values(w)
        wq = self._phi_t @ wv

        byq = _at_points(prob.beta_y, self.qx, self.qy, wq)
        _require_finite("reaction slope beta_y", byq, wq)
        if byq.size:
            low = float(byq.min())
            self.observed["beta_y_min"] = min(self.observed.get("beta_y_min", low), low)
        mass = self.det * (self._mass_table @ byq)  # (9, nt)

        if prob.kind == SEMILINEAR:
            data = self._integral("stiffness", prob.alpha, self._stiffness).data \
                + self.geometry.fill(mass)
        else:
            # d/dg [a g] = a I + (g x g)/a with a = sqrt(|g|^2 + eps^2): the
            # rank-one part is the outer product of sqrt(area/a) g.grad(phi_j)
            gx, gy, anorm = self._p_laplace_gradient(wv, prob.grad_eps)
            v = np.sqrt(self.area / anorm) * (gx * self._gx + gy * self._gy)  # (3, nt)
            # the one kernel that reads the element stiffness on every call
            # holds it, once per geometry
            stiff = self.geometry.shared(
                "stiffness", lambda: (self.geometry.element_stiffness(),))[0]
            mass += (self.area * anorm) * stiff
            mass += (v[:, None, :] * v[None, :, :]).reshape(9, -1)
            data = self.geometry.fill(mass)

        indices, indptr = self._indices, self._indptr
        if interior:
            keep, indices, indptr = self.geometry.interior_pattern()
            data = data[keep]
        n = indptr.shape[0] - 1
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))

    def h1_matrix(self):
        """Gram matrix of the discrete H1 inner product, the Jacobian of
        -lap u + u as ``jacobian`` sums it, in a matrix of its own; its values
        are summed once per geometry, and it leaves ``observed`` as it was."""
        def build():
            ones = np.ones_like(self.qx)
            stiff = self.geometry.element_stiffness()
            stiff *= self.det * (self.w @ ones)
            stiffness = self.geometry.fill(stiff)
            return (stiffness + self.geometry.fill(self.det * (self._mass_table @ ones)),)
        data = self.geometry.shared("h1", build)[0].copy()
        return sp.csr_matrix((data, self._indices.copy(), self._indptr.copy()),
                             shape=(self.n_dofs, self.n_dofs))


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
