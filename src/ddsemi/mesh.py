"""Structured triangulations of rectangles and two-subdomain splittings.

A rectangle (0, width) x (0, height) is meshed by h x h cells, each cut
along its bottom-left/top-right diagonal. Homogeneous Dirichlet conditions
on the outer boundary are imposed by eliminating boundary nodes from every
degree-of-freedom map. A decomposition labels each triangle with subdomain
1 or 2; the interface consists of the mesh edges shared by differently
labelled triangles.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


class NonIntegerSubdivision(ValueError):
    """Mesh size h does not divide both side lengths."""


class CutOffGrid(ValueError):
    """Requested vertical cut does not lie on an interior mesh line."""


class PathNotOnGrid(ValueError):
    """Interface polyline leaves the mesh lattice or is not axis-aligned."""


class DisconnectedPath(ValueError):
    """Interface polyline is self-intersecting, misplaced, or fails to
    separate the domain into exactly two subdomains."""


@dataclass(frozen=True)
class TriMesh:
    """Conforming triangulation of a rectangle.

    nodes : (n, 2) coordinates; triangles : (m, 3) counterclockwise node
    indices; boundary_nodes : sorted indices of the nodes on the rectangle
    boundary. nx, ny are the cell counts per direction and h the mesh size.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_nodes: np.ndarray
    width: float
    height: float
    h: float
    nx: int
    ny: int

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    def node_id(self, x, y):
        """Lattice lookup; raises PathNotOnGrid off the lattice (``lattice_index``)."""
        ii, jj = lattice_index(x, self.h), lattice_index(y, self.h)
        if ii is None or jj is None:
            raise PathNotOnGrid(f"point ({x}, {y}) is not a mesh node")
        if not (0 <= ii <= self.nx and 0 <= jj <= self.ny):
            raise PathNotOnGrid(f"point ({x}, {y}) lies outside the domain")
        return jj * (self.nx + 1) + ii

    def signed_areas(self):
        p = self.nodes[self.triangles]
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def lattice_index(x, h):
    """The integer k within 1e-9 max(1, |x / h|) of x / h (a bound that grows with
    the index, as rounding does), or None: the one lattice rule of sizes, nodes and cuts."""
    ratio = x / h
    k = round(ratio, 0)  # a float, so a NaN or infinite ratio fails the test below
    return int(k) if abs(ratio - k) <= 1e-9 * max(1.0, abs(ratio)) else None


def cell_counts(width, height, h):
    """(nx, ny), the h x h cells along each side; NonIntegerSubdivision unless h divides both."""
    nx, ny = lattice_index(width, h), lattice_index(height, h)
    if nx is None or ny is None or min(nx, ny) < 1:
        raise NonIntegerSubdivision(f"h={h} does not divide width={width} and height={height} "
                                    "into whole cells")
    return nx, ny


def build_rect_mesh(width, height, h):
    """Triangulate (0, width) x (0, height) with mesh size h.

    Every h x h cell is split along its bottom-left/top-right diagonal,
    giving 2 * (width/h) * (height/h) triangles. Raises
    NonIntegerSubdivision when h does not divide both sides (``cell_counts``).
    """
    nx, ny = cell_counts(width, height, h)

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))
    nodes = np.column_stack([(ii * h).ravel(), (jj * h).ravel()]).astype(float)

    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny))
    ci, cj = ci.ravel(), cj.ravel()
    v00 = cj * (nx + 1) + ci
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    onb = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    boundary = np.nonzero(onb.ravel())[0]

    nodes.setflags(write=False)
    triangles.setflags(write=False)
    boundary.setflags(write=False)
    return TriMesh(nodes, triangles, boundary, float(width), float(height), float(h), nx, ny)


def prolong_p1(coarse, mesh, values):
    """P1 interpolant on the nodes of mesh of the nodal ``values`` on coarse,
    a build_rect_mesh of the same rectangle at twice mesh's size. Shared
    lattice nodes are injected; every other node is the midpoint of the
    coarse edge it bisects: horizontal, vertical, or a cell's
    bottom-left/top-right diagonal."""
    if (mesh.nx, mesh.ny) != (2 * coarse.nx, 2 * coarse.ny):
        raise ValueError("mesh must halve every cell of coarse")
    u = np.asarray(values, dtype=float).reshape(coarse.ny + 1, coarse.nx + 1)
    fine = np.empty((mesh.ny + 1, mesh.nx + 1))
    fine[::2, ::2] = u
    fine[::2, 1::2] = 0.5 * (u[:, :-1] + u[:, 1:])
    fine[1::2, ::2] = 0.5 * (u[:-1] + u[1:])
    fine[1::2, 1::2] = 0.5 * (u[:-1, :-1] + u[1:, 1:])
    return fine.ravel()


@dataclass(frozen=True)
class DofMap:
    """Bijection between local degrees of freedom and global mesh nodes.

    Layout is [interior dofs | interface dofs]; Dirichlet-eliminated nodes
    carry no dof (dof_of_node == -1).
    """

    node_of_dof: np.ndarray
    dof_of_node: np.ndarray
    n_interior: int

    @property
    def n_dofs(self):
        return self.node_of_dof.shape[0]

    @property
    def n_interface(self):
        return self.n_dofs - self.n_interior


def _make_dofmap(n_nodes, interior_nodes, interface_nodes):
    node_of_dof = np.concatenate([interior_nodes, interface_nodes]).astype(np.int64)
    dof_of_node = np.full(n_nodes, -1, dtype=np.int64)
    dof_of_node[node_of_dof] = np.arange(node_of_dof.shape[0])
    node_of_dof.setflags(write=False)
    dof_of_node.setflags(write=False)
    return DofMap(node_of_dof, dof_of_node, len(interior_nodes))


@dataclass(frozen=True)
class Decomposition:
    """Two-subdomain splitting of a TriMesh along mesh edges.

    subdomain_of_triangle holds labels 1 or 2. interface_nodes are the
    non-boundary nodes shared by both subdomains, ordered along the
    interface; interface_edges are the unit mesh edges of the interface
    path (including the two edges that touch the outer boundary). The two
    side dof maps index the same interface nodes in the same order.
    """

    mesh: TriMesh
    subdomain_of_triangle: np.ndarray
    interface_nodes: np.ndarray
    interface_edges: np.ndarray
    side_dofmaps: tuple = field(repr=False)
    side_triangles_: tuple = field(repr=False)
    global_dofmap_: DofMap = field(repr=False)

    @property
    def n_interface(self):
        return self.interface_nodes.shape[0]

    def side_triangles(self, side):
        return self.side_triangles_[side - 1]

    def side_dofmap(self, side):
        return self.side_dofmaps[side - 1]

    def global_dofmap(self):
        return self.global_dofmap_

    def restrict(self, u_global, side):
        """Coefficients of a global free-dof vector on one subdomain."""
        dm = self.side_dofmap(side)
        gdof = self.global_dofmap_.dof_of_node[dm.node_of_dof]
        return np.asarray(u_global)[gdof]

    def glue(self, u1, u2):
        """Scatter two subdomain vectors into a global free-dof vector.

        Interface coefficients are averaged; callers wanting a consistency
        check should compare the interface blocks beforehand.
        """
        out = np.zeros(self.global_dofmap_.n_dofs)
        for side, u in ((1, np.asarray(u1)), (2, np.asarray(u2))):
            dm = self.side_dofmap(side)
            gdof = self.global_dofmap_.dof_of_node[dm.node_of_dof]
            out[gdof[: dm.n_interior]] = u[: dm.n_interior]
        gamma = self.global_dofmap_.dof_of_node[self.interface_nodes]
        m1 = self.side_dofmap(1).n_interior
        m2 = self.side_dofmap(2).n_interior
        out[gamma] = 0.5 * (np.asarray(u1)[m1:] + np.asarray(u2)[m2:])
        return out


def mesh_global_dofmap(mesh):
    """Dof map over all free nodes of the mesh (those off the Dirichlet
    boundary, in order), with no interface block."""
    free = np.delete(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    return _make_dofmap(mesh.n_nodes, free, np.empty(0, dtype=np.int64))


def _interior_edges(mesh):
    """Interior edges as (E, 2) sorted node pairs and the (E, 2) triangles on
    their two sides: in a conforming mesh, the twice-seen triangle edge keys."""
    pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = pairs[:, 0] * mesh.n_nodes + pairs[:, 1]
    order = np.argsort(keys, kind="stable")
    twin = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    first, second = order[twin], order[twin + 1]
    return pairs[first], np.column_stack([first // 3, second // 3])


def _build_decomposition(mesh, labels):
    """Assemble interface structure and dof maps from triangle labels."""
    labels = np.array(labels, dtype=np.int64)
    if not set(np.unique(labels)) == {1, 2}:
        raise DisconnectedPath("decomposition must use both labels 1 and 2")

    edges, sides = _interior_edges(mesh)
    cut = edges[labels[sides[:, 0]] != labels[sides[:, 1]]]
    if cut.shape[0] == 0:
        raise DisconnectedPath("subdomains share no interface edge")

    # Order interface nodes by walking the path from one boundary endpoint.
    adj = {}
    for a, b in cut.tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    on_boundary = np.zeros(mesh.n_nodes, dtype=bool)
    on_boundary[mesh.boundary_nodes] = True
    endpoints = sorted(n for n, nb in adj.items() if len(nb) == 1)
    if len(endpoints) != 2 or not all(on_boundary[e] for e in endpoints):
        raise DisconnectedPath("interface must be a single path between two boundary points")
    path = [endpoints[0]]
    prev = -1
    while path[-1] != endpoints[1]:
        nxt = [n for n in adj[path[-1]] if n != prev]
        if len(nxt) != 1:
            raise DisconnectedPath("interface path branches or stalls")
        prev = path[-1]
        path.append(nxt[0])
    if len(path) != len(adj):
        raise DisconnectedPath("interface edges do not form a single path")
    interface_nodes = np.array([n for n in path if not on_boundary[n]], dtype=np.int64)
    if interface_nodes.size == 0:
        raise DisconnectedPath("interface has no interior node")
    interface_edges = np.sort(np.column_stack([path[:-1], path[1:]]), axis=1)

    interior = ~on_boundary
    interior[interface_nodes] = False
    side_tris = tuple(np.flatnonzero(labels == side) for side in (1, 2))
    side_maps = []
    for tsel in side_tris:
        touched = np.zeros(mesh.n_nodes, dtype=bool)
        touched[mesh.triangles[tsel]] = True
        side_maps.append(_make_dofmap(mesh.n_nodes, np.flatnonzero(touched & interior),
                                      interface_nodes))
    for array in (labels, interface_nodes, interface_edges) + side_tris:
        array.setflags(write=False)
    return Decomposition(mesh, labels, interface_nodes, interface_edges,
                         tuple(side_maps), side_tris, mesh_global_dofmap(mesh))


def decompose_vertical(mesh, x_cut):
    """Split along the vertical mesh line x = x_cut; left is subdomain 1."""
    ic = lattice_index(x_cut, mesh.h)
    if ic is None:
        raise CutOffGrid(f"x={x_cut} is not a mesh line (h={mesh.h})")
    if not 0 < ic < mesh.nx:
        raise CutOffGrid(f"x={x_cut} must lie strictly inside the domain")
    cell_i = (np.arange(mesh.n_triangles) // 2) % mesh.nx
    labels = np.where(cell_i < ic, 1, 2)
    return _build_decomposition(mesh, labels)


def decompose_staircase(mesh, polyline):
    """Split along an axis-aligned polyline of lattice points.

    The polyline runs from one boundary point to another along mesh lines;
    the two sides are the connected components of the triangles' edge
    adjacency graph with the polyline's edges removed, and label 1 goes to
    the component containing the bottom-left triangle.
    """
    corners = [mesh.node_id(x, y) for x, y in polyline]
    if len(corners) < 2:
        raise PathNotOnGrid("polyline needs at least two points")

    # Expand corner-to-corner segments into unit lattice edges.
    nodes = [corners[0]]
    npl = mesh.nx + 1
    for a, b in zip(corners[:-1], corners[1:]):
        ai, aj = a % npl, a // npl
        bi, bj = b % npl, b // npl
        if (ai != bi) and (aj != bj):
            raise PathNotOnGrid("polyline segments must be axis-aligned")
        if a == b:
            raise PathNotOnGrid("zero-length polyline segment")
        step = (1 if bi > ai else -1) if aj == bj else (npl if bj > aj else -npl)
        nodes.extend(range(a + step, b + step, step))
    if len(set(nodes)) != len(nodes):
        raise DisconnectedPath("polyline is self-intersecting")

    on_boundary = np.isin(nodes, mesh.boundary_nodes)
    if not (on_boundary[0] and on_boundary[-1]):
        raise DisconnectedPath("polyline endpoints must lie on the outer boundary")
    if on_boundary[1:-1].any():
        raise DisconnectedPath("polyline interior must stay off the outer boundary")

    # unit lattice steps are mesh edges, and a boundary-to-boundary simple path cuts <= 2 parts
    cut = np.sort(np.column_stack([nodes[:-1], nodes[1:]]), axis=1)
    cut_keys = cut[:, 0] * mesh.n_nodes + cut[:, 1]
    edges, sides = _interior_edges(mesh)
    edge_keys = edges[:, 0] * mesh.n_nodes + edges[:, 1]

    # Components of the triangle adjacency graph with the cut edges removed.
    kept = sides[~np.isin(edge_keys, cut_keys)]
    graph = sp.csr_matrix((np.ones(kept.shape[0]), (kept[:, 0], kept[:, 1])),
                          shape=(mesh.n_triangles, mesh.n_triangles))
    count, component = connected_components(graph, directed=False)
    if count == 1:
        raise DisconnectedPath("polyline does not separate the domain")
    labels = np.where(component == component[0], 1, 2)
    return _build_decomposition(mesh, labels)


def write_mesh_files(mesh, nodes_path, elements_path):
    """Plain-text export: one "x y" line per node, one "i j k" per triangle."""
    with open(nodes_path, "w") as f:
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
    with open(elements_path, "w") as f:
        for a, b, c in mesh.triangles:
            f.write(f"{a} {b} {c}\n")
