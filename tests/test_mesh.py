import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsemi.mesh import (CutOffGrid, DisconnectedPath, NonIntegerSubdivision,
                         PathNotOnGrid, build_rect_mesh, decompose_staircase,
                         decompose_vertical, prolong_p1, write_mesh_files)


def edge_multiset(mesh):
    edges = {}
    for tri in mesh.triangles:
        a, b, c = tri
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edges[key] = edges.get(key, 0) + 1
    return edges


class TestBuildRectMesh:
    def test_counts_3x2_half(self):
        m = build_rect_mesh(3, 2, 0.5)
        assert m.n_nodes == 35
        assert m.n_triangles == 48

    def test_counts_unit_square_h1(self):
        m = build_rect_mesh(1, 1, 1)
        assert m.n_nodes == 4
        assert m.n_triangles == 2

    def test_counts_fine(self):
        m = build_rect_mesh(3, 2, 1 / 64)
        assert m.n_nodes == 193 * 129 == 24897

    def test_positive_areas(self):
        m = build_rect_mesh(3, 2, 0.5)
        assert (m.signed_areas() > 0).all()

    def test_conforming(self):
        # interior edges are shared by exactly two triangles, boundary by one
        m = build_rect_mesh(2, 1, 0.5)
        for (a, b), count in edge_multiset(m).items():
            assert count in (1, 2)
            if count == 1:
                pa, pb = m.nodes[a], m.nodes[b]
                on_b = all(p[0] in (0.0, 2.0) or p[1] in (0.0, 1.0) for p in (pa, pb))
                assert on_b

    def test_boundary_nodes_exact(self):
        m = build_rect_mesh(3, 2, 0.5)
        expected = {i for i, (x, y) in enumerate(m.nodes)
                    if x in (0.0, 3.0) or y in (0.0, 2.0)}
        assert set(m.boundary_nodes.tolist()) == expected

    def test_non_integer_subdivision(self):
        with pytest.raises(NonIntegerSubdivision):
            build_rect_mesh(3, 2, 0.7)


def p1_value(mesh, values, x, y):
    """The P1 function of nodal ``values`` on mesh at (x, y), by barycentric
    coordinates in a triangle that contains the point."""
    for tri in mesh.triangles:
        (x0, y0), (x1, y1), (x2, y2) = mesh.nodes[tri]
        det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        l1 = ((x - x0) * (y2 - y0) - (x2 - x0) * (y - y0)) / det
        l2 = ((x1 - x0) * (y - y0) - (x - x0) * (y1 - y0)) / det
        if min(l1, l2, 1 - l1 - l2) >= -1e-12:
            return (1 - l1 - l2) * values[tri[0]] + l1 * values[tri[1]] + l2 * values[tri[2]]
    raise AssertionError("point outside the mesh")


class TestProlongP1:
    def test_matches_the_coarse_p1_function_at_every_fine_node(self):
        coarse, fine = build_rect_mesh(3, 2, 0.5), build_rect_mesh(3, 2, 0.25)
        values = np.random.default_rng(0).standard_normal(coarse.n_nodes)
        expected = [p1_value(coarse, values, x, y) for x, y in fine.nodes]
        np.testing.assert_allclose(prolong_p1(coarse, fine, values), expected,
                                   rtol=0, atol=1e-14)

    def test_rejects_a_mesh_that_does_not_halve_the_cells(self):
        with pytest.raises(ValueError):
            prolong_p1(build_rect_mesh(3, 2, 0.5), build_rect_mesh(3, 2, 0.5),
                       np.zeros(35))


class TestDecomposeVertical:
    def test_interface_nodes_coarse(self):
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        ys = sorted(m.nodes[d.interface_nodes][:, 1].tolist())
        assert ys == [0.5, 1.0, 1.5]
        assert (m.nodes[d.interface_nodes][:, 0] == 1.5).all()

    def test_single_interface_node(self):
        m = build_rect_mesh(1, 1, 0.5)
        d = decompose_vertical(m, 0.5)
        assert d.n_interface == 1

    def test_fine_interface_count(self):
        m = build_rect_mesh(3, 2, 1 / 64)
        d = decompose_vertical(m, 1.5)
        assert d.n_interface == 127

    def test_labels_partition(self):
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        labels = d.subdomain_of_triangle
        assert set(labels.tolist()) == {1, 2}
        assert len(d.side_triangles(1)) + len(d.side_triangles(2)) == m.n_triangles
        cent = m.nodes[m.triangles].mean(axis=1)
        assert (cent[labels == 1, 0] < 1.5).all()
        assert (cent[labels == 2, 0] > 1.5).all()

    def test_cut_off_grid(self):
        m = build_rect_mesh(3, 2, 0.5)
        with pytest.raises(CutOffGrid):
            decompose_vertical(m, 1.3)
        with pytest.raises(CutOffGrid):
            decompose_vertical(m, 0.0)

    def test_interface_blocks_identical_across_sides(self):
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        dm1, dm2 = d.side_dofmap(1), d.side_dofmap(2)
        np.testing.assert_array_equal(dm1.node_of_dof[dm1.n_interior:],
                                      dm2.node_of_dof[dm2.n_interior:])
        np.testing.assert_array_equal(dm1.node_of_dof[dm1.n_interior:],
                                      d.interface_nodes)

    def test_trace_compatibility(self):
        # restricting a global vector to either side gives identical
        # interface coefficients
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(d.global_dofmap().n_dofs)
        r1 = d.restrict(u, 1)
        r2 = d.restrict(u, 2)
        m1, m2 = d.side_dofmap(1).n_interior, d.side_dofmap(2).n_interior
        np.testing.assert_array_equal(r1[m1:], r2[m2:])

    def test_glue_round_trip(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(d.global_dofmap().n_dofs)
        glued = d.glue(d.restrict(u, 1), d.restrict(u, 2))
        np.testing.assert_allclose(glued, u, rtol=0, atol=0)


class TestDecomposeStaircase:
    def test_l_shaped_path(self):
        m = build_rect_mesh(2, 2, 1)
        d = decompose_staircase(m, [(1, 0), (1, 1), (2, 1)])
        assert d.n_interface == 1
        assert tuple(m.nodes[d.interface_nodes[0]]) == (1.0, 1.0)
        assert len(d.side_triangles(1)) == 6
        assert len(d.side_triangles(2)) == 2

    def test_straight_path_matches_vertical(self):
        m = build_rect_mesh(3, 2, 0.5)
        dv = decompose_vertical(m, 1.5)
        ds = decompose_staircase(m, [(1.5, 0), (1.5, 2)])
        np.testing.assert_array_equal(dv.subdomain_of_triangle, ds.subdomain_of_triangle)
        np.testing.assert_array_equal(dv.interface_nodes, ds.interface_nodes)
        np.testing.assert_array_equal(dv.interface_edges, ds.interface_edges)
        for side in (1, 2):
            np.testing.assert_array_equal(dv.side_dofmap(side).node_of_dof,
                                          ds.side_dofmap(side).node_of_dof)

    def test_step_path_interface_nodes(self):
        # enumerate expanded path nodes and drop the two boundary endpoints
        m = build_rect_mesh(3, 2, 0.5)
        path = [(1.5, 0), (1.5, 1), (2, 1), (2, 2)]
        d = decompose_staircase(m, path)
        expected = {(1.5, 0.5), (1.5, 1.0), (2.0, 1.0), (2.0, 1.5)}
        got = {tuple(p) for p in m.nodes[d.interface_nodes]}
        assert got == expected
        assert d.n_interface == 4

    def test_path_not_on_grid(self):
        m = build_rect_mesh(3, 2, 0.5)
        with pytest.raises(PathNotOnGrid):
            decompose_staircase(m, [(1.3, 0), (1.3, 2)])
        with pytest.raises(PathNotOnGrid):
            decompose_staircase(m, [(1.5, 0), (2.0, 0.5)])  # diagonal segment

    def test_disconnected_path(self):
        m = build_rect_mesh(3, 2, 0.5)
        with pytest.raises(DisconnectedPath):
            decompose_staircase(m, [(1.5, 0), (1.5, 1.5)])  # dead end inside
        with pytest.raises(DisconnectedPath):
            decompose_staircase(m, [(1.5, 0.5), (1.5, 1.5)])  # starts off boundary

    @pytest.mark.parametrize("path, error, message", [
        ([(1.5, 0)], PathNotOnGrid, "polyline needs at least two points"),
        ([(1.3, 0), (1.3, 2)], PathNotOnGrid, "point (1.3, 0) is not a mesh node"),
        ([(1.5, 0), (1.5, 2.5)], PathNotOnGrid, "point (1.5, 2.5) lies outside the domain"),
        ([(1.5, 0), (2.0, 0.5)], PathNotOnGrid, "polyline segments must be axis-aligned"),
        ([(1.5, 0), (1.5, 0), (1.5, 2)], PathNotOnGrid, "zero-length polyline segment"),
        ([(1.5, 0), (1.5, 1), (2, 1), (2, 0.5), (1, 0.5), (1, 2)], DisconnectedPath,
         "polyline is self-intersecting"),
        ([(1.5, 0.5), (1.5, 2)], DisconnectedPath,
         "polyline endpoints must lie on the outer boundary"),
        ([(1.5, 0), (2, 0), (2, 2)], DisconnectedPath,
         "polyline interior must stay off the outer boundary"),
        ([(1.5, 0), (2, 0)], DisconnectedPath, "polyline does not separate the domain"),
    ])
    def test_each_invalid_path_has_its_error(self, path, error, message):
        m = build_rect_mesh(3, 2, 0.5)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            decompose_staircase(m, path)


STAIR_H = 1 / 8


@st.composite
def monotone_staircases(draw):
    """Lattice polylines on the 3 x 2 rectangle at h = 1/8 from the bottom
    edge to the top edge, alternating up and sideways steps, with every
    point but the two ends off the outer boundary."""
    levels = sorted(draw(st.lists(st.integers(1, 15), max_size=6, unique=True)))
    columns = sorted(draw(st.lists(st.integers(1, 23), min_size=len(levels) + 1,
                                   max_size=len(levels) + 1, unique=True)),
                     reverse=draw(st.booleans()))
    points = [(columns[0], 0)]
    for level, column in zip(levels, columns[1:]):
        points += [(points[-1][0], level), (column, level)]
    points.append((points[-1][0], 16))
    return [(i * STAIR_H, j * STAIR_H) for i, j in points]


def _roots(mesh, triangles, cut=frozenset()):
    """Union-find root of each triangle of a list, joining triangles that
    share two nodes unless those two nodes form an edge in ``cut``."""
    parent = {t: t for t in triangles}

    def root(t):
        while parent[t] != t:
            t = parent[t]
        return t

    first_owner = {}
    for t in triangles:
        a, b, c = mesh.triangles[t].tolist()
        for u, v in ((a, b), (b, c), (c, a)):
            edge = (min(u, v), max(u, v))
            if edge not in cut:
                parent[root(first_owner.setdefault(edge, t))] = root(t)
    return [root(t) for t in triangles]


def _components(mesh, triangles):
    """Number of edge-connected components of a set of triangles."""
    return len(set(_roots(mesh, triangles.tolist())))


def _lattice_nodes(mesh, path):
    """Every mesh node on the polyline, corners and both ends included."""
    nodes = []
    for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
        count = int(round((abs(x1 - x0) + abs(y1 - y0)) / mesh.h))
        nodes += [mesh.node_id(x0 + (x1 - x0) * t / count, y0 + (y1 - y0) * t / count)
                  for t in range(count + 1)]
    return nodes


class TestRandomStaircases:
    mesh = build_rect_mesh(3, 2, STAIR_H)

    @settings(max_examples=40, deadline=None)
    @given(path=monotone_staircases())
    def test_two_labelled_components(self, path):
        d = decompose_staircase(self.mesh, path)
        assert set(np.unique(d.subdomain_of_triangle).tolist()) == {1, 2}
        for side in (1, 2):
            assert _components(self.mesh, d.side_triangles(side)) == 1

    @settings(max_examples=40, deadline=None)
    @given(path=monotone_staircases())
    def test_sides_index_the_same_ordered_interface(self, path):
        d = decompose_staircase(self.mesh, path)
        for side in (1, 2):
            dm = d.side_dofmap(side)
            np.testing.assert_array_equal(dm.node_of_dof[dm.n_interior:], d.interface_nodes)
        # ordered along the path: consecutive interface nodes are one mesh edge apart
        steps = np.abs(np.diff(self.mesh.nodes[d.interface_nodes], axis=0)).sum(axis=1)
        np.testing.assert_allclose(steps, STAIR_H)
        assert d.n_interface == len(set(_lattice_nodes(self.mesh, path))) - 2

    @settings(max_examples=40, deadline=None)
    @given(path=monotone_staircases())
    def test_labels_match_brute_force_components(self, path):
        d = decompose_staircase(self.mesh, path)
        nodes = _lattice_nodes(self.mesh, path)
        cut = {(min(u, v), max(u, v)) for u, v in zip(nodes[:-1], nodes[1:]) if u != v}
        roots = _roots(self.mesh, list(range(self.mesh.n_triangles)), cut)
        expected = [1 if r == roots[0] else 2 for r in roots]
        assert d.subdomain_of_triangle.tolist() == expected
        assert sorted(map(tuple, d.interface_edges.tolist())) == sorted(cut)

    @settings(max_examples=40, deadline=None)
    @given(path=monotone_staircases(), seed=st.integers(0, 2 ** 32 - 1))
    def test_glue_of_restrictions_is_identity(self, path, seed):
        d = decompose_staircase(self.mesh, path)
        u = np.random.default_rng(seed).standard_normal(d.global_dofmap().n_dofs)
        assert d.glue(d.restrict(u, 1), d.restrict(u, 2)).tobytes() == u.tobytes()


def test_write_mesh_files(tmp_path):
    m = build_rect_mesh(1, 1, 1)
    nodes_file = tmp_path / "nodes.txt"
    elements_file = tmp_path / "elements.txt"
    write_mesh_files(m, nodes_file, elements_file)
    node_lines = nodes_file.read_text().splitlines()
    elem_lines = elements_file.read_text().splitlines()
    assert len(node_lines) == 4
    assert len(elem_lines) == 2
    parsed = np.array([[float(tok) for tok in line.split()] for line in node_lines])
    np.testing.assert_allclose(parsed, m.nodes)
    first = [int(tok) for tok in elem_lines[0].split()]
    assert first == m.triangles[0].tolist()
