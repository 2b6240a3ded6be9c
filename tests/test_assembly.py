import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsemi.assembly import (Assembler, FieldVector, assemble_jacobian,
                             assemble_residual, interface_mass_matrix)
from ddsemi.mesh import DofMap, TriMesh, build_rect_mesh, decompose_vertical
from ddsemi.oracle import dense_brute_force, mesh_global_dofmap
from ddsemi.problems import (SemilinearProblem, cubic_reaction_problem,
                             linear_problem, p_laplace_problem)
from ddsemi.subdomain import SubdomainWorkspace


def free_triangle_dofmap(mesh, tri_index):
    """Dof map treating the three vertices of one triangle as free."""
    nodes = mesh.triangles[tri_index]
    dof_of_node = np.full(mesh.n_nodes, -1, dtype=np.int64)
    dof_of_node[nodes] = np.arange(3)
    return DofMap(np.asarray(nodes, dtype=np.int64), dof_of_node, 3)


def right_triangle_mesh(h):
    """One right triangle with legs h on the axes, right angle first."""
    nodes = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
    tris = np.array([[0, 1, 2]])
    return TriMesh(nodes, tris, np.empty(0, dtype=np.int64), h, h, h, 1, 1)


def zero_problem():
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: np.zeros_like(u),
        beta_y=lambda x, y, u: np.zeros_like(u),
        source=lambda x, y: np.zeros_like(x))


def constant_source_problem(c):
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: np.zeros_like(u),
        beta_y=lambda x, y, u: np.zeros_like(u),
        source=lambda x, y: np.full_like(x, c))


class TestResidual:
    def test_zero_everything(self):
        m = build_rect_mesh(2, 1, 0.5)
        d = decompose_vertical(m, 1.0)
        dm = d.side_dofmap(1)
        r = assemble_residual(np.zeros(dm.n_dofs), zero_problem(),
                              m, d.side_triangles(1), dm)
        assert (r == 0).all()

    def test_constant_load_single_triangle(self):
        # each load entry is -area/3 for constant unit source on a P1 triangle
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        r = assemble_residual(np.zeros(3), constant_source_problem(1.0), m, [0], dm)
        np.testing.assert_allclose(r, np.full(3, -1.0 / 6.0), atol=1e-15)

    def test_constant_field_cubic_reaction(self):
        # reaction part equals beta(c) * integral(phi_k) = 10 c^3 * area/3
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        c = 0.7
        prob = cubic_reaction_problem()
        r = assemble_residual(np.full(3, c), prob, m, [0], dm)
        grad_part = assemble_residual(
            np.full(3, c),
            SemilinearProblem(alpha=prob.alpha,
                              beta=lambda x, y, u: np.zeros_like(u),
                              beta_y=prob.beta_y, source=prob.source),
            m, [0], dm)
        reaction = r - grad_part
        np.testing.assert_allclose(reaction, np.full(3, 10 * c ** 3 * (0.5 / 3)),
                                   rtol=1e-14)

    def test_additivity_over_disjoint_subsets(self):
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        gdm = d.global_dofmap()
        rng = np.random.default_rng(0)
        u = 0.4 * rng.standard_normal(gdm.n_dofs)
        prob = cubic_reaction_problem()
        total = assemble_residual(u, prob, m, np.arange(m.n_triangles), gdm)
        part1 = assemble_residual(u, prob, m, d.side_triangles(1), gdm)
        part2 = assemble_residual(u, prob, m, d.side_triangles(2), gdm)
        np.testing.assert_allclose(part1 + part2, total, atol=1e-14)

    def test_negative_alpha_rejected(self):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        bad = SemilinearProblem(alpha=lambda x, y: -np.ones_like(x),
                                beta=lambda x, y, u: np.zeros_like(u),
                                beta_y=lambda x, y, u: np.zeros_like(u),
                                source=lambda x, y: np.zeros_like(x))
        with pytest.raises(ValueError, match="positive"):
            assemble_residual(np.zeros(3), bad, m, [0], dm)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, value):
        # a NaN compares False with 0, so positivity alone lets it through
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        bad = SemilinearProblem(alpha=lambda x, y: np.where(x < 0.2, value, 1.0),
                                beta=lambda x, y, u: np.zeros_like(u),
                                beta_y=lambda x, y, u: np.zeros_like(u),
                                source=lambda x, y: np.zeros_like(x))
        asm = Assembler(m, [0], dm)
        with pytest.raises(ValueError, match="positive and finite"):
            asm.residual(np.zeros(3), bad)
        with pytest.raises(ValueError, match="positive and finite"):
            asm.jacobian(np.zeros(3), bad)

    def test_alpha_probe_recorded(self):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        prob = cubic_reaction_problem()
        assemble_residual(np.zeros(3), prob, m, [0], dm)
        assert prob.observed["alpha_min"] == 1.0


class TestJacobian:
    def test_element_stiffness_frozen(self):
        # exact symbolic P1 stiffness of the right triangle with legs h on
        # the axes; it is independent of h
        expected = np.array([[1.0, -0.5, -0.5],
                             [-0.5, 0.5, 0.0],
                             [-0.5, 0.0, 0.5]])
        for h in (1.0, 0.5, 0.03125):
            m = right_triangle_mesh(h)
            dm = free_triangle_dofmap(m, 0)
            jac = assemble_jacobian(np.zeros(3), zero_problem(), m, [0], dm)
            np.testing.assert_allclose(jac.toarray(), expected, atol=1e-13)

    def test_constant_field_mass_scaling(self):
        # with w == c the reaction block is beta_y(c) = 30 c^2 times the mass matrix
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        c = 0.3
        prob = cubic_reaction_problem()
        jac = assemble_jacobian(np.full(3, c), prob, m, [0], dm).toarray()
        stiff = assemble_jacobian(np.zeros(3), zero_problem(), m, [0], dm).toarray()
        area = 0.5
        mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        np.testing.assert_allclose(jac - stiff, 30 * c ** 2 * mass, rtol=1e-13)

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_finite_difference_consistency(self, make_problem):
        # ||(r(w + d v) - r(w))/d - J v|| <= C d, first order in d
        m = build_rect_mesh(2, 2, 0.5)
        d = decompose_vertical(m, 1.0)
        gdm = d.global_dofmap()
        asm = Assembler(m, np.arange(m.n_triangles), gdm)
        prob = make_problem()
        rng = np.random.default_rng(1)
        w = 0.5 * rng.standard_normal(gdm.n_dofs)
        v = rng.standard_normal(gdm.n_dofs)
        jac_v = asm.jacobian(w, prob) @ v
        errs = []
        deltas = (1e-4, 1e-5)
        for delta in deltas:
            diff = (asm.residual(w + delta * v, prob) - asm.residual(w, prob)) / delta
            errs.append(np.linalg.norm(diff - jac_v))
        # error shrinks linearly with delta
        assert errs[1] < 0.2 * errs[0]
        assert errs[0] < 1e-2

    def test_symmetry_random_fields(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        dm = d.side_dofmap(1)
        asm = Assembler(m, d.side_triangles(1), dm)
        rng = np.random.default_rng(2)
        for prob in (cubic_reaction_problem(), p_laplace_problem()):
            for _ in range(3):
                w = 0.5 * rng.standard_normal(dm.n_dofs)
                jac = asm.jacobian(w, prob)
                gap = (jac - jac.T)
                assert np.abs(gap.toarray()).max() <= 1e-12 * np.abs(jac.toarray()).max()

    def test_coercivity_on_random_fields(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        dm = d.side_dofmap(2)
        asm = Assembler(m, d.side_triangles(2), dm)
        prob = cubic_reaction_problem()
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = 0.5 * rng.standard_normal(dm.n_dofs)
            eigmin = np.linalg.eigvalsh(asm.jacobian(w, prob).toarray())[0]
            assert eigmin > 0

    def test_beta_y_probe_recorded(self):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        prob = cubic_reaction_problem()
        assemble_jacobian(np.full(3, 0.2), prob, m, [0], dm)
        assert prob.observed["beta_y_min"] >= 0.0

    def test_bitwise_reproducible(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        dm = d.side_dofmap(1)
        asm = Assembler(m, d.side_triangles(1), dm)
        prob = cubic_reaction_problem()
        rng = np.random.default_rng(4)
        w = rng.standard_normal(dm.n_dofs)
        first = asm.jacobian(w, prob)
        second = asm.jacobian(w, prob)
        assert (first != second).nnz == 0
        r1 = asm.residual(w, prob)
        r2 = asm.residual(w, prob)
        assert (r1 == r2).all()


def assert_canonical_csr(mat):
    assert mat.format == "csr"
    for i in range(mat.shape[0]):
        cols = mat.indices[mat.indptr[i]:mat.indptr[i + 1]]
        assert (np.diff(cols) > 0).all(), f"row {i} unsorted or duplicated"


def assert_matches_dense(sparse, dense):
    gap = np.abs(sparse.toarray() - dense).max(initial=0.0)
    assert gap <= 1e-12 * max(1.0, np.abs(dense).max(initial=0.0))


class TestSparsityPattern:
    def test_canonical_csr(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        for side in (1, 2):
            asm = Assembler(m, d.side_triangles(side), d.side_dofmap(side))
            jac = asm.jacobian(np.zeros(asm.n_dofs), cubic_reaction_problem())
            assert_canonical_csr(jac)

    def test_pattern_fixed_across_calls(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        asm = Assembler(m, d.side_triangles(2), d.side_dofmap(2))
        rng = np.random.default_rng(5)
        first = asm.jacobian(np.zeros(asm.n_dofs), cubic_reaction_problem())
        for prob in (cubic_reaction_problem(), p_laplace_problem(), linear_problem()):
            jac = asm.jacobian(rng.standard_normal(asm.n_dofs), prob)
            np.testing.assert_array_equal(jac.indptr, first.indptr)
            np.testing.assert_array_equal(jac.indices, first.indices)

    def test_returned_pattern_is_not_shared(self):
        # mutating one returned matrix in place must not leak into the next
        m = build_rect_mesh(2, 1, 0.25)
        asm = Assembler(m, np.arange(m.n_triangles), mesh_global_dofmap(m))
        prob = linear_problem()
        first = asm.jacobian(np.zeros(asm.n_dofs), prob)
        expected = first.toarray()
        first.data[:] = 0.0
        first.eliminate_zeros()
        np.testing.assert_array_equal(asm.jacobian(np.zeros(asm.n_dofs), prob).toarray(),
                                      expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), inv_h=st.sampled_from([4, 6, 8]),
           kind=st.sampled_from(["cubic", "plaplace"]),
           subset=st.sampled_from(["all", "side1", "side2", "random"]))
    def test_matches_dense_oracle(self, seed, inv_h, kind, subset):
        m = build_rect_mesh(1, 0.5, 1 / inv_h)  # at most 45 nodes
        d = decompose_vertical(m, 0.5)
        rng = np.random.default_rng(seed)
        if subset == "all":
            dofmap, tris = mesh_global_dofmap(m), np.arange(m.n_triangles)
        elif subset == "random":
            dofmap = mesh_global_dofmap(m)
            tris = np.flatnonzero(rng.random(m.n_triangles) < 0.5)
        else:
            side = 1 if subset == "side1" else 2
            dofmap, tris = d.side_dofmap(side), d.side_triangles(side)
        prob = cubic_reaction_problem() if kind == "cubic" else p_laplace_problem()
        asm = Assembler(m, tris, dofmap)
        oracle = dense_brute_force(prob, m, dofmap, tris)
        w = rng.standard_normal(dofmap.n_dofs)
        jac = asm.jacobian(w, prob)
        assert_canonical_csr(jac)
        assert_matches_dense(jac, oracle.jacobian(w))

    def test_robin_penalty_sum(self):
        # the Robin Jacobian is the assembled one plus s times the embedded
        # interface mass matrix
        m = build_rect_mesh(1, 0.5, 1 / 8)
        d = decompose_vertical(m, 0.5)
        prob = cubic_reaction_problem()
        ws = SubdomainWorkspace(m, d, prob, 1)
        s = 46.0
        mass = interface_mass_matrix(d).toarray()
        oracle = dense_brute_force(prob, m, d.side_dofmap(1), d.side_triangles(1))
        w = 0.5 * np.random.default_rng(6).standard_normal(ws.asm.n_dofs)
        ws.mass_gamma  # builds the embedded interface mass matrix
        robin = ws.asm.jacobian(w, prob) + s * ws._mass_gamma_embedded
        expected = oracle.jacobian(w)
        expected[ws.m:, ws.m:] += s * mass
        assert_canonical_csr(robin)
        assert_matches_dense(robin, expected)


class TestFieldVector:
    def test_block_views(self):
        v = FieldVector(np.arange(5.0), 3)
        np.testing.assert_array_equal(v.interior, [0, 1, 2])
        np.testing.assert_array_equal(v.interface, [3, 4])
        assert len(v) == 5

    def test_copy_is_deep(self):
        v = FieldVector(np.arange(3.0), 2)
        w = v.copy()
        w.data[0] = 99
        assert v.data[0] == 0


class TestInterfaceMass:
    def test_uniform_vertical_interface(self):
        # 1D P1 mass matrix on a uniform path with Dirichlet endpoints
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        mass = interface_mass_matrix(d).toarray()
        h = 0.5
        expected = h / 6.0 * np.array([[4.0, 1.0, 0.0],
                                       [1.0, 4.0, 1.0],
                                       [0.0, 1.0, 4.0]])
        np.testing.assert_allclose(mass, expected, atol=1e-15)

    def test_single_node(self):
        m = build_rect_mesh(1, 1, 0.5)
        d = decompose_vertical(m, 0.5)
        mass = interface_mass_matrix(d).toarray()
        np.testing.assert_allclose(mass, [[2 * 0.5 / 3.0]])
