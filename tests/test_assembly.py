import gc
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsemi import assembly
from ddsemi.assembly import (Assembler, FieldVector, NonFiniteCoefficient, _require_finite,
                             interface_mass_matrix)
from ddsemi.mesh import (DofMap, TriMesh, build_rect_mesh, decompose_staircase,
                         decompose_vertical)
from ddsemi.oracle import dense_brute_force, mesh_global_dofmap
from ddsemi.problems import (SEMILINEAR, SemilinearProblem, cubic_reaction_problem,
                             linear_problem, p_laplace_problem)
from ddsemi.splitting import NonConvergence
from ddsemi.subdomain import SubdomainWorkspace, shared_order


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
        r = Assembler(m, d.side_triangles(1), dm).residual(np.zeros(dm.n_dofs), zero_problem())
        assert (r == 0).all()

    def test_constant_load_single_triangle(self):
        # each load entry is -area/3 for constant unit source on a P1 triangle
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        r = Assembler(m, [0], dm).residual(np.zeros(3), constant_source_problem(1.0))
        np.testing.assert_allclose(r, np.full(3, -1.0 / 6.0), atol=1e-15)

    def test_constant_field_cubic_reaction(self):
        # reaction part equals beta(c) * integral(phi_k) = 10 c^3 * area/3
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        c = 0.7
        prob = cubic_reaction_problem()
        r = Assembler(m, [0], dm).residual(np.full(3, c), prob)
        grad_part = Assembler(m, [0], dm).residual(
            np.full(3, c),
            SemilinearProblem(alpha=prob.alpha,
                              beta=lambda x, y, u: np.zeros_like(u),
                              beta_y=prob.beta_y, source=prob.source))
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
        total = Assembler(m, np.arange(m.n_triangles), gdm).residual(u, prob)
        part1 = Assembler(m, d.side_triangles(1), gdm).residual(u, prob)
        part2 = Assembler(m, d.side_triangles(2), gdm).residual(u, prob)
        np.testing.assert_allclose(part1 + part2, total, atol=1e-14)

    def test_negative_alpha_rejected(self):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        bad = SemilinearProblem(alpha=lambda x, y: -np.ones_like(x),
                                beta=lambda x, y, u: np.zeros_like(u),
                                beta_y=lambda x, y, u: np.zeros_like(u),
                                source=lambda x, y: np.zeros_like(x))
        with pytest.raises(ValueError, match="positive"):
            Assembler(m, [0], dm).residual(np.zeros(3), bad)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["beta", "beta_y", "source"])
    def test_non_finite_coefficient_rejected(self, name, value):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        data = dict(alpha=lambda x, y: np.ones_like(x),
                    beta=lambda x, y, u: np.zeros_like(u),
                    beta_y=lambda x, y, u: np.zeros_like(u),
                    source=lambda x, y: np.zeros_like(x))
        if name == "source":
            data[name] = lambda x, y: np.where(x < 0.2, value, 1.0)
        else:
            data[name] = lambda x, y, u: np.where(x < 0.2, value, u)
        asm = Assembler(m, [0], dm)
        assemble = asm.jacobian if name == "beta_y" else asm.residual
        with pytest.raises(ValueError, match="finite") as info:
            assemble(np.zeros(3), SemilinearProblem(**data))
        # a run that meets bad data ends like any failed Newton solve
        assert isinstance(info.value, NonConvergence)

    def test_non_finite_field_is_not_a_coefficient_error(self):
        # a NaN trial iterate gives a NaN residual, which Newton rejects
        m = build_rect_mesh(1, 1, 0.5)
        asm = Assembler(m, [0], free_triangle_dofmap(m, 0))
        r = asm.residual(np.array([np.nan, 0.0, 0.0]), cubic_reaction_problem())
        assert np.isnan(r).any()

    def test_field_free_integrals_computed_once(self):
        calls = {"alpha": 0, "source": 0}

        def alpha(x, y):
            calls["alpha"] += 1
            return np.ones_like(x)

        def source(x, y):
            calls["source"] += 1
            return x * y

        prob = SemilinearProblem(alpha=alpha, beta=lambda x, y, u: u ** 3,
                                 beta_y=lambda x, y, u: 3 * u ** 2, source=source)
        m = build_rect_mesh(1, 1, 0.5)
        asm = Assembler(m, [0], free_triangle_dofmap(m, 0))
        first = asm.residual(np.full(3, 0.5), prob)
        again = asm.residual(np.full(3, 0.5), prob)
        asm.jacobian(np.ones(3), prob)
        asm.jacobian(np.ones(3), prob, interior=True)
        after = asm.residual(np.full(3, 0.5), prob)
        assert calls == {"alpha": 1, "source": 1}
        assert again.tobytes() == first.tobytes()
        assert after.tobytes() == first.tobytes()

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_returned_jacobian_shares_nothing(self, make_problem):
        # writing into a returned matrix must leave the held stiffness alone
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        asm = Assembler(m, d.side_triangles(1), d.side_dofmap(1))
        prob = make_problem()
        w = 0.5 * np.random.default_rng(7).standard_normal(asm.n_dofs)
        r = asm.residual(w, prob)
        jac = asm.jacobian(w, prob)
        block = asm.jacobian(w, prob, interior=True)
        expected = [a.copy() for a in (jac.data, jac.indices, jac.indptr,
                                       block.data, block.indices, block.indptr)]
        for mat in (jac, block):
            mat.data += 1.0
            mat.indices[:] = 0
        again = asm.jacobian(w, prob)
        again_block = asm.jacobian(w, prob, interior=True)
        assert asm.residual(w, prob).tobytes() == r.tobytes()
        for got, want in zip((again.data, again.indices, again.indptr, again_block.data,
                              again_block.indices, again_block.indptr), expected):
            assert got.tobytes() == want.tobytes()

    def test_alpha_probe_recorded(self):
        m = build_rect_mesh(1, 1, 0.5)
        dm = free_triangle_dofmap(m, 0)
        asm = Assembler(m, [0], dm)
        asm.residual(np.zeros(3), cubic_reaction_problem())
        assert asm.observed["alpha_min"] == 1.0

    def test_h1_matrix_records_no_probe(self):
        m = build_rect_mesh(1, 1, 0.5)
        asm = Assembler(m, [0], free_triangle_dofmap(m, 0))
        asm.h1_matrix()
        assert asm.observed == {}


def reference_residual(asm, u, prob):
    """The residual kernel as it was before its trims (np.append, a
    finiteness check of every beta value before the sum, broadcast_to at
    every point set), kept as the bitwise reference."""
    u = np.asarray(u, dtype=float)
    uv = np.append(u, 0.0)[asm._flat_gather].reshape(3, -1)
    uq = asm._phi_t @ uv
    bq = np.broadcast_to(np.asarray(prob.beta(asm.qx, asm.qy, uq), dtype=float), asm.qx.shape)
    _require_finite("reaction term beta", bq, uq)
    local = asm.det * (asm._wphi @ bq) \
        - asm._integral("load", prob.source, asm._load_integral)
    if prob.kind != SEMILINEAR:
        gx, gy, anorm = asm._p_laplace_gradient(uv, prob.grad_eps)
        coef = asm.area * anorm
        local += (coef * gx) * asm._gx + (coef * gy) * asm._gy
    out = np.bincount(asm._flat_gather, weights=local.ravel(),
                      minlength=asm.n_dofs + 1)[: asm.n_dofs]
    if prob.kind == SEMILINEAR:
        out += asm._integral("stiffness", prob.alpha, asm._stiffness) @ u
    return out


def _inside(tri_nodes):
    """Whether the points (x, y) lie strictly inside the triangle."""
    (x0, y0), (x1, y1), (x2, y2) = tri_nodes

    def test(x, y):
        d = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        a = ((x1 - x) * (y2 - y) - (x2 - x) * (y1 - y)) / d
        b = ((x2 - x) * (y0 - y) - (x0 - x) * (y2 - y)) / d
        return (a > 0) & (b > 0) & (1 - a - b > 0)
    return test


def _with(prob, **data):
    return replace(prob, **data)


class TestResidualKernel:
    """The trimmed residual against the reference formula kept above."""

    @pytest.fixture(scope="class")
    def side(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_staircase(m, [(1.5, 0), (1.5, 1), (2, 1), (2, 2)])
        return m, d

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_bitwise_equal_to_the_reference(self, side, make_problem):
        m, d = side
        prob = make_problem()
        rng = np.random.default_rng(21)
        for s in (1, 2):
            asm = Assembler(m, d.side_triangles(s), d.side_dofmap(s))
            for scale in np.geomspace(1e-3, 5.0, 30):
                u = scale * rng.standard_normal(asm.n_dofs)
                assert asm.residual(u, prob).tobytes() == reference_residual(asm, u, prob).tobytes()

    @staticmethod
    def _outcome(residual, u, prob):
        try:
            return residual(u, prob)
        except NonFiniteCoefficient as exc:
            return str(exc)

    @pytest.mark.parametrize("case", ["free", "constrained-corner", "field-non-finite-there",
                                      "source-too", "field-elsewhere"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_raises_where_it_did(self, case, value):
        m = build_rect_mesh(3, 2, 0.5)
        d = decompose_vertical(m, 1.5)
        tris, dofmap = d.side_triangles(1), d.side_dofmap(1)
        constrained = (dofmap.dof_of_node[m.triangles[tris]] < 0).all(axis=1)
        # the corner triangle's three nodes are constrained: its entries reach
        # only the spill slot of the sum
        corner = tris[np.flatnonzero(constrained)[0]]
        target = corner if case == "constrained-corner" else tris[np.flatnonzero(~constrained)[0]]
        inside = _inside(m.nodes[m.triangles[target]])
        base = cubic_reaction_problem()
        prob = _with(base, beta=lambda x, y, u: np.where(inside(x, y), value, u ** 3))
        if case == "source-too":
            prob = _with(prob, source=lambda x, y: np.full_like(x, value))
        u = 0.3 * np.ones(dofmap.n_dofs)
        if case == "field-non-finite-there":
            u[dofmap.dof_of_node[m.triangles[target]]] = np.nan
        if case == "field-elsewhere":
            u[np.setdiff1d(np.arange(dofmap.n_dofs), dofmap.dof_of_node[m.triangles[target]])[0]] \
                = np.nan
        asm = Assembler(m, tris, dofmap)
        # a call with good data first, so that only the bad one meets a held load
        asm.residual(u, base)
        new = self._outcome(asm.residual, u, prob)
        old = self._outcome(lambda *a: reference_residual(Assembler(m, tris, dofmap), *a),
                            u, prob)
        if case == "field-non-finite-there":
            assert not np.isfinite(new).all()
            assert new.tobytes() == old.tobytes()
        else:
            assert new == old == "reaction term beta must be finite at finite field values"

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_non_finite_field_gives_non_finite_residual(self, side, make_problem):
        m, d = side
        asm = Assembler(m, d.side_triangles(2), d.side_dofmap(2))
        prob = make_problem()
        for bad in (np.nan, np.inf):
            u = np.zeros(asm.n_dofs)
            u[asm.n_dofs // 2] = bad
            with np.errstate(invalid="ignore"):
                r = asm.residual(u, prob)
            assert not np.isfinite(r).all()
            with np.errstate(invalid="ignore"):
                assert r.tobytes() == reference_residual(asm, u, prob).tobytes()

    def test_scalar_coefficients_are_broadcast(self):
        # a callable returning a scalar still gives a value at every point
        m = build_rect_mesh(2, 1, 0.5)
        d = decompose_vertical(m, 1.0)
        asm = Assembler(m, d.side_triangles(1), d.side_dofmap(1))
        prob = SemilinearProblem(alpha=lambda x, y: 1.0, beta=lambda x, y, u: 0.5,
                                 beta_y=lambda x, y, u: 0.0, source=lambda x, y: 2.0)
        u = np.linspace(0.0, 1.0, asm.n_dofs)
        assert asm.residual(u, prob).tobytes() == reference_residual(asm, u, prob).tobytes()


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
            jac = Assembler(m, [0], dm).jacobian(np.zeros(3), zero_problem())
            np.testing.assert_allclose(jac.toarray(), expected, atol=1e-13)

    def test_constant_field_mass_scaling(self):
        # with w == c the reaction block is beta_y(c) = 30 c^2 times the mass matrix
        m = build_rect_mesh(1, 1, 1)
        dm = free_triangle_dofmap(m, 0)
        c = 0.3
        prob = cubic_reaction_problem()
        jac = Assembler(m, [0], dm).jacobian(np.full(3, c), prob).toarray()
        stiff = Assembler(m, [0], dm).jacobian(np.zeros(3), zero_problem()).toarray()
        area = 0.5
        mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        np.testing.assert_allclose(jac - stiff, 30 * c ** 2 * mass, rtol=1e-13)

    def test_p_laplace_constant_field(self):
        # a constant field has zero gradient, so the p-Laplace diffusion
        # linearizes to grad_eps times the stiffness, plus beta_y(c) = 1 times the mass
        m = build_rect_mesh(1, 0.5, 0.25)
        nodes = np.arange(m.n_nodes)
        dm = DofMap(nodes, nodes, m.n_nodes)  # every node free
        tris = np.arange(m.n_triangles)
        c, eps = 0.7, 0.25
        jac = Assembler(m, tris, dm).jacobian(np.full(m.n_nodes, c), p_laplace_problem(eps))
        stiff = Assembler(m, tris, dm).jacobian(np.zeros(m.n_nodes), zero_problem())
        gram = Assembler(m, tris, dm).h1_matrix()
        expected = eps * stiff.toarray() + (gram - stiff).toarray()
        assert_canonical_csr(jac)
        np.testing.assert_allclose(jac.toarray(), expected, rtol=0, atol=1e-14)

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
        asm = Assembler(m, [0], dm)
        asm.jacobian(np.full(3, 0.2), cubic_reaction_problem())
        assert asm.observed["beta_y_min"] >= 0.0

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


def assert_vector_matches(vec, expected):
    gap = np.abs(vec - expected).max(initial=0.0)
    assert gap <= 1e-12 * max(1.0, np.abs(expected).max(initial=0.0))


def make_kind(kind):
    if kind == "cubic-alpha":
        return replace(cubic_reaction_problem(), alpha=lambda x, y: 1.0 + x * y)
    return cubic_reaction_problem() if kind == "cubic" else p_laplace_problem()


def oracle_pattern(geometry):
    """(indices, indptr, scatter, nnz) of the geometry's Jacobian, built the
    direct way: one np.unique over the (row, column) keys of all 9*nt local
    entries."""
    n = geometry.n_dofs
    dofs = geometry.dof_of_node[geometry.mesh.triangles[geometry.tris]].T  # (3, nt)
    rows = np.repeat(dofs, 3, axis=0).ravel()
    cols = np.tile(dofs, (3, 1)).ravel()
    free = (rows >= 0) & (cols >= 0)
    keys, slots = np.unique(rows[free] * n + cols[free], return_inverse=True)
    nnz = keys.shape[0]
    scatter = np.full(rows.shape[0], nnz, dtype=np.int32)
    scatter[free] = slots
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return (keys % n).astype(np.int32), indptr, scatter, nnz


def pattern_cases(m):
    """(name, triangles, dof map) of the global mesh, both sides of a
    vertical and of a staircase cut, and random triangle subsets with the
    global dof map (dofs no triangle touches) and with a side's."""
    vertical = decompose_vertical(m, 1.5)
    staircase = decompose_staircase(m, [(1.5, 0), (1.5, 1), (2, 1), (2, 2)])
    rng = np.random.default_rng(9)
    subset = np.flatnonzero(rng.random(m.n_triangles) < 0.4)
    side = vertical.side_triangles(1)
    yield "global", np.arange(m.n_triangles), mesh_global_dofmap(m)
    for name, d in (("vertical", vertical), ("staircase", staircase)):
        for k in (1, 2):
            yield f"{name}{k}", d.side_triangles(k), d.side_dofmap(k)
    yield "subset", subset, mesh_global_dofmap(m)
    yield "side subset", side[rng.random(side.shape[0]) < 0.5], vertical.side_dofmap(1)


class TestSparsityPattern:
    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_matches_oracle_bytewise(self, degree):
        m = build_rect_mesh(3, 2, 1 / 8)
        for name, tris, dofmap in pattern_cases(m):
            geometry = assembly.Geometry(m, tris, dofmap, degree)
            indices, indptr, scatter, nnz = oracle_pattern(geometry)
            assert type(geometry._nnz) is int and geometry._nnz == nnz, name
            for got, want in ((geometry._indices, indices), (geometry._indptr, indptr),
                              (geometry._scatter, scatter)):
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name

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

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), inv_h=st.sampled_from([4, 6, 8]),
           kind=st.sampled_from(["cubic", "cubic-alpha", "plaplace"]),
           subset=st.sampled_from(["all", "side1", "side2", "random"]))
    def test_residual_matches_dense_oracle(self, seed, inv_h, kind, subset):
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
        prob = make_kind(kind)
        asm = Assembler(m, tris, dofmap)
        u = rng.standard_normal(dofmap.n_dofs)
        assert_vector_matches(asm.residual(u, prob),
                              dense_brute_force(prob, m, dofmap, tris).residual(u))

    def test_variable_alpha_jacobian_matches_dense_oracle(self):
        # the held stiffness weights each triangle by its own alpha integral
        m = build_rect_mesh(1, 0.5, 1 / 8)
        d = decompose_vertical(m, 0.5)
        prob = make_kind("cubic-alpha")
        for side in (1, 2):
            dofmap, tris = d.side_dofmap(side), d.side_triangles(side)
            asm = Assembler(m, tris, dofmap)
            w = np.random.default_rng(side).standard_normal(dofmap.n_dofs)
            oracle = dense_brute_force(prob, m, dofmap, tris)
            assert_matches_dense(asm.jacobian(w, prob), oracle.jacobian(w))
            assert_vector_matches(asm.residual(w, prob), oracle.residual(w))

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


class TestInteriorBlock:
    @pytest.mark.parametrize("geometry", ["vertical", "staircase"])
    @pytest.mark.parametrize("kind", ["cubic", "cubic-alpha", "plaplace"])
    def test_equals_slice_bitwise(self, geometry, kind):
        m = build_rect_mesh(3, 2, 1 / 8)
        if geometry == "vertical":
            d = decompose_vertical(m, 1.5)
        else:
            d = decompose_staircase(m, [(1.5, 0), (1.5, 1), (2, 1), (2, 2)])
        prob = make_kind(kind)
        for side in (1, 2):
            dofmap = d.side_dofmap(side)
            asm = Assembler(m, d.side_triangles(side), dofmap)
            mm = dofmap.n_interior
            w = 0.5 * np.random.default_rng(side).standard_normal(asm.n_dofs)
            block = asm.jacobian(w, prob, interior=True)
            sliced = asm.jacobian(w, prob)[:mm, :mm]
            assert block.shape == (mm, mm)
            assert_canonical_csr(block)
            for got, want in ((block.indptr, sliced.indptr), (block.indices, sliced.indices),
                              (block.data, sliced.data)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def counted_geometries(monkeypatch):
    """List that gets the arguments of every Geometry built from now on."""
    built = []

    class Counted(assembly.Geometry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(assembly, "Geometry", Counted)
    return built


def geometry_arrays(asm):
    """Every array of the assembler's geometry, the ones built on first use
    (interior pattern, H1 Gram values, band orders) included."""
    asm.jacobian(np.zeros(asm.n_dofs), cubic_reaction_problem(), interior=True)
    asm.jacobian(np.zeros(asm.n_dofs), p_laplace_problem())
    asm.h1_matrix()
    shared_order(asm)()
    shared_order(asm, interior=True)()
    geometry = asm.geometry
    assert set(geometry._shared) == {"interior", "h1", "stiffness", ("order", False),
                                     ("order", True)}
    arrays = [a for a in vars(geometry).values() if isinstance(a, np.ndarray)]
    for value in geometry._shared.values():
        parts = value if isinstance(value, tuple) else vars(value).values()
        arrays += [a for a in parts if isinstance(a, np.ndarray)]
    return arrays


class TestSharedGeometry:
    def test_workspaces_on_one_side_share_arrays(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        a, b = (SubdomainWorkspace(m, d, cubic_reaction_problem(), 2) for _ in range(2))
        other = SubdomainWorkspace(m, d, cubic_reaction_problem(), 1)
        assert a.asm.geometry is b.asm.geometry is not other.asm.geometry
        for name, value in vars(a.asm.geometry).items():
            assert getattr(a.asm, name) is getattr(b.asm, name) is value
        assert a.asm.observed is not b.asm.observed
        assert a.asm._integrals is not b.asm._integrals

    def test_shared_arrays_are_read_only(self):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        asm = Assembler(m, d.side_triangles(1), d.side_dofmap(1))
        arrays = geometry_arrays(asm)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # the caller's triangle list is left writeable
        tris = np.array(d.side_triangles(1))
        Assembler(m, tris, d.side_dofmap(1))
        assert tris.flags.writeable

    def test_distinct_data_get_distinct_geometries(self, monkeypatch):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        tris, dofmap = d.side_triangles(1), d.side_dofmap(1)
        base = Assembler(m, tris, dofmap)
        built = counted_geometries(monkeypatch)
        assert Assembler(m, tris.copy(), dofmap).geometry is base.geometry
        assert Assembler(m, list(tris), dofmap).geometry is base.geometry
        assert built == []
        others = [Assembler(m, tris, dofmap, degree=2),
                  Assembler(m, tris, mesh_global_dofmap(m)),
                  Assembler(m, tris[:-1], dofmap),
                  Assembler(build_rect_mesh(3, 2, 0.25), tris, dofmap)]
        assert len(built) == len(others)
        geometries = {id(asm.geometry) for asm in others}
        assert len(geometries) == len(others) and id(base.geometry) not in geometries

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_entry_goes_with_its_last_holder(self, make_problem):
        m = build_rect_mesh(3, 2, 0.25)
        d = decompose_vertical(m, 1.5)
        prob = make_problem()
        holders = [Assembler(m, d.side_triangles(2), d.side_dofmap(2)) for _ in range(2)]
        w = 0.5 * np.random.default_rng(3).standard_normal(holders[0].n_dofs)
        r = holders[0].residual(w, prob)
        jac = holders[1].jacobian(w, prob)
        gram = holders[0].h1_matrix()
        entry = weakref.ref(holders[0].geometry)
        del holders[0]
        gc.collect()
        assert entry() is not None
        holders.clear()
        gc.collect()
        assert entry() is None
        assert all(g.mesh is not m for g in assembly._GEOMETRIES.values())
        again = Assembler(m, d.side_triangles(2), d.side_dofmap(2))
        assert again.residual(w, prob).tobytes() == r.tobytes()
        rebuilt = again.jacobian(w, prob)
        for got, want in ((rebuilt, jac), (again.h1_matrix(), gram)):
            for name in ("data", "indices", "indptr"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_concurrent_builds_make_one_geometry(self, monkeypatch):
        # eight threads, more than the cores, with frequent thread switches
        m = build_rect_mesh(3, 2, 1 / 16)
        d = decompose_vertical(m, 1.5)
        built = counted_geometries(monkeypatch)
        start = threading.Barrier(8, timeout=60)

        def build(_):
            start.wait()
            asm = Assembler(m, d.side_triangles(1), d.side_dofmap(1))
            return asm, asm.geometry.interior_pattern()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(build, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        first, pattern = results[0]
        for asm, got in results[1:]:
            assert asm.geometry is first.geometry and got is pattern
            for name, value in vars(first.geometry).items():
                assert getattr(asm, name) is value


def global_assembler(inv_h):
    m = build_rect_mesh(3, 2, 1 / inv_h)
    return Assembler(m, np.arange(m.n_triangles), mesh_global_dofmap(m))


def stiffness_tables(asm):
    """The (9, nt) float arrays that the assembler or its geometry holds."""
    geometry = asm.geometry
    held = list(vars(asm).values()) + list(vars(geometry).values())
    for value in geometry._shared.values():
        held += value if isinstance(value, tuple) else vars(value).values()
    shape = (9, geometry.tris.shape[0])
    found = {id(a): a for a in held
             if isinstance(a, np.ndarray) and a.shape == shape and a.dtype == float}
    return list(found.values())


class TestGeometryMemory:
    def test_global_build_peak_and_kept_bytes(self):
        # h = 1/24: 6912 triangles; a geometry keeps about 248 bytes per
        # triangle, and its build peaks at under twice that
        m = build_rect_mesh(3, 2, 1 / 24)
        tris, dofmap = np.arange(m.n_triangles), mesh_global_dofmap(m)
        assembly.Geometry(m, tris, dofmap, 4)  # first-call allocations
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            geometry = assembly.Geometry(m, tris, dofmap, 4)
            kept, peak = (b - before for b in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert geometry.tris.shape == (m.n_triangles,)
        assert kept <= 260 * m.n_triangles
        assert peak <= 2.5 * kept

    def test_semilinear_assembly_holds_no_element_stiffness(self):
        asm = global_assembler(24)
        prob = cubic_reaction_problem()
        w = 0.5 * np.random.default_rng(2).standard_normal(asm.n_dofs)
        asm.residual(w, prob)
        asm.jacobian(w, prob)
        asm.jacobian(w, prob, interior=True)
        asm.h1_matrix()
        assert stiffness_tables(asm) == []

    def test_p_laplace_jacobian_holds_one_read_only(self):
        asm = global_assembler(24)
        prob = p_laplace_problem()
        w = 0.5 * np.random.default_rng(2).standard_normal(asm.n_dofs)
        first = asm.jacobian(w, prob)
        (held,) = stiffness_tables(asm)
        assert not held.flags.writeable
        assert held.tobytes() == asm.geometry.element_stiffness().tobytes()
        # a second call and another assembler on the same data read the same table
        again = Assembler(asm.mesh, asm.tris, mesh_global_dofmap(asm.mesh))
        assert again.geometry is asm.geometry
        assert again.jacobian(w, prob).data.tobytes() == first.data.tobytes()
        assert stiffness_tables(again) == [held]


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
