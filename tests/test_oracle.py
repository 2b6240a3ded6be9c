import hashlib
import json
import os

import numpy as np
import pytest

from ddsemi import oracle
from ddsemi.assembly import Assembler
from ddsemi.mesh import build_rect_mesh, decompose_vertical
from ddsemi.oracle import (TooLarge, dense_brute_force, fd_check,
                           mesh_global_dofmap, solve_monolithic)
from ddsemi.problems import (SemilinearProblem, cubic_reaction_problem,
                             linear_problem, p_laplace_problem)
from ddsemi.splitting import NonConvergence, SingularJacobian
from ddsemi.subdomain import (HeldFactor, InterfaceVector, SubdomainWorkspace, shared_order,
                              sparse_newton)
from tests.test_assembly import right_triangle_mesh
from tests.test_subdomain import BAD_NEWTON_SETTINGS


class TestDenseEquivalence:
    @pytest.mark.parametrize("make_problem",
                             [cubic_reaction_problem, linear_problem, p_laplace_problem])
    def test_residual_and_jacobian_match_sparse(self, make_problem):
        prob = make_problem()
        mesh = build_rect_mesh(3, 2, 0.5)  # 35 nodes
        gdm = mesh_global_dofmap(mesh)
        asm = Assembler(mesh, np.arange(mesh.n_triangles), gdm)
        oracle = dense_brute_force(prob, mesh, gdm)
        rng = np.random.default_rng(0)
        for _ in range(3):
            u = 0.4 * rng.standard_normal(gdm.n_dofs)
            r_sparse = asm.residual(u, prob)
            r_dense = oracle.residual(u)
            assert np.linalg.norm(r_sparse - r_dense) <= 1e-12 * np.linalg.norm(r_dense)
            j_sparse = asm.jacobian(u, prob).toarray()
            j_dense = oracle.jacobian(u)
            assert np.linalg.norm(j_sparse - j_dense) <= 1e-12 * np.linalg.norm(j_dense)

    def test_subdomain_blocks_match(self):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(3, 2, 0.5)
        decomp = decompose_vertical(mesh, 1.5)
        rng = np.random.default_rng(1)
        for side in (1, 2):
            dm = decomp.side_dofmap(side)
            tris = decomp.side_triangles(side)
            asm = Assembler(mesh, tris, dm)
            oracle = dense_brute_force(prob, mesh, dm, tris)
            u = 0.4 * rng.standard_normal(dm.n_dofs)
            np.testing.assert_allclose(asm.residual(u, prob), oracle.residual(u),
                                       atol=1e-13)

    def test_zero_problem_gives_zero_objects(self):
        prob = SemilinearProblem(
            alpha=lambda x, y: np.ones_like(x),
            beta=lambda x, y, u: np.zeros_like(u),
            beta_y=lambda x, y, u: np.zeros_like(u),
            source=lambda x, y: np.zeros_like(x))
        mesh = build_rect_mesh(1, 1, 0.5)
        gdm = mesh_global_dofmap(mesh)
        oracle = dense_brute_force(prob, mesh, gdm)
        assert (oracle.residual(np.zeros(gdm.n_dofs)) == 0).all()

    def test_too_large_mesh_rejected(self):
        mesh = build_rect_mesh(3, 2, 0.25)
        with pytest.raises(TooLarge):
            dense_brute_force(cubic_reaction_problem(), mesh, mesh_global_dofmap(mesh))

    def test_linear_steklov_matches_sparse_action(self):
        prob = linear_problem()
        mesh = build_rect_mesh(3, 2, 0.5)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, prob, 2)
        dm = decomp.side_dofmap(2)
        schur, const = dense_brute_force(
            prob, mesh, dm, decomp.side_triangles(2)).linear_steklov(dm.n_interior)
        rng = np.random.default_rng(2)
        for _ in range(3):
            eta = rng.standard_normal(decomp.n_interface)
            got = ws.apply_steklov_poincare(InterfaceVector(eta)).data
            np.testing.assert_allclose(got, schur @ eta + const, atol=1e-10)


class TestMonolithic:
    def test_zero_data_gives_zero(self):
        prob = SemilinearProblem(
            alpha=lambda x, y: np.ones_like(x),
            beta=lambda x, y, u: u ** 3,
            beta_y=lambda x, y, u: 3 * u ** 2,
            source=lambda x, y: np.zeros_like(x))
        mesh = build_rect_mesh(2, 1, 0.25)
        sol = solve_monolithic(prob, mesh)
        assert np.abs(sol.field.data).max() < 1e-12

    def test_nan_source_raises(self):
        prob = SemilinearProblem(
            alpha=lambda x, y: np.ones_like(x),
            beta=lambda x, y, u: u,
            beta_y=lambda x, y, u: np.ones_like(u),
            source=lambda x, y: np.full_like(x, np.nan))
        with pytest.raises(NonConvergence):
            solve_monolithic(prob, build_rect_mesh(2, 1, 0.25))

    def test_linear_matches_direct_solve(self):
        prob = linear_problem()
        mesh = build_rect_mesh(3, 2, 0.5)
        gdm = mesh_global_dofmap(mesh)
        oracle = dense_brute_force(prob, mesh, gdm)
        expected = np.linalg.solve(oracle.jacobian(np.zeros(gdm.n_dofs)),
                                   -oracle.residual(np.zeros(gdm.n_dofs)))
        sol = solve_monolithic(prob, mesh)
        np.testing.assert_allclose(sol.field.data, expected, atol=1e-11)
        assert sol.newton_iterations == 1

    def test_refinement_reduces_distance(self):
        # self-refinement sanity: each discrete solution moves toward the
        # finer one as h shrinks (not an acceptance gate)
        prob = cubic_reaction_problem()
        meshes = [build_rect_mesh(3, 2, h) for h in (1 / 4, 1 / 8, 1 / 16)]
        sols = [solve_monolithic(prob, m) for m in meshes]
        # compare max-norm of nodal values at the shared coarse lattice
        def at_lattice(mesh, sol, step):
            gdm = mesh_global_dofmap(mesh)
            full = np.zeros(mesh.n_nodes)
            full[gdm.node_of_dof] = sol.field.data
            sel = [i for i, (x, y) in enumerate(mesh.nodes)
                   if (x / step) % 1 == 0 and (y / step) % 1 == 0]
            order = np.lexsort(mesh.nodes[sel].T)
            return full[np.asarray(sel)[order]]

        coarse_gap = np.abs(at_lattice(meshes[0], sols[0], 0.25)
                            - at_lattice(meshes[1], sols[1], 0.25)).max()
        fine_gap = np.abs(at_lattice(meshes[1], sols[1], 0.25)
                          - at_lattice(meshes[2], sols[2], 0.25)).max()
        assert fine_gap < coarse_gap

    def test_deterministic(self):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 2, 0.25)
        a = solve_monolithic(prob, mesh)
        b = solve_monolithic(prob, mesh)
        assert (a.field.data == b.field.data).all()

    @pytest.mark.parametrize("key, value", BAD_NEWTON_SETTINGS)
    def test_bad_newton_settings_rejected(self, monkeypatch, key, value):
        def no_newton(*args, **kwargs):
            raise AssertionError("Newton ran before the settings were checked")

        monkeypatch.setattr(oracle, "sparse_newton", no_newton)
        with pytest.raises(ValueError, match="newton_max|tolerance"):
            solve_monolithic(cubic_reaction_problem(), build_rect_mesh(2, 1, 0.25),
                             **{key: value})


def zero_start(prob, mesh, newton_rtol=1e-12):
    """(field, steps, tolerance) of the reference by full Newton from zero,
    each step refactored: the solve below the nesting gate."""
    dofmap = mesh_global_dofmap(mesh)
    asm = Assembler(mesh, np.arange(mesh.n_triangles), dofmap)
    tol = newton_rtol * max(1.0, float(np.linalg.norm(asm.residual(np.zeros(dofmap.n_dofs),
                                                                   prob))))
    u, steps, _ = sparse_newton(lambda v: asm.residual(v, prob),
                                lambda v: asm.jacobian(v, prob),
                                np.zeros(dofmap.n_dofs), tol, 50,
                                HeldFactor(shared_order(asm)), chord=False)
    return u, steps, tol


def newton_calls(monkeypatch):
    """Spy on the reference's Newton solves: (unknowns, steps) per call."""
    calls = []

    def spy(residual_fn, jacobian_fn, u0, *args, **kwargs):
        out = sparse_newton(residual_fn, jacobian_fn, u0, *args, **kwargs)
        calls.append((len(u0), out[1]))
        return out

    monkeypatch.setattr(oracle, "sparse_newton", spy)
    return calls


class TestNestedReference:
    # 3 x 2 at h = 1/20 has 40 cells across its shorter side: one coarse level
    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_nested_solution_meets_tolerance_and_matches_zero_start(self, make_problem):
        prob, mesh = make_problem(), build_rect_mesh(3, 2, 1 / 20)
        expected, _, tol = zero_start(prob, mesh)
        sol = solve_monolithic(prob, mesh)
        asm = Assembler(mesh, np.arange(mesh.n_triangles), mesh_global_dofmap(mesh))
        assert float(np.linalg.norm(asm.residual(sol.field.data, prob))) <= tol
        assert np.abs(sol.field.data - expected).max() <= 1e-10
        assert sol.field.data.tobytes() != expected.tobytes()  # it did nest

    @pytest.mark.parametrize("prob, mesh", [
        (cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 16)),  # 2h mesh: 16 cells across
        (cubic_reaction_problem(), build_rect_mesh(2.05, 2, 0.05)),  # 41 x 40 cells
        # one triangle, no Dirichlet node: the cubic problem's Jacobian is singular at zero
        (linear_problem(), right_triangle_mesh(0.5)),
    ], ids=["below-gate", "odd-cells", "hand-built"])
    def test_off_the_gate_is_the_zero_start_solve(self, prob, mesh):
        expected, steps, _ = zero_start(prob, mesh)
        sol = solve_monolithic(prob, mesh)
        assert sol.field.data.tobytes() == expected.tobytes()
        assert sol.newton_iterations == steps

    @pytest.mark.parametrize("error", [NonConvergence, SingularJacobian])
    def test_coarse_failure_falls_back_to_zero_start(self, monkeypatch, error):
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20)
        expected, steps, _ = zero_start(prob, mesh)
        fine = mesh_global_dofmap(mesh).n_dofs

        def failing_coarse(residual_fn, jacobian_fn, u0, *args, **kwargs):
            if len(u0) != fine:
                raise error("coarse level failed")
            return sparse_newton(residual_fn, jacobian_fn, u0, *args, **kwargs)

        monkeypatch.setattr(oracle, "sparse_newton", failing_coarse)
        sol = solve_monolithic(prob, mesh)
        assert sol.field.data.tobytes() == expected.tobytes()
        assert sol.newton_iterations == steps

    def test_failed_nested_start_falls_back_to_zero_start(self, monkeypatch):
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20)
        expected, steps, _ = zero_start(prob, mesh)
        coarse_steps = []

        def failing_chord(residual_fn, jacobian_fn, u0, *args, chord=True, **kwargs):
            if chord:
                raise NonConvergence("nested start failed", iterations=3)
            out = sparse_newton(residual_fn, jacobian_fn, u0, *args, chord=chord, **kwargs)
            coarse_steps.append(out[1])
            return out

        monkeypatch.setattr(oracle, "sparse_newton", failing_chord)
        sol = solve_monolithic(prob, mesh)
        assert sol.field.data.tobytes() == expected.tobytes()
        # the coarse level, the three discarded steps and the zero start
        assert sol.newton_iterations == coarse_steps[0] + 3 + steps

    def test_fallback_runs_on_the_held_factor_of_its_level(self, monkeypatch):
        # the nested attempt and the zero start of one level share one
        # HeldFactor, so at most one factor of the level is alive at a time
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20)
        calls = []

        def failing_chord(residual_fn, jacobian_fn, u0, tol, max_iter, held, chord=True):
            calls.append((len(u0), held, chord))
            if chord:
                held.refactor(jacobian_fn(u0))
                raise NonConvergence("nested start failed", iterations=1)
            return sparse_newton(residual_fn, jacobian_fn, u0, tol, max_iter, held, chord)

        monkeypatch.setattr(oracle, "sparse_newton", failing_chord)
        solve_monolithic(prob, mesh)
        (coarse, coarse_held, coarse_chord), (fine, held, chord), (again, held_again, fallback) = calls
        assert coarse < fine == again and not coarse_chord and chord and not fallback
        assert held_again is held and held is not coarse_held
        assert held.factorizations > 1

    @pytest.mark.parametrize("make_problem", [cubic_reaction_problem, p_laplace_problem])
    def test_zero_start_budget_still_converges(self, make_problem):
        # newton_max bounds each level; the smallest budget the zero start
        # meets is enough, since a nested start that runs out falls back to it
        prob, mesh = make_problem(), build_rect_mesh(3, 2, 1 / 20)
        expected, steps, tol = zero_start(prob, mesh)
        with pytest.raises(NonConvergence):
            solve_monolithic(prob, mesh, newton_max=steps - 1)
        sol = solve_monolithic(prob, mesh, newton_max=steps)
        assert sol.residual_norm <= tol
        assert np.abs(sol.field.data - expected).max() <= 1e-10

    def test_newton_iterations_count_every_level(self, monkeypatch):
        # 80 cells across: levels with 20, 40 and 80 cells, coarsest first
        calls = newton_calls(monkeypatch)
        sol = solve_monolithic(cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 40))
        assert [n for n, _ in calls] == [mesh_global_dofmap(build_rect_mesh(3, 2, h)).n_dofs
                                         for h in (1 / 10, 1 / 20, 1 / 40)]
        assert all(steps > 0 for _, steps in calls)
        assert sol.newton_iterations == sum(steps for _, steps in calls)

    def test_only_the_fine_level_is_cached(self, tmp_path, monkeypatch):
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20)
        first = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert json.loads(files[0].read_bytes().split(b"\n", 1)[0])["h"] == mesh.h
        calls = newton_calls(monkeypatch)
        second = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert second.newton_iterations == 0 and calls == []
        assert second.field.data.tobytes() == first.field.data.tobytes()


class TestReferenceCache:
    @staticmethod
    def zero_start_key(prob, mesh):
        blob = "|".join([prob.name, repr(mesh.width), repr(mesh.height), repr(mesh.h),
                         "4", repr(1e-12)])
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_entry_from_before_nesting_is_not_reused(self, tmp_path):
        # a zero-start field cached under the key without the nesting rule
        # passes the residual test, but must not stand in for the nested one
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20)
        old, _, _ = zero_start(prob, mesh)
        old_key = self.zero_start_key(prob, mesh)
        new_key = oracle._cache_key(prob, mesh, 4, 1e-12)
        assert old_key != new_key
        for key in (old_key, new_key):
            oracle._cache_write(str(tmp_path / f"ref-{key[:16]}.bin"), old_key, {"h": mesh.h}, old)
        sol = solve_monolithic(prob, mesh, degree=4, cache_dir=str(tmp_path))
        fresh = solve_monolithic(prob, mesh, degree=4)
        assert sol.newton_iterations > 0
        assert sol.field.data.tobytes() == fresh.field.data.tobytes()
        assert sol.field.data.tobytes() != old.tobytes()

    def test_solve_that_does_not_nest_keeps_its_key(self):
        # below the gate the field is the zero start's, and so is its cache
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 16)
        assert oracle._cache_key(prob, mesh, 4, 1e-12) == self.zero_start_key(prob, mesh)

    def test_round_trip(self, tmp_path):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 1, 0.25)
        first = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert first.newton_iterations > 0
        files = list(tmp_path.glob("ref-*.bin"))
        assert len(files) == 1
        second = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert second.newton_iterations == 0  # served from cache
        assert (first.field.data == second.field.data).all()

    def test_no_stray_temp_files(self, tmp_path):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 1, 0.25)
        solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert all(p.name.startswith("ref-") for p in tmp_path.iterdir())

    def test_corrupted_cache_recomputed(self, tmp_path):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 1, 0.25)
        good = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        path = next(tmp_path.glob("ref-*.bin"))
        path.write_bytes(b'{"key": "bogus", "n": 3}\n' + b"\x00" * 24)
        again = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert again.newton_iterations > 0
        np.testing.assert_allclose(again.field.data, good.field.data, atol=1e-14)

    def test_header_format(self, tmp_path):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 1, 0.25)
        sol = solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        raw = next(tmp_path.glob("ref-*.bin")).read_bytes()
        header, payload = raw.split(b"\n", 1)
        meta = json.loads(header)
        assert meta["n"] == len(sol.field.data)
        assert meta["h"] == 0.25
        data = np.frombuffer(payload, dtype="<f8")
        np.testing.assert_array_equal(data, sol.field.data)

    def test_unnamed_problem_not_cached(self, tmp_path):
        prob = cubic_reaction_problem()
        prob.name = ""
        mesh = build_rect_mesh(2, 1, 0.25)
        solve_monolithic(prob, mesh, cache_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestFdCheck:
    def test_quadratic_scalar_map(self):
        report = fd_check(lambda x: x ** 2,
                          lambda x, d: 2 * x * d,
                          np.array([1.3]), np.array([0.7]),
                          deltas=(1e-2, 1e-3, 1e-4))
        assert abs(report.slope - 2.0) <= 0.1

    def test_wrong_derivative_has_slope_one(self):
        report = fd_check(lambda x: x ** 2,
                          lambda x, d: 0.5 * x * d,
                          np.array([1.0]), np.array([1.0]),
                          deltas=(1e-2, 1e-3, 1e-4))
        assert report.slope < 1.5

    def test_exact_linear_map_short_circuits(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        report = fd_check(lambda x: a @ x, lambda x, d: a @ d,
                          np.ones(2), np.array([0.3, -0.4]))
        assert report.slope >= 2.0


class TestTransmission:
    def test_glued_fields_match_monolithic(self):
        # converged interface trace reproduces the full-domain solution
        from ddsemi.iterations import DNConfig, RelativeFieldError, run_dirichlet_neumann

        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        ref = solve_monolithic(prob, mesh)
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2)
        report = run_dirichlet_neumann(DNConfig(s=0.36, stop_tol=1e-12, max_iter=200),
                                       ws1, ws2)
        assert report.converged
        eta_star = ws2.trace(ws2.last_neumann)
        u1 = ws1.dirichlet_solve(eta_star)
        u2 = ws2.dirichlet_solve(eta_star)
        meter = RelativeFieldError(mesh, decomp, ref)
        err = meter(u1, u2)
        newton_tol_rel = 1e-12
        assert err <= 10 * newton_tol_rel
