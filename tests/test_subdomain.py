import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import SuperLU

from ddsemi import oracle, subdomain
from ddsemi.assembly import Assembler, interface_mass_matrix
from ddsemi.iterations import DNConfig, run_dirichlet_neumann
from ddsemi.mesh import build_rect_mesh, decompose_staircase, decompose_vertical
from ddsemi.oracle import dense_brute_force, mesh_global_dofmap, solve_monolithic
from ddsemi.problems import (SemilinearProblem, cubic_reaction_problem,
                             linear_problem, p_laplace_problem)
from ddsemi.splitting import (NonConvergence, SingularJacobian, SplittingProblem,
                              monotonicity_probe)
from ddsemi.subdomain import InterfaceVector, SteklovOperator, SubdomainWorkspace


@pytest.fixture(scope="module")
def coarse_setup():
    prob = cubic_reaction_problem()
    mesh = build_rect_mesh(3, 2, 1 / 8)
    decomp = decompose_vertical(mesh, 1.5)
    ws1 = SubdomainWorkspace(mesh, decomp, prob, 1)
    ws2 = SubdomainWorkspace(mesh, decomp, prob, 2)
    return prob, mesh, decomp, ws1, ws2


def indefinite_problem():
    """-Laplace(u) - 10 u = 1: beta_y < 0, outside the paper's hypotheses."""
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: -10.0 * u,
        beta_y=lambda x, y, u: np.full_like(u, -10.0),
        source=lambda x, y: np.ones_like(x))


def zero_data_problem():
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: u ** 3,
        beta_y=lambda x, y, u: 3 * u ** 2,
        source=lambda x, y: np.zeros_like(x))


class TestInterfaceVector:
    def test_primal_dual_never_mix(self):
        primal = InterfaceVector(np.ones(3))
        dual = InterfaceVector(np.ones(3), dual=True)
        with pytest.raises(TypeError):
            primal + dual
        with pytest.raises(TypeError):
            dual - primal
        assert (primal + primal).data.tolist() == [2, 2, 2]
        assert not (2.0 * primal).dual
        assert (0.5 * dual).dual

    def test_workspace_rejects_wrong_flavour(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        dual = InterfaceVector(np.zeros(decomp.n_interface), dual=True)
        with pytest.raises(TypeError):
            ws1.dirichlet_solve(dual)
        primal = InterfaceVector(np.zeros(decomp.n_interface))
        with pytest.raises(TypeError):
            ws1.neumann_solve(primal)


class TestDirichletSolve:
    def test_zero_data_zero_trace_gives_zero(self):
        mesh = build_rect_mesh(2, 1, 0.25)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, zero_data_problem(), 1)
        u = ws.dirichlet_solve(InterfaceVector(np.zeros(decomp.n_interface)))
        assert (u.data == 0).all()

    def test_trace_is_bitwise_exact(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(0)
        eta = InterfaceVector(rng.standard_normal(decomp.n_interface))
        u = ws1.dirichlet_solve(eta)
        assert (u.interface == eta.data).all()

    def test_linear_problem_matches_direct_solve(self):
        # oracle: one dense constrained solve of the linear system
        prob = linear_problem()
        mesh = build_rect_mesh(3, 2, 1 / 2)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        dm = decomp.side_dofmap(1)
        oracle = dense_brute_force(prob, mesh, dm, decomp.side_triangles(1))
        jac = oracle.jacobian(np.zeros(dm.n_dofs))
        rhs = -oracle.residual(np.zeros(dm.n_dofs))
        rng = np.random.default_rng(1)
        eta = rng.standard_normal(decomp.n_interface)
        m = dm.n_interior
        ui = np.linalg.solve(jac[:m, :m], rhs[:m] - jac[:m, m:] @ eta)
        u = ws.dirichlet_solve(InterfaceVector(eta))
        np.testing.assert_allclose(u.interior, ui, atol=1e-10)

    def test_matches_monolithic_restriction(self, coarse_setup):
        prob, mesh, decomp, ws1, ws2 = coarse_setup
        ref = solve_monolithic(prob, mesh)
        eta = ref.trace(decomp)
        for side, ws in ((1, ws1), (2, ws2)):
            u = ws.dirichlet_solve(eta)
            expected = ref.restrict(decomp, side)
            h1 = ws.h1_matrix()
            diff = u.data - expected.data
            err = np.sqrt(diff @ (h1 @ diff))
            assert err < 1e-8


class TestTangentSolve:
    def test_zero_direction_gives_zero(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(2)
        nu = InterfaceVector(0.2 * rng.standard_normal(decomp.n_interface))
        zero = InterfaceVector(np.zeros(decomp.n_interface))
        u = ws1.dirichlet_tangent_solve(nu, zero)
        assert np.abs(u.data).max() < 1e-14

    def test_linear_problem_tangent_is_difference(self):
        # for constant beta_y: F'(nu) eta = F(eta) - F(0), independent of nu
        prob = linear_problem()
        mesh = build_rect_mesh(2, 2, 0.25)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, prob, 2)
        rng = np.random.default_rng(3)
        k = decomp.n_interface
        nu = InterfaceVector(rng.standard_normal(k))
        eta = InterfaceVector(rng.standard_normal(k))
        tangent = ws.dirichlet_tangent_solve(nu, eta)
        f_eta = ws.dirichlet_solve(eta)
        f_zero = ws.dirichlet_solve(InterfaceVector(np.zeros(k)))
        np.testing.assert_allclose(tangent.data, f_eta.data - f_zero.data, atol=1e-9)

    def test_directional_derivative_second_order(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(4)
        k = decomp.n_interface
        nu = InterfaceVector(0.3 * rng.standard_normal(k))
        eta = InterfaceVector(rng.standard_normal(k))
        tangent = ws1.dirichlet_tangent_solve(nu, eta)
        errs = []
        for delta in (1e-3, 1e-4):
            shifted = ws1.dirichlet_solve(nu + delta * eta)
            base = ws1.dirichlet_solve(nu)
            errs.append(np.linalg.norm(shifted.data - base.data - delta * tangent.data))
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order > 1.8

    def test_failed_factorization_is_singular_jacobian(self, coarse_setup, monkeypatch):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        nu = InterfaceVector(np.full(decomp.n_interface, 0.1))
        ws.dirichlet_solve(nu)  # warm start: no Newton step, only the tangent block is factored

        def failing_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(subdomain, "splu", failing_splu)
        with pytest.raises(SingularJacobian, match="factorization failed"):
            ws.dirichlet_tangent_solve(nu, nu)


class TestSteklovPoincare:
    def test_sum_vanishes_at_monolithic_trace(self, coarse_setup):
        prob, mesh, decomp, ws1, ws2 = coarse_setup
        ref = solve_monolithic(prob, mesh)
        eta = ref.trace(decomp)
        total = ws1.apply_steklov_poincare(eta) + ws2.apply_steklov_poincare(eta)
        assert total.norm() < 10 * max(ws1.newton_tol, ws2.newton_tol)

    def test_mirror_symmetry(self, coarse_setup):
        # symmetric geometry and data: mirrored traces give mirrored fluxes
        _, _, decomp, ws1, ws2 = coarse_setup
        rng = np.random.default_rng(5)
        eta = InterfaceVector(rng.standard_normal(decomp.n_interface))
        s1 = ws1.apply_steklov_poincare(eta)
        s2 = ws2.apply_steklov_poincare(eta)
        np.testing.assert_allclose(s1.data, s2.data, rtol=5e-2, atol=1e-3)

    def test_single_node_against_dense_reduction(self):
        # 1-interface-node problem: dense brute-force Schur reduction
        prob = linear_problem()
        mesh = build_rect_mesh(1, 1, 0.5)
        decomp = decompose_vertical(mesh, 0.5)
        assert decomp.n_interface == 1
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        dm = decomp.side_dofmap(1)
        schur, const = dense_brute_force(
            prob, mesh, dm, decomp.side_triangles(1)).linear_steklov(dm.n_interior)
        for val in (0.0, 1.0, -0.7):
            got = ws.apply_steklov_poincare(InterfaceVector(np.array([val])))
            np.testing.assert_allclose(got.data, schur @ [val] + const, atol=1e-12)

    def test_monotone_probe(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        op = SteklovOperator(ws1)
        assert monotonicity_probe(op, decomp.n_interface, n_pairs=40, rng=6) >= 0


class TestNeumannSolve:
    def test_round_trip_inverse(self, coarse_setup):
        _, _, decomp, ws1, ws2 = coarse_setup
        rng = np.random.default_rng(7)
        for ws in (ws1, ws2):
            eta = InterfaceVector(0.5 * rng.standard_normal(decomp.n_interface))
            psi = ws.apply_steklov_poincare(eta)
            u = ws.neumann_solve(psi)
            assert np.linalg.norm(ws.trace(u).data - eta.data) < 1e-8

    def test_zero_data(self):
        mesh = build_rect_mesh(2, 1, 0.25)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, zero_data_problem(), 2)
        psi = InterfaceVector(np.zeros(decomp.n_interface), dual=True)
        u = ws.neumann_solve(psi)
        assert np.abs(u.data).max() < 1e-12

    def test_linear_matches_direct_solve(self):
        prob = linear_problem()
        mesh = build_rect_mesh(3, 2, 1 / 2)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, prob, 2)
        dm = decomp.side_dofmap(2)
        oracle = dense_brute_force(prob, mesh, dm, decomp.side_triangles(2))
        jac = oracle.jacobian(np.zeros(dm.n_dofs))
        rhs = -oracle.residual(np.zeros(dm.n_dofs))
        rng = np.random.default_rng(8)
        psi = rng.standard_normal(decomp.n_interface)
        full_rhs = rhs.copy()
        full_rhs[dm.n_interior:] += psi
        expected = np.linalg.solve(jac, full_rhs)
        u = ws.neumann_solve(InterfaceVector(psi, dual=True))
        np.testing.assert_allclose(u.data, expected, atol=1e-9)

    def test_interface_residual_hits_psi(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(9)
        psi = InterfaceVector(0.1 * rng.standard_normal(decomp.n_interface), dual=True)
        u = ws1.neumann_solve(psi)
        r = ws1.asm.residual(u.data, ws1.problem)
        assert np.linalg.norm(r[: ws1.m]) <= ws1.newton_tol
        assert np.linalg.norm(r[ws1.m:] - psi.data) <= ws1.newton_tol

    def test_robin_jacobian_is_assembled_plus_penalty(self, monkeypatch):
        # the Robin solve's Jacobian equals, bit for bit, the assembled one
        # plus s times the embedded interface mass matrix
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, cubic_reaction_problem(), 1)
        jacobians = []
        newton = subdomain.sparse_newton

        def spy(residual, jacobian, x0, *args):
            jacobians.append((x0.copy(), jacobian(x0)))
            return newton(residual, jacobian, x0, *args)

        monkeypatch.setattr(subdomain, "sparse_newton", spy)
        s = 46.0
        ws.robin_solve(InterfaceVector(np.full(ws.k, 0.01), dual=True), s)
        (x, got), = jacobians
        want = ws.asm.jacobian(x, ws.problem) + s * ws._mass_gamma_embedded
        for name in ("data", "indices", "indptr"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestSpDerivative:
    def test_symmetry_on_random_triples(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(10)
        k = decomp.n_interface
        for _ in range(5):
            nu = InterfaceVector(0.3 * rng.standard_normal(k))
            eta = InterfaceVector(rng.standard_normal(k))
            mu = InterfaceVector(rng.standard_normal(k))
            left = ws1.apply_sp_derivative(nu, eta).data @ mu.data
            right = ws1.apply_sp_derivative(nu, mu).data @ eta.data
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))

    def test_linear_problem_equals_schur_complement(self):
        prob = linear_problem()
        mesh = build_rect_mesh(2, 2, 0.5)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        dm = decomp.side_dofmap(1)
        schur, _ = dense_brute_force(
            prob, mesh, dm, decomp.side_triangles(1)).linear_steklov(dm.n_interior)
        rng = np.random.default_rng(11)
        k = decomp.n_interface
        for _ in range(3):
            nu = InterfaceVector(rng.standard_normal(k))
            eta = InterfaceVector(rng.standard_normal(k))
            got = ws.apply_sp_derivative(nu, eta)
            np.testing.assert_allclose(got.data, schur @ eta.data, atol=1e-10)

    def test_finite_difference_second_order(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        rng = np.random.default_rng(12)
        k = decomp.n_interface
        nu = InterfaceVector(0.2 * rng.standard_normal(k))
        eta = InterfaceVector(rng.standard_normal(k))
        deriv = ws1.apply_sp_derivative(nu, eta)
        errs = []
        for delta in (1e-3, 1e-4):
            plus = ws1.apply_steklov_poincare(nu + delta * eta)
            base = ws1.apply_steklov_poincare(nu)
            errs.append(np.linalg.norm(plus.data - base.data - delta * deriv.data))
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order > 1.8


class TestCorrectionSolve:
    def test_zero_flux_gives_zero(self, coarse_setup):
        _, _, decomp, ws1, _ = coarse_setup
        psi = InterfaceVector(np.zeros(decomp.n_interface), dual=True)
        w = ws1.neumann_correction_solve(psi)
        assert np.abs(w.data).max() < 1e-10

    def test_linear_problem_drops_source(self):
        # correction equals the source-free Neumann solve
        prob = linear_problem()
        mesh = build_rect_mesh(2, 2, 0.5)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        dm = decomp.side_dofmap(1)
        jac = dense_brute_force(
            prob, mesh, dm, decomp.side_triangles(1)).jacobian(np.zeros(dm.n_dofs))
        rng = np.random.default_rng(13)
        psi = rng.standard_normal(decomp.n_interface)
        rhs = np.zeros(dm.n_dofs)
        rhs[dm.n_interior:] = psi
        expected = np.linalg.solve(jac, rhs)
        w = ws.neumann_correction_solve(InterfaceVector(psi, dual=True))
        np.testing.assert_allclose(w.data, expected, atol=1e-10)


class TestWorkspaceState:
    def test_newton_counter_accumulates(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        assert ws.newton_iters == 0
        rng = np.random.default_rng(14)
        ws.dirichlet_solve(InterfaceVector(rng.standard_normal(decomp.n_interface)))
        assert ws.newton_iters > 0

    def test_warm_start_reduces_iterations(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 2)
        rng = np.random.default_rng(15)
        eta = InterfaceVector(rng.standard_normal(decomp.n_interface))
        ws.dirichlet_solve(eta)
        cold = ws.newton_iters
        ws.dirichlet_solve(1.0001 * eta)
        warm = ws.newton_iters - cold
        assert warm <= cold

    def test_divergence_reports_history(self):
        # an absurd tolerance forces the budget to run out
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(2, 1, 0.5)
        decomp = decompose_vertical(mesh, 1.0)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1, newton_rtol=1e-30, newton_max=2)
        with pytest.raises(NonConvergence) as info:
            ws.dirichlet_solve(InterfaceVector(np.full(decomp.n_interface, 5.0)))
        assert len(info.value.history) >= 1


def _call_solve(ws, kind):
    k = ws.k
    if kind == "dirichlet":
        return ws.dirichlet_solve(InterfaceVector(np.full(k, 0.1)))
    if kind == "neumann":
        return ws.neumann_solve(InterfaceVector(np.full(k, 0.01), dual=True))
    if kind == "robin":
        return ws.robin_solve(InterfaceVector(np.full(k, 0.01), dual=True), 46.0)
    return ws.neumann_correction_solve(InterfaceVector(np.full(k, 0.01), dual=True))


SOLVE_KINDS = ("dirichlet", "neumann", "robin", "correction")
BAD_NEWTON_SETTINGS = [("newton_rtol", -1e-12), ("newton_rtol", float("nan")),
                       ("newton_rtol", float("inf")), ("newton_max", 0), ("newton_max", -3)]


class TestSolveTolerance:
    @pytest.fixture
    def spy_tols(self, monkeypatch):
        seen = []
        original = subdomain.sparse_newton

        def spy(residual_fn, jacobian_fn, u0, tol, max_iter, *rest):
            seen.append(tol)
            # record the tolerance asked for, but solve to a loose one
            return original(residual_fn, jacobian_fn, u0, max(tol, 1e-8), max_iter, *rest)

        monkeypatch.setattr(subdomain, "sparse_newton", spy)
        return seen

    @pytest.mark.parametrize("kind", SOLVE_KINDS)
    def test_explicit_zero_is_not_unset(self, coarse_setup, spy_tols, kind):
        # a zero relative tolerance is honoured: the workspace asks for 0.0
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1, newton_rtol=0.0)
        assert ws.newton_tol == 0.0
        _call_solve(ws, kind)
        assert spy_tols == [0.0]

    @pytest.mark.parametrize("kind", SOLVE_KINDS)
    def test_none_uses_workspace_tolerance(self, coarse_setup, spy_tols, kind):
        # every solve asks Newton for the workspace's own tolerance
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1, newton_rtol=1e-10)
        _call_solve(ws, kind)
        assert spy_tols == [ws.newton_tol]

    @pytest.mark.parametrize("key, value", BAD_NEWTON_SETTINGS)
    def test_construction_rejects_bad_newton_settings(self, coarse_setup, monkeypatch,
                                                       key, value):
        # rejected before the load scale is assembled
        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before the settings were checked")

        prob, mesh, decomp, _, _ = coarse_setup
        monkeypatch.setattr(Assembler, "residual", no_assembly)
        with pytest.raises(ValueError, match="newton_max|tolerance"):
            SubdomainWorkspace(mesh, decomp, prob, 1, **{key: value})

    def test_interface_form_inverts_at_side_2_tolerance(self, coarse_setup, monkeypatch):
        # side 2's Neumann solves run at its own tolerance and budget, not at
        # the engine's defaults or the tighter side's tolerance
        prob, mesh, decomp, _, _ = coarse_setup
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2, newton_rtol=1e-10, newton_max=30)
        assert ws2.newton_tol > ws1.newton_tol
        seen = []
        original = subdomain.sparse_newton

        def spy(residual_fn, jacobian_fn, u0, tol, max_iter, held, *rest):
            if held is ws2._held["neumann"]:
                seen.append((tol, max_iter))
            return original(residual_fn, jacobian_fn, u0, tol, max_iter, held, *rest)

        monkeypatch.setattr(subdomain, "sparse_newton", spy)
        cfg = DNConfig(s=0.36, formulation="interface-form", max_iter=3, stop_tol=1e-300)
        run_dirichlet_neumann(cfg, ws1, ws2)
        assert seen == [(ws2.newton_tol, 30)] * 3


class TestSolveRepeat:
    @pytest.mark.parametrize("kind", SOLVE_KINDS)
    def test_repeat_is_free_and_unaffected_by_caller(self, coarse_setup, kind):
        # the warm start must not share memory with the returned field
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        u = _call_solve(ws, kind)
        first = u.data.copy()
        steps = ws.newton_iters
        u.data[:] = 7.0
        again = _call_solve(ws, kind)
        assert ws.newton_iters == steps
        assert again.data.tobytes() == first.tobytes()

    def test_last_neumann_is_a_copy(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        psi = InterfaceVector(np.full(decomp.n_interface, 0.01), dual=True)
        first = ws.neumann_solve(psi).data.copy()
        steps = ws.newton_iters
        ws.last_neumann.data[:] = 7.0
        again = ws.neumann_solve(psi)
        assert ws.newton_iters == steps
        assert again.data.tobytes() == first.tobytes()
        assert ws.last_neumann.data.tobytes() == first.tobytes()


class TestSecantStart:
    @pytest.fixture
    def starts(self, monkeypatch):
        # records (start, Newton steps) of every workspace solve
        seen = []
        original = subdomain.sparse_newton

        def spy(residual_fn, jacobian_fn, u0, *rest):
            start = np.array(u0, copy=True)
            x, iters, rnorm = original(residual_fn, jacobian_fn, u0, *rest)
            seen.append((start, iters))
            return x, iters, rnorm

        monkeypatch.setattr(subdomain, "sparse_newton", spy)
        return seen

    def test_relaxed_dirichlet_neumann_trace_starts_near_its_solution(self, starts):
        # one Dirichlet-Neumann step on side 2 near the converged trace, where
        # the relaxed iteration contracts steadily
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(3, 2, 1 / 16)
        decomp = decompose_vertical(mesh, 1.5)
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2)
        s = 0.36
        trace = solve_monolithic(prob, mesh).trace(decomp).data
        rng = np.random.default_rng(16)
        eta = InterfaceVector(trace * (1.0 + 1e-3 * rng.standard_normal(decomp.n_interface)))
        r1 = ws1.interface_residual(ws1.dirichlet_solve(eta))
        u_dirichlet = ws2.dirichlet_solve(eta)
        tau = ws2.trace(ws2.neumann_solve(-1.0 * r1))
        eta = s * tau + (1.0 - s) * eta
        ws2.dirichlet_solve(eta)
        start, iters = starts[-1]
        m = ws2.m
        plain = np.concatenate([u_dirichlet.interior, eta.data])
        secant = np.concatenate([start, eta.data])
        plain_res = np.linalg.norm(ws2.asm.residual(plain, prob)[:m])
        secant_res = np.linalg.norm(ws2.asm.residual(secant, prob)[:m])
        assert secant_res <= 0.1 * plain_res
        assert iters <= 1

    def test_failed_solve_records_nothing(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        k = decomp.n_interface
        ws.dirichlet_solve(InterfaceVector(np.full(k, 0.1)))
        ws.neumann_solve(InterfaceVector(np.full(k, 0.01), dual=True))
        ws.neumann_solve(InterfaceVector(np.full(k, 0.02), dual=True))
        before = dict(ws._pairs)
        ws.newton_max = 0
        with pytest.raises(NonConvergence):
            ws.neumann_solve(InterfaceVector(np.full(k, 0.5), dual=True))
        assert all(ws._pairs[kind] is pairs for kind, pairs in before.items())

    def test_correction_fields_stay_out_of_the_dirichlet_pairs(self, coarse_setup, starts):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        k = decomp.n_interface
        eta = InterfaceVector(np.full(k, 0.1))
        u = ws.dirichlet_solve(eta)
        ws.neumann_correction_solve(InterfaceVector(np.full(k, 0.3), dual=True))
        assert [pair[1].tobytes() for pair in ws._pairs["dirichlet"]] == [u.data.tobytes()]
        steps = ws.newton_iters
        assert ws.dirichlet_solve(eta).data.tobytes() == u.data.tobytes()
        assert ws.newton_iters == steps

    def test_new_robin_parameter_drops_the_robin_pairs(self, coarse_setup, starts):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        k = decomp.n_interface
        for value in (0.01, 0.02):
            ws.robin_solve(InterfaceVector(np.full(k, value), dual=True), 46.0)
        assert len(ws._pairs["robin"]) == 2
        ws.robin_solve(InterfaceVector(np.full(k, 0.03), dual=True), 10.0)
        assert not starts[-1][0].any()
        assert len(ws._pairs["robin"]) == 1

    def test_equal_data_start_at_the_newer_field(self):
        rng = np.random.default_rng(3)
        u_a, u_b = rng.standard_normal(6), rng.standard_normal(6)
        # equal in value, not in bytes: the secant has no direction
        d_a, d_b = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        start = subdomain._secant_start(((d_a, u_a), (d_b, u_b)), np.array([0.5, 2.0]), 6)
        assert start.tobytes() == u_b.tobytes()
        assert start is not u_b

    def test_prediction_is_exact_for_affine_data(self):
        # fields affine in the datum are predicted exactly along the secant
        rng = np.random.default_rng(4)
        a, c = rng.standard_normal((5, 3)), rng.standard_normal(5)
        d_a, d_b = rng.standard_normal(3), rng.standard_normal(3)
        pairs = ((d_a, a @ d_a + c), (d_b, a @ d_b + c))
        for t in (-0.64, 0.5, 2.0):
            d = d_b + t * (d_b - d_a)
            np.testing.assert_allclose(subdomain._secant_start(pairs, d, 5), a @ d + c,
                                       rtol=0, atol=1e-12)
        assert not subdomain._secant_start((), d_a, 5).any()
        assert subdomain._secant_start(pairs[:1], d_b, 5).tobytes() == pairs[0][1].tobytes()


class TestHeldFactor:
    def test_nearby_solve_reuses_the_factor(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 2)
        eta = InterfaceVector(np.full(decomp.n_interface, 0.1))
        ws.dirichlet_solve(eta)
        steps, factorizations = ws.newton_iters, ws.factorizations
        assert 0 < factorizations < steps
        u = ws.dirichlet_solve(1.0001 * eta)
        assert ws.newton_iters > steps
        assert ws.factorizations == factorizations
        assert np.linalg.norm(ws.asm.residual(u.data, prob)[: ws.m]) <= ws.newton_tol

    def test_stale_factor_forces_refactor(self, coarse_setup):
        # the reaction slope 30 u^2 at trace 5 is far from its value at trace 0,
        # so the held factor's chord step cannot contract enough
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        ws.dirichlet_solve(InterfaceVector(np.zeros(decomp.n_interface)))
        held = ws._held["dirichlet"]
        stale = held.solve
        factorizations = ws.factorizations
        u = ws.dirichlet_solve(InterfaceVector(np.full(decomp.n_interface, 5.0)))
        assert ws.factorizations > factorizations
        assert held.solve is not stale
        assert np.linalg.norm(ws.asm.residual(u.data, prob)[: ws.m]) <= ws.newton_tol

    def test_kinds_hold_separate_factors(self, coarse_setup):
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        for kind in SOLVE_KINDS:
            before = ws.factorizations
            _call_solve(ws, kind)
            assert ws.factorizations > before
            assert ws._held[kind].solve is not None


class TestInterfaceProblem:
    def test_building_it_takes_no_newton_step(self, coarse_setup):
        # the dimension check must not apply the operators: that is a solve
        prob, mesh, decomp, _, _ = coarse_setup
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2)
        k = decomp.n_interface
        SplittingProblem(SteklovOperator(ws1), SteklovOperator(ws2), np.zeros(k))
        with pytest.raises(ValueError, match="dimension"):
            SplittingProblem(SteklovOperator(ws1), SteklovOperator(ws2), np.zeros(k + 1))
        assert ws1.newton_iters == ws2.newton_iters == 0
        assert ws1.factorizations == ws2.factorizations == 0

    def test_correction_problem_is_built_once(self, coarse_setup, monkeypatch):
        # one zero-source callable per workspace, so its load is integrated once
        calls = []

        def no_source(x, y):
            calls.append(1)
            return np.zeros_like(x)

        monkeypatch.setattr(subdomain, "_no_source", no_source)
        prob, mesh, decomp, _, _ = coarse_setup
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        for value in (0.01, 0.02):
            ws.neumann_correction_solve(
                InterfaceVector(np.full(decomp.n_interface, value), dual=True))
        assert ws.newton_iters > 0
        assert len(calls) == 1


class _ForwardingLU:
    """Stand-in for a factor that forwards every attribute to it, as a
    tracer's wrapper of ``splu``'s result does."""

    def __init__(self, lu):
        self._lu = lu
        self.solve = lambda b: lu.solve(b)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _assert_solves(a, b, expected):
    x = subdomain.splu(a).solve(b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


class TestFactorization:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
           density=st.floats(0.0, 0.3),
           case=st.sampled_from(["spd", "indefinite", "nonsymmetric"]))
    def test_banded_solve_matches_dense(self, seed, n, density, case):
        # structurally symmetric pattern, strictly diagonally dominant values:
        # symmetric ones with a positive diagonal are SPD, and flipping one
        # diagonal sign makes them indefinite but nonsingular
        assume(n > 1 or case != "nonsymmetric")
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < density
        mask[0, n - 1] = True
        mask |= mask.T
        np.fill_diagonal(mask, True)
        dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
        if case == "nonsymmetric":
            dense[0, n - 1] = dense[n - 1, 0] + 1.0
        else:
            dense = np.triu(dense) + np.triu(dense, 1).T
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        if case == "indefinite":
            i = rng.integers(n)
            dense[i, i] = -dense[i, i]
        a = sp.csr_matrix((dense[mask], np.nonzero(mask)), shape=(n, n))
        order = subdomain.BandOrder(a)
        assert order.banded and order.transpose is not None
        b = rng.standard_normal(n)
        lu = subdomain.splu(a)
        if case == "spd":
            assert isinstance(lu, subdomain.BandedCholesky)
            assert type(lu.nnz) is int and lu.nnz == (order.k + 1) * n
        else:
            assert isinstance(lu, SuperLU)
        expected = np.linalg.solve(dense, b)
        for matrix in (a, a.tocsc()):
            _assert_solves(matrix, b, expected)

    def test_widest_band_matches_dense(self):
        # an SPD band matrix at half-bandwidth BAND_MAX still takes the Cholesky path
        k = subdomain.BAND_MAX
        n = 3 * k
        rng = np.random.default_rng(k)
        dense = np.zeros((n, n))
        for d in range(1, k + 1):
            off = rng.standard_normal(n - d)
            dense += np.diag(off, d) + np.diag(off, -d)
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
        a = sp.csr_matrix(dense)
        order = subdomain.BandOrder(a)
        assert order.k == k and order.banded
        assert isinstance(subdomain.splu(a, order), subdomain.BandedCholesky)
        b = rng.standard_normal(n)
        _assert_solves(a, b, np.linalg.solve(dense, b))

    def test_keeps_read_only_pattern_and_copies_writeable_one(self):
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        asm = Assembler(mesh, decomp.side_triangles(1), decomp.side_dofmap(1))
        shared = subdomain.BandOrder(asm.geometry.pattern())
        assert np.shares_memory(shared.indices, asm._indices)
        assert np.shares_memory(shared.indptr, asm._indptr)
        jac = asm.jacobian(np.zeros(asm.n_dofs), cubic_reaction_problem())
        own = subdomain.BandOrder(jac)
        assert not np.shares_memory(own.indices, jac.indices)
        assert not np.shares_memory(own.indptr, jac.indptr)
        assert shared.fits(jac) and own.fits(jac)
        # a later change to the matrix's pattern leaves its order's copy as it was
        jac.indices[[0, 1]] = jac.indices[[1, 0]]
        assert not own.fits(jac) and own.fits(asm.geometry.pattern())

    def test_unsymmetric_pattern_has_no_transpose(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]))
        order = subdomain.BandOrder(a)
        assert order.banded and order.transpose is None
        assert isinstance(subdomain.splu(a, order), SuperLU)

    def test_exactly_singular_is_singular_jacobian(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        assert subdomain.BandOrder(a).banded
        with pytest.raises(SingularJacobian, match="factorization failed"):
            subdomain.HeldFactor().refactor(a)

    def test_wide_pattern_uses_superlu(self):
        n = subdomain.BAND_MAX + 2
        rng = np.random.default_rng(8)
        dense = rng.standard_normal((n, n)) + n * np.eye(n)
        a = sp.csr_matrix(dense)
        order = subdomain.BandOrder(a)
        assert order.k > subdomain.BAND_MAX and not order.banded
        lu = subdomain.splu(a)
        assert isinstance(lu, SuperLU)
        b = rng.standard_normal(n)
        _assert_solves(a, b, np.linalg.solve(dense, b))

    @pytest.mark.parametrize("geometry", ["vertical", "staircase"])
    def test_subdomain_jacobians_match_superlu(self, geometry):
        # every Jacobian ddsemi factors is SPD, so each one must take the
        # Cholesky path: a silent fallback to SuperLU would fail here
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5) if geometry == "vertical" else \
            decompose_staircase(mesh, [(1.5, 0), (1.5, 1), (2, 1), (2, 2)])
        rng = np.random.default_rng(9)
        matrices = []
        for prob in (cubic_reaction_problem(), p_laplace_problem()):
            for side in (1, 2):
                dm = decomp.side_dofmap(side)
                asm = Assembler(mesh, decomp.side_triangles(side), dm)
                jac = asm.jacobian(rng.standard_normal(asm.n_dofs), prob)
                m = dm.n_interior
                penalty = sp.block_diag([sp.csr_matrix((m, m)),
                                         interface_mass_matrix(decomp)], format="csr")
                matrices += [jac[:m, :m], jac + 46.0 * penalty]
            glob = Assembler(mesh, np.arange(mesh.n_triangles), mesh_global_dofmap(mesh))
            matrices.append(glob.jacobian(rng.standard_normal(glob.n_dofs), prob))
        for a in matrices:
            assert subdomain.BandOrder(a).banded
            assert isinstance(subdomain.splu(a), subdomain.BandedCholesky)
            b = rng.standard_normal(a.shape[0])
            expected = subdomain.superlu(a.tocsc(), permc_spec=subdomain.ORDERING).solve(b)
            _assert_solves(a, b, expected)

    def test_indefinite_jacobian_falls_back_to_superlu(self, monkeypatch):
        # beta_y < 0 breaks the hypotheses: the interior block K - 10 M is
        # indefinite, so pbtrf meets a non-positive pivot and SuperLU solves
        infos, factors = [], []
        pbtrf, splu = subdomain._pbtrf, subdomain.splu

        def spy_pbtrf(*args, **kwargs):
            out = pbtrf(*args, **kwargs)
            infos.append(out[1])
            return out

        def spy_splu(*args, **kwargs):
            factors.append(splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(subdomain, "_pbtrf", spy_pbtrf)
        monkeypatch.setattr(subdomain, "splu", spy_splu)
        prob = indefinite_problem()
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        eta = np.random.default_rng(12).standard_normal(decomp.n_interface)
        u = ws.dirichlet_solve(InterfaceVector(eta))
        assert infos and all(info > 0 for info in infos)
        assert factors and all(isinstance(lu, SuperLU) for lu in factors)
        # the problem is linear: residual(u) = jac @ u + residual(0)
        zero, m = np.zeros(ws.asm.n_dofs), ws.m
        jac = ws.asm.jacobian(zero, prob).toarray()
        assert np.linalg.eigvalsh(jac[:m, :m]).min() < 0
        rhs = -ws.asm.residual(zero, prob)
        ui = np.linalg.solve(jac[:m, :m], rhs[:m] - jac[:m, m:] @ eta)
        np.testing.assert_allclose(u.interior, ui, atol=1e-10)
        assert np.linalg.norm(ws.asm.residual(u.data, prob)[:m]) <= ws.newton_tol

    def test_changed_pattern_recomputes_the_order(self):
        held = subdomain.HeldFactor()
        n = 6
        tri = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        penta = sp.diags([-1.0, -1.0, 6.0, -1.0, -1.0], [-2, -1, 0, 1, 2], shape=(n, n),
                         format="csr")
        b = np.arange(1.0, n + 1)
        held.refactor(tri)
        order = held.order
        held.refactor(2.0 * tri)  # same pattern, new values
        assert held.order is order
        np.testing.assert_allclose(held.solve(b), np.linalg.solve(2.0 * tri.toarray(), b),
                                   rtol=1e-14)
        held.refactor(penta)
        assert held.order is not order
        assert held.order.fits(penta) and not held.order.fits(tri)
        assert held.order.k == 2
        np.testing.assert_allclose(held.solve(b), np.linalg.solve(penta.toarray(), b),
                                   rtol=1e-14)
        assert held.factorizations == 3

    def test_trim_follows_the_kind_of_the_freed_factor(self, monkeypatch):
        # a banded order can hold a SuperLU fallback; only that one is trimmed after
        trims = []
        monkeypatch.setattr(subdomain, "_malloc_trim", trims.append)
        n = 6
        spd = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        indefinite = spd - sp.diags(8.0 * (np.arange(n) == 2), format="csr")
        splu = subdomain.splu
        # each factor as it is, then behind a forwarding stand-in, as a tracer installs it
        for factor in (splu, lambda a, order: _ForwardingLU(splu(a, order))):
            monkeypatch.setattr(subdomain, "splu", factor)
            held, trims[:] = subdomain.HeldFactor(), []
            held.refactor(spd)
            held.refactor(indefinite)
            assert held.order.banded and trims == []
            held.refactor(spd)
            assert trims == [0]
            held.refactor(spd)
            assert trims == [0]

    def test_first_factor_on_a_wide_order_is_trimmed_before(self, monkeypatch):
        # with no factor to free, the order decides: SuperLU's first factor
        # is preceded by a trim, the banded Cholesky's is not
        trims = []
        monkeypatch.setattr(subdomain, "_malloc_trim", trims.append)
        spd = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(6, 6), format="csr")
        held = subdomain.HeldFactor()
        held.refactor(spd)
        assert held.order.banded and trims == []
        monkeypatch.setattr(subdomain, "BAND_MAX", 0)
        held = subdomain.HeldFactor()
        held.refactor(spd)
        assert not held.order.banded and trims == [0]
        held.refactor(spd)
        assert trims == [0, 0]

    def test_reference_solve_builds_one_order(self, monkeypatch):
        # every Newton step of the reference solve refactors one fixed pattern
        builds = []

        class CountedOrder(subdomain.BandOrder):
            def __init__(self, a):
                builds.append(a.shape)
                super().__init__(a)

        monkeypatch.setattr(subdomain, "BandOrder", CountedOrder)
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 8)
        ref = solve_monolithic(prob, mesh)
        assert ref.newton_iterations > 1
        assert len(builds) == 1
        # an order built afresh for each step gives the same field bit for bit
        monkeypatch.setattr(oracle, "shared_order", lambda asm: None)
        monkeypatch.setattr(CountedOrder, "fits", lambda self, a: False)
        assert solve_monolithic(prob, mesh).field.data.tobytes() == ref.field.data.tobytes()
        assert len(builds) == 1 + ref.newton_iterations

    def test_fresh_workspaces_reuse_the_orders(self, monkeypatch):
        # the band orders live in the side's shared geometry: a second DN run
        # on fresh workspaces of the same decomposition builds none, and every
        # solve kind starts from the order of its pattern
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        ref = solve_monolithic(prob, mesh)
        cfg = DNConfig(s=0.36, stop_tol=1e-10)
        first = [SubdomainWorkspace(mesh, decomp, prob, side) for side in (1, 2)]
        done = run_dirichlet_neumann(cfg, *first, ref)
        builds = []

        class CountedOrder(subdomain.BandOrder):
            def __init__(self, a):
                builds.append(a.shape)
                super().__init__(a)

        monkeypatch.setattr(subdomain, "BandOrder", CountedOrder)
        second = [SubdomainWorkspace(mesh, decomp, prob, side) for side in (1, 2)]
        again = run_dirichlet_neumann(cfg, *second, ref)
        assert builds == []
        assert again.converged and again.factorizations == done.factorizations > 0
        assert again.errors.tobytes() == done.errors.tobytes()
        ws1, ws2 = second
        for ws, kind in ((ws1, "dirichlet"), (ws2, "dirichlet"), (ws2, "neumann")):
            assert ws._held[kind].order is first[ws.side - 1]._held[kind].order
        assert ws2._held["dirichlet"].order.k < ws2._held["neumann"].order.k

    def test_shared_order_function_is_called_once(self):
        calls = []
        order = subdomain.BandOrder(_spd_band_matrix())
        held = subdomain.HeldFactor(lambda: calls.append(1) or order)
        for scale in (1.0, 2.0, 3.0):
            held.refactor(scale * _spd_band_matrix())
        assert calls == [1] and held.order is order and held.factorizations == 3

    def test_first_robin_factor_misses_the_shared_order(self, monkeypatch):
        # jac + robin_s * M is a sparse sum, which drops the exact zeros of the
        # Jacobian at u = 0: the first Robin factorization of a side needs an
        # order of its own pattern, and the next one, at a nonzero field,
        # another one of the full pattern (not the shared object), which
        # serves from then on
        prob, mesh = cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 12)
        decomp = decompose_vertical(mesh, 1.5)
        ws = SubdomainWorkspace(mesh, decomp, prob, 1)
        pattern = ws.asm.geometry.pattern()
        shared = subdomain.shared_order(ws.asm)()
        builds = []

        class CountedOrder(subdomain.BandOrder):
            def __init__(self, a):
                builds.append(a.nnz)
                super().__init__(a)

        monkeypatch.setattr(subdomain, "BandOrder", CountedOrder)
        g = InterfaceVector(np.full(decomp.n_interface, 0.3), dual=True)
        u = ws.robin_solve(g, 2.0)
        zero = ws.asm.jacobian(np.zeros(ws.asm.n_dofs), prob) + 2.0 * ws._mass_gamma_embedded
        assert zero.nnz < pattern.nnz
        assert builds == [zero.nnz, pattern.nnz]
        held = ws._held["robin"]
        assert held.order.fits(pattern) and held.order is not shared
        factorizations = held.factorizations
        ws.robin_solve(1.5 * g, 2.0)
        assert held.factorizations > factorizations and len(builds) == 2
        r = ws.asm.residual(u.data, prob)
        r[ws.m:] += 2.0 * (ws.mass_gamma @ u.data[ws.m:]) - g.data
        assert np.linalg.norm(r) <= ws.newton_tol


def _spd_band_matrix(n=40):
    return sp.diags([-1.0, -1.0, 4.5, -1.0, -1.0], [-3, -1, 0, 1, 3], shape=(n, n),
                    format="csr")


needs_blas_threads = pytest.mark.skipif(subdomain._BLAS_THREADS is None,
                                        reason="scipy's OpenBLAS thread count is not reachable")


@pytest.fixture
def blas_count():
    """The OpenBLAS thread count getter, with the count set to 2 for the test
    and put back after it."""
    get, set_ = subdomain._BLAS_THREADS
    before = get()
    set_(2)
    yield get
    set_(before)


@pytest.fixture
def counts_inside(monkeypatch, blas_count):
    """Thread counts seen inside each banded LAPACK call."""
    seen = []
    for name in ("_pbtrf", "_pbtrs"):
        def spy(*args, _call=getattr(subdomain, name), **kwargs):
            seen.append(blas_count())
            return _call(*args, **kwargs)
        monkeypatch.setattr(subdomain, name, spy)
    return seen


@needs_blas_threads
class TestBlasThreadScope:
    def test_count_is_one_inside_and_restored_after(self, blas_count, counts_inside):
        a = _spd_band_matrix()
        b = np.arange(1.0, a.shape[0] + 1)
        lu = subdomain.splu(a)
        assert isinstance(lu, subdomain.BandedCholesky)
        assert blas_count() == 2
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(a.toarray(), b), rtol=1e-12)
        assert blas_count() == 2
        assert counts_inside == [1, 1]

    def test_count_is_restored_when_the_call_raises(self, monkeypatch, blas_count):
        def failing(*args, **kwargs):
            assert blas_count() == 1
            raise ValueError("LAPACK failed")

        monkeypatch.setattr(subdomain, "_pbtrf", failing)
        with pytest.raises(ValueError, match="LAPACK failed"):
            subdomain.splu(_spd_band_matrix())
        assert blas_count() == 2

    def test_one_thread_until_the_last_user_leaves(self, blas_count):
        # nested scopes account exactly as overlapping worker threads do
        with subdomain._one_blas_thread:
            with subdomain._one_blas_thread:
                assert blas_count() == 1
            assert blas_count() == 1
        assert blas_count() == 2

    def test_overlapping_threads_restore_the_count(self, blas_count, counts_inside):
        # more threads than cores and a short switch interval, so that scopes
        # overlap often; a lost update of the shared depth would restore the
        # count inside another thread's call or leave it at one
        a = _spd_band_matrix(400)
        b = np.ones(a.shape[0])
        expected = np.linalg.solve(a.toarray(), b)
        start = threading.Barrier(4)
        errors = []

        def work():
            try:
                start.wait(timeout=60)
                for _ in range(30):
                    np.testing.assert_allclose(subdomain.splu(a).solve(b), expected,
                                               rtol=1e-12)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert blas_count() == 2
        assert len(counts_inside) == 240 and set(counts_inside) == {1}


def test_factor_and_solve_without_blas_thread_control(monkeypatch):
    monkeypatch.setattr(subdomain, "_BLAS_THREADS", None)
    a = _spd_band_matrix()
    b = np.arange(1.0, a.shape[0] + 1)
    lu = subdomain.splu(a)
    assert isinstance(lu, subdomain.BandedCholesky)
    np.testing.assert_allclose(lu.solve(b), np.linalg.solve(a.toarray(), b), rtol=1e-12)
