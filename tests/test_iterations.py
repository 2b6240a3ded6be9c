import time
from dataclasses import asdict, replace
from functools import partial

import numpy as np
import pytest

from ddsemi import assembly, iterations
from ddsemi.assembly import Assembler
from ddsemi.iterations import (DNConfig, EquivalenceViolation, IterationRow,
                               MeshMismatch, MethodReport, NNConfig,
                               RelativeFieldError, RRConfig,
                               run_dirichlet_neumann, run_neumann_neumann,
                               run_robin_robin, verify_lemma_equivalence)
from ddsemi.mesh import build_rect_mesh, decompose_vertical
from ddsemi.oracle import dense_brute_force, solve_monolithic
from ddsemi.problems import cubic_reaction_problem, linear_problem
from ddsemi.subdomain import InterfaceVector, SubdomainWorkspace


@pytest.fixture(scope="module")
def cubic_setup():
    prob = cubic_reaction_problem()
    mesh = build_rect_mesh(3, 2, 1 / 8)
    decomp = decompose_vertical(mesh, 1.5)
    ref = solve_monolithic(prob, mesh)
    return prob, mesh, decomp, ref


def fresh_workspaces(prob, mesh, decomp):
    return (SubdomainWorkspace(mesh, decomp, prob, 1),
            SubdomainWorkspace(mesh, decomp, prob, 2))


def dense_side_steklov(prob, mesh, decomp, side):
    dm = decomp.side_dofmap(side)
    oracle = dense_brute_force(prob, mesh, dm, decomp.side_triangles(side))
    return oracle.linear_steklov(dm.n_interior)


@pytest.mark.parametrize("cls, own", [
    (DNConfig, {"s": 0.36}),
    (RRConfig, {"s": 46.0}),
    (NNConfig, {"s1": 0.02, "s2": 0.02}),
])
def test_method_configs_share_one_base(cls, own):
    cfg = cls(**own)
    assert isinstance(cfg, iterations.MethodConfig)
    assert (cfg.eta0, cfg.max_iter, cfg.stop_tol) == (None, 200, 1e-10)
    assert replace(cfg, max_iter=7, stop_tol=1e-300).max_iter == 7
    for bad, message in (({"stop_tol": 0.0}, "stop_tol must be positive"),
                         ({"stop_tol": float("nan")}, "stop_tol must be positive"),
                         ({"max_iter": 0}, "max_iter must be at least 1"),
                         ({key: -1.0 for key in own}, "must be positive")):
        with pytest.raises(ValueError, match=message):
            cls(**{**own, **bad})


class TestComputeError:
    def test_reference_gives_zero(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        err = RelativeFieldError(mesh, decomp, ref)(ref.restrict(decomp, 1),
                                                    ref.restrict(decomp, 2))
        assert err == 0.0

    def test_doubled_reference_gives_one(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        u1 = ref.restrict(decomp, 1)
        u2 = ref.restrict(decomp, 2)
        u1.data *= 2
        u2.data *= 2
        err = RelativeFieldError(mesh, decomp, ref)(u1, u2)
        assert abs(err - 1.0) < 1e-13

    def test_known_bump_ratio(self, cubic_setup):
        # oracle: dense H1 quadratic forms of the perturbation
        prob, mesh, decomp, ref = cubic_setup
        rng = np.random.default_rng(0)
        meter = RelativeFieldError(mesh, decomp, ref)
        u1 = ref.restrict(decomp, 1)
        u2 = ref.restrict(decomp, 2)
        bump = rng.standard_normal(len(u1.data))
        u1.data = u1.data + bump
        expected = meter.side_norm(1, bump) / (
            meter.side_norm(1, ref.restrict(decomp, 1).data)
            + meter.side_norm(2, ref.restrict(decomp, 2).data))
        assert abs(meter(u1, u2) - expected) < 1e-13

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_meter_on_workspace_assemblers(self, cubic_setup, monkeypatch, degree):
        # the meter shares the workspaces' geometries, and with them their H1
        # Gram values, only at its own degree, and its errors are those of a
        # meter built alone
        prob, mesh, decomp, ref = cubic_setup
        own = RelativeFieldError(mesh, decomp, ref)
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1, degree)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2, degree)
        built = []

        class Counted(assembly.Geometry):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(assembly, "Geometry", Counted)
        shared = RelativeFieldError(mesh, decomp, ref)
        assert len(built) == (0 if degree == 4 else 2)
        etas = []
        rep = run_dirichlet_neumann(DNConfig(s=0.36, max_iter=2), ws1, ws2, ref,
                                    on_step=lambda n, eta: etas.append(eta))
        assert len(built) == (0 if degree == 4 else 4)
        for a, b in zip(shared._h1, own._h1):
            assert a.data.tobytes() == b.data.tobytes()
        rng = np.random.default_rng(1)
        u1, u2 = ref.restrict(decomp, 1), ref.restrict(decomp, 2)
        u1.data = u1.data + 0.1 * rng.standard_normal(len(u1.data))
        assert shared(u1, u2) == own(u1, u2)
        # the last row pairs side 1's constrained solve at the trace with side 2's Neumann field
        assert rep.errors[-1] == own(ws1.dirichlet_solve(InterfaceVector(etas[-1])),
                                     ws2.last_neumann)

    def test_mesh_mismatch(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        other = build_rect_mesh(3, 2, 1 / 4)
        other_d = decompose_vertical(other, 1.5)
        with pytest.raises(MeshMismatch):
            RelativeFieldError(other, other_d, ref)


class TestMethodReport:
    def synthetic(self):
        rows = [IterationRow(n, 0.5 ** n, 0.4 ** n, 2, 3, 0.01) for n in range(40)]
        return MethodReport("dn", rows, "converged")

    def test_fitted_factor_recovers_ratio(self):
        rep = self.synthetic()
        assert abs(rep.fitted_factor() - 0.5) < 1e-12

    def test_iterations_to(self):
        rep = self.synthetic()
        assert rep.iterations_to(1e-6) == 20
        assert rep.iterations_to(1e-30) is None

    def test_error_ratios_band(self):
        rep = self.synthetic()
        ratios = rep.error_ratios(start=5, floor=1e-10)
        assert np.allclose(ratios, 0.5)

    def test_csv_schema(self):
        rep = self.synthetic()
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "n,error,residual,newton1,newton2,seconds"
        assert len(lines) == 41
        cells = lines[1].split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == 1.0

    def test_csv_blank_error_without_reference(self):
        rows = [IterationRow(0, float("nan"), 1.0, 1, 1, 0.0)]
        assert MethodReport("dn", rows).to_csv().splitlines()[1].split(",")[1] == ""

    def test_summary_fields(self):
        rep = self.synthetic()
        summary = rep.summary(h=0.125, s=0.36)
        for key in ("method", "h", "s", "iterations", "final_error",
                    "fitted_L", "converged", "non_converged", "termination"):
            assert key in summary
        assert summary["converged"] is True
        assert summary["non_converged"] is False

    def test_to_json_round_trip(self):
        import json

        rep = self.synthetic()
        doc = json.loads(rep.to_json(h=0.125, s=0.36))
        assert doc["method"] == "dn"
        assert len(doc["rows"]) == 40
        assert doc["rows"][3]["error"] == 0.5 ** 3


class TestDirichletNeumann:
    def test_fixed_point_stays_at_solver_tolerance(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        cfg = DNConfig(s=0.36, eta0=ref.trace(decomp), max_iter=10, stop_tol=1e-11)
        rep = run_dirichlet_neumann(cfg, ws1, ws2, ref)
        assert rep.converged
        assert (rep.errors < 1e-9).all()

    def test_linear_problem_matches_dense_interface_recursion(self):
        # oracle: dense Schur-complement recursion of the interface update
        prob = linear_problem()
        mesh = build_rect_mesh(1, 1, 0.25)
        decomp = decompose_vertical(mesh, 0.5)
        s1, c1 = dense_side_steklov(prob, mesh, decomp, 1)
        s2, c2 = dense_side_steklov(prob, mesh, decomp, 2)
        s = 0.4
        eta = np.zeros(decomp.n_interface)
        expected = [eta.copy()]
        for _ in range(12):
            psi = -(s1 @ eta + c1)
            eta = (1 - s) * eta + s * np.linalg.solve(s2, psi - c2)
            expected.append(eta.copy())

        for formulation in ("subdomain-form", "interface-form"):
            ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
            seen = []
            cfg = DNConfig(s=s, max_iter=12, stop_tol=1e-300, formulation=formulation)
            run_dirichlet_neumann(cfg, ws1, ws2, on_step=lambda n, v: seen.append(v))
            assert len(seen) == 13
            for got, want in zip(seen, expected):
                assert np.linalg.norm(got - want) < 1e-10

    def test_converges_with_linear_rate(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        cfg = DNConfig(s=0.36, max_iter=100, stop_tol=1e-12)
        rep = run_dirichlet_neumann(cfg, ws1, ws2, ref)
        assert rep.converged
        assert rep.final_error < 1e-10
        factor = rep.fitted_factor()
        assert 0 < factor < 1
        ratios = rep.error_ratios(start=5, floor=1e-9)
        assert np.all(np.abs(ratios - factor) <= 0.1 * factor)

    def test_divergence_flagged_for_large_s(self):
        # linear problem keeps the inner solves exact while the outer
        # iteration diverges
        prob = linear_problem()
        mesh = build_rect_mesh(2, 2, 0.25)
        decomp = decompose_vertical(mesh, 1.0)
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        cfg = DNConfig(s=1.9, max_iter=2000, stop_tol=1e-12)
        rep = run_dirichlet_neumann(cfg, ws1, ws2)
        assert rep.termination == "diverged"

    def test_newton_counts_recorded(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        rep = run_dirichlet_neumann(DNConfig(s=0.36, max_iter=5, stop_tol=1e-300),
                                    ws1, ws2, ref)
        assert all(row.newton1 >= 0 for row in rep.rows)
        assert sum(row.newton2 for row in rep.rows) > 0
        assert [row.n for row in rep.rows] == list(range(len(rep.rows)))


class TestProblemUntouched:
    def test_dn_run_leaves_problem_unchanged(self, cubic_setup):
        _, mesh, decomp, ref = cubic_setup
        prob = cubic_reaction_problem()
        before = asdict(prob)
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        run_dirichlet_neumann(DNConfig(s=0.36, max_iter=3), ws1, ws2, ref)
        assert asdict(prob) == before
        assert ws1.asm.observed["alpha_min"] == 1.0


class TestRowTiming:
    @pytest.mark.parametrize("run, cfg", [
        (run_dirichlet_neumann, DNConfig(s=0.36, max_iter=2, stop_tol=1e-300)),
        (run_robin_robin, RRConfig(s=46.0, max_iter=2, stop_tol=1e-300)),
        (run_neumann_neumann, NNConfig(s1=0.02, s2=0.02, max_iter=2, stop_tol=1e-300)),
    ])
    def test_each_row_billed_its_own_meter_time(self, cubic_setup, monkeypatch, run, cfg):
        # a slow meter that the subdomain solves cannot outweigh: every
        # row, row 0 included, must contain one full meter delay
        delay = 0.25
        meter = RelativeFieldError.__call__

        def slow_meter(self, u1, u2):
            time.sleep(delay)
            return meter(self, u1, u2)

        monkeypatch.setattr(RelativeFieldError, "__call__", slow_meter)
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        rep = run(cfg, ws1, ws2, ref)
        assert len(rep.rows) == 3
        assert all(delay <= row.seconds < 2 * delay for row in rep.rows)


class TestLemmaEquivalence:
    def test_cubic_agreement(self, cubic_setup):
        prob, mesh, decomp, _ = cubic_setup
        report = verify_lemma_equivalence(prob, mesh, decomp, DNConfig(s=0.36),
                                          n_steps=20)
        assert report.max_discrepancy <= 1e-10
        assert len(report.discrepancies) == 21

    def test_linear_agreement_at_rounding(self):
        prob = linear_problem()
        mesh = build_rect_mesh(2, 2, 0.25)
        decomp = decompose_vertical(mesh, 1.0)
        report = verify_lemma_equivalence(prob, mesh, decomp, DNConfig(s=0.5),
                                          n_steps=10)
        assert report.max_discrepancy <= 1e-12

    def test_regularized_plaplace_agreement(self):
        from ddsemi.problems import p_laplace_problem

        prob = p_laplace_problem()
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        report = verify_lemma_equivalence(prob, mesh, decomp, DNConfig(s=0.31),
                                          n_steps=15)
        assert report.max_discrepancy <= report.tolerance

    def test_inner_failure_raises(self, cubic_setup, monkeypatch):
        # a budget that just fits row 0 ends both forms after it: one
        # matching row is no pass
        import ddsemi.iterations as iterations

        prob, mesh, decomp, _ = cubic_setup
        row0 = run_dirichlet_neumann(DNConfig(s=0.36, max_iter=1),
                                     *fresh_workspaces(prob, mesh, decomp)).rows[0]
        monkeypatch.setattr(iterations, "SubdomainWorkspace",
                            partial(SubdomainWorkspace,
                                    newton_max=max(row0.newton1, row0.newton2)))
        with pytest.raises(EquivalenceViolation, match="subdomain Newton failed") as info:
            verify_lemma_equivalence(prob, mesh, decomp, DNConfig(s=0.36), n_steps=20)
        assert info.value.step == 1


class TestRobinRobin:
    def test_stationary_at_reference(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        cfg = RRConfig(s=46, eta0=ref.trace(decomp), max_iter=10, stop_tol=1e-9)
        rep = run_robin_robin(cfg, ws1, ws2, ref)
        assert rep.converged
        assert (rep.errors < 1e-8).all()

    def test_single_node_matches_dense_alternation(self):
        # oracle: scalar Robin alternation computed by hand from dense blocks
        prob = linear_problem()
        mesh = build_rect_mesh(1, 1, 0.5)
        decomp = decompose_vertical(mesh, 0.5)
        assert decomp.n_interface == 1
        ks, bs = [], []
        for side in (1, 2):
            dm = decomp.side_dofmap(side)
            oracle = dense_brute_force(prob, mesh, dm, decomp.side_triangles(side))
            ks.append(oracle.jacobian(np.zeros(1))[0, 0])
            bs.append(-oracle.residual(np.zeros(1))[0])
        mu = 2 * 0.5 / 3.0  # interface mass of the single hat function
        s = 3.0
        u2 = 0.0  # eta0 = 0 -> dirichlet start
        expected_u2 = []
        for _ in range(8):
            g1 = s * mu * u2 - (ks[1] * u2 - bs[1])
            u1 = (g1 + bs[0]) / (ks[0] + s * mu)
            g2 = s * mu * u1 - (ks[0] * u1 - bs[0])
            u2 = (g2 + bs[1]) / (ks[1] + s * mu)
            expected_u2.append(u2)

        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        seen = []
        run_robin_robin(RRConfig(s=s, max_iter=8, stop_tol=1e-300), ws1, ws2,
                        on_step=lambda n, v: seen.append(float(v[0])))
        np.testing.assert_allclose(seen[1:], expected_u2, atol=1e-11)

    def test_converges_on_cubic(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        rep = run_robin_robin(RRConfig(s=46, max_iter=300, stop_tol=1e-11),
                              ws1, ws2, ref)
        assert rep.converged
        assert rep.final_error < 1e-9


class TestNeumannNeumann:
    def test_stationary_at_reference(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        cfg = NNConfig(s1=0.02, s2=0.02, eta0=ref.trace(decomp),
                       max_iter=10, stop_tol=1e-10)
        rep = run_neumann_neumann(cfg, ws1, ws2, ref)
        assert rep.converged
        assert rep.iterations == 0

    def test_linear_problem_matches_dense_recursion(self):
        # oracle: classical dense Neumann-Neumann recursion
        prob = linear_problem()
        mesh = build_rect_mesh(1, 1, 0.25)
        decomp = decompose_vertical(mesh, 0.5)
        s1m, c1 = dense_side_steklov(prob, mesh, decomp, 1)
        s2m, c2 = dense_side_steklov(prob, mesh, decomp, 2)
        s1 = s2 = 0.15
        eta = np.zeros(decomp.n_interface)
        expected = [eta.copy()]
        for _ in range(10):
            rho = s1m @ eta + c1 + s2m @ eta + c2
            w1 = np.linalg.solve(s1m, rho)
            w2 = np.linalg.solve(s2m, rho)
            eta = eta - (s1 * w1 + s2 * w2)
            expected.append(eta.copy())

        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        seen = []
        cfg = NNConfig(s1=s1, s2=s2, max_iter=10, stop_tol=1e-300)
        run_neumann_neumann(cfg, ws1, ws2, on_step=lambda n, v: seen.append(v))
        assert len(seen) == 11
        for got, want in zip(seen, expected):
            assert np.linalg.norm(got - want) < 1e-10

    def test_converges_on_cubic(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        rep = run_neumann_neumann(NNConfig(s1=0.05, s2=0.05, max_iter=400,
                                           stop_tol=1e-10), ws1, ws2, ref)
        assert rep.converged

    def test_stagnation_detection_on_plaplace(self):
        from ddsemi.problems import p_laplace_problem

        prob = p_laplace_problem()
        mesh = build_rect_mesh(3, 2, 1 / 8)
        decomp = decompose_vertical(mesh, 1.5)
        ref = solve_monolithic(prob, mesh)
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        rep = run_neumann_neumann(NNConfig(s1=0.02, s2=0.02, max_iter=300,
                                           stop_tol=1e-11), ws1, ws2, ref)
        assert rep.non_converged
        assert rep.termination in ("stagnated", "diverged", "solver-failure")
        assert rep.min_error > 1e-8


def _without_seconds(rows):
    return [replace(row, seconds=0.0) for row in rows]


class TestFormsAgree:
    def test_rows_agree_from_zero_trace(self, cubic_setup):
        prob, mesh, decomp, ref = cubic_setup
        reports = [run_dirichlet_neumann(DNConfig(s=0.36, formulation=form),
                                         *fresh_workspaces(prob, mesh, decomp), ref)
                   for form in ("subdomain-form", "interface-form")]
        assert reports[0].rows[0].newton1 > 0
        assert reports[0].termination == reports[1].termination == "converged"
        assert _without_seconds(reports[0].rows) == _without_seconds(reports[1].rows)


def _row0_fits(row):
    return max(row.newton1, row.newton2)


def _row0_fails(row):
    return min(row.newton1, row.newton2) - 1


class TestFailurePolicy:
    # the Newton budget comes from row 0 of the full run: each side does one
    # solve there, so a budget of its larger count keeps row 0
    @pytest.mark.parametrize("run, cfg, budget, kept", [
        (run_dirichlet_neumann, DNConfig(s=0.36), _row0_fits, 1),
        (run_dirichlet_neumann, DNConfig(s=0.36, formulation="interface-form"),
         _row0_fits, 1),
        (run_robin_robin, RRConfig(s=46.0), _row0_fails, 0),
    ])
    def test_inner_failure_ends_as_solver_failure(self, cubic_setup, run, cfg,
                                                  budget, kept):
        # the step after the last kept row needs more Newton steps than allowed
        prob, mesh, decomp, ref = cubic_setup
        full = run(cfg, *fresh_workspaces(prob, mesh, decomp), ref)
        newton_max = budget(full.rows[0])
        rep = run(cfg, SubdomainWorkspace(mesh, decomp, prob, 1, newton_max=newton_max),
                  SubdomainWorkspace(mesh, decomp, prob, 2, newton_max=newton_max), ref)
        assert rep.termination == "solver-failure"
        assert rep.non_converged
        assert len(rep.rows) == kept
        assert _without_seconds(rep.rows) == _without_seconds(full.rows[:kept])


class TestFactorReuse:
    def test_dn_factors_less_often_than_it_steps(self):
        # chord Newton: the held factors outlive Newton steps and outer steps
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(3, 2, 1 / 16)
        decomp = decompose_vertical(mesh, 1.5)
        ref = solve_monolithic(prob, mesh)
        rep = run_dirichlet_neumann(DNConfig(s=0.36),
                                    *fresh_workspaces(prob, mesh, decomp), ref)
        steps = sum(row.newton1 + row.newton2 for row in rep.rows)
        assert rep.converged
        assert rep.final_error <= 1e-8
        assert 0 < rep.factorizations < steps
        assert rep.summary()["factorizations"] == rep.factorizations


class TestFluxReuse:
    """interface_residual serves the flux functional that the solve at the
    same field has just assembled."""

    @staticmethod
    def spy(monkeypatch):
        """Per interface_residual call: (workspace, field, flux, number of
        residual assemblies inside the call)."""
        calls, inside = [], []
        residual = Assembler.residual
        interface_residual = SubdomainWorkspace.interface_residual

        def counted(self, u, prob):
            if inside:
                inside[-1] += 1
            return residual(self, u, prob)

        def spied(self, u):
            inside.append(0)
            try:
                out = interface_residual(self, u)
            finally:
                assembled = inside.pop()
            calls.append((self, u.data.copy(), out.data.copy(), assembled))
            return out

        monkeypatch.setattr(Assembler, "residual", counted)
        monkeypatch.setattr(SubdomainWorkspace, "interface_residual", spied)
        return calls

    @staticmethod
    def assert_fresh(calls, prob, mesh, decomp):
        for ws, u, flux, _ in calls:
            fresh = Assembler(mesh, decomp.side_triangles(ws.side), decomp.side_dofmap(ws.side))
            assert flux.tobytes() == fresh.residual(u, prob)[ws.m:].tobytes()

    @pytest.mark.parametrize("method", ["dn", "rr"])
    def test_runs_assemble_no_flux(self, cubic_setup, monkeypatch, method):
        prob, mesh, decomp, ref = cubic_setup
        ws1, ws2 = fresh_workspaces(prob, mesh, decomp)
        calls = self.spy(monkeypatch)
        if method == "dn":
            rep = run_dirichlet_neumann(DNConfig(s=0.36, stop_tol=1e-12), ws1, ws2, ref)
        else:
            rep = run_robin_robin(RRConfig(s=46, stop_tol=1e-12, max_iter=800), ws1, ws2, ref)
        assert rep.converged
        assert len(calls) >= 2 * len(rep.rows)
        assert all(assembled == 0 for *_, assembled in calls)
        self.assert_fresh(calls, prob, mesh, decomp)

    def test_correction_solve_assembles(self, cubic_setup, monkeypatch):
        # the correction problem has no source, so its residual is not the flux
        prob, mesh, decomp, _ = cubic_setup
        ws, _ = fresh_workspaces(prob, mesh, decomp)
        calls = self.spy(monkeypatch)
        u = ws.dirichlet_solve(InterfaceVector(np.full(decomp.n_interface, 0.1)))
        rho = ws.interface_residual(u)
        w = ws.neumann_correction_solve(rho)
        ws.interface_residual(w)
        ws.interface_residual(u)
        assert [assembled for *_, assembled in calls] == [0, 1, 1]
        self.assert_fresh(calls, prob, mesh, decomp)
