"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expensive artifacts (references, method runs) are computed once and shared
across criteria; each criterion asserts its stated tolerance and runtime
budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ddsemi.assembly import Assembler
from ddsemi.iterations import (DNConfig, NNConfig, RelativeFieldError,
                               RRConfig, run_dirichlet_neumann,
                               run_neumann_neumann, run_robin_robin,
                               verify_lemma_equivalence)
from ddsemi.mesh import build_rect_mesh, decompose_staircase, decompose_vertical
from ddsemi.oracle import dense_brute_force, fd_check, mesh_global_dofmap, solve_monolithic
from ddsemi.problems import (cubic_reaction_problem, linear_problem,
                             p_laplace_problem)
from ddsemi.splitting import (IterationConfig, MatrixOperator,
                              SplittingProblem, splitting_iterate)
from ddsemi.subdomain import InterfaceVector, SubdomainWorkspace

NEWTON_RTOL = 1e-12

_STORE = {}


@contextmanager
def criterion(num, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {num} ({elapsed:.1f}s): {description}", flush=True)
    assert elapsed < budget_seconds, f"criterion {num} exceeded {budget_seconds}s"


def get(key, build):
    if key not in _STORE:
        _STORE[key] = build()
    return _STORE[key]


def setup_for(problem_key, h):
    def build():
        prob = {"cubic": cubic_reaction_problem,
                "plaplace": p_laplace_problem,
                "linear": linear_problem}[problem_key]()
        mesh = build_rect_mesh(3, 2, h)
        decomp = decompose_vertical(mesh, 1.5)
        ref = solve_monolithic(prob, mesh, newton_rtol=NEWTON_RTOL)
        return prob, mesh, decomp, ref

    return get(("setup", problem_key, h), build)


def workspaces_for(problem_key, h):
    prob, mesh, decomp, _ = setup_for(problem_key, h)
    return (SubdomainWorkspace(mesh, decomp, prob, 1, newton_rtol=NEWTON_RTOL),
            SubdomainWorkspace(mesh, decomp, prob, 2, newton_rtol=NEWTON_RTOL))


def dn_report(h):
    def build():
        _, _, _, ref = setup_for("cubic", h)
        ws1, ws2 = workspaces_for("cubic", h)
        cfg = DNConfig(s=0.36, stop_tol=1e-12, max_iter=120)
        return run_dirichlet_neumann(cfg, ws1, ws2, ref)

    return get(("dn", h), build)


def test_criterion_01_oracle_equivalence():
    with criterion(1, "dense oracle equivalence on tiny meshes (1e-12 relative)", 5):
        mesh = build_rect_mesh(3, 2, 0.5)  # 35 nodes
        decomp = decompose_vertical(mesh, 1.5)
        rng = np.random.default_rng(101)
        for make in (cubic_reaction_problem, linear_problem, p_laplace_problem):
            prob = make()
            maps = [(mesh_global_dofmap(mesh), np.arange(mesh.n_triangles))]
            maps += [(decomp.side_dofmap(s), decomp.side_triangles(s)) for s in (1, 2)]
            for dofmap, tris in maps:
                asm = Assembler(mesh, tris, dofmap)
                oracle = dense_brute_force(prob, mesh, dofmap, tris)
                u = 0.4 * rng.standard_normal(dofmap.n_dofs)
                r_sparse = asm.residual(u, prob)
                r_dense = oracle.residual(u)
                assert np.linalg.norm(r_sparse - r_dense) <= \
                    1e-12 * max(1e-30, np.linalg.norm(r_dense))
                j_sparse = asm.jacobian(u, prob).toarray()
                j_dense = oracle.jacobian(u)
                assert np.linalg.norm(j_sparse - j_dense) <= \
                    1e-12 * np.linalg.norm(j_dense)

        # linear-case interface action against the dense Schur reduction
        prob = linear_problem()
        for side in (1, 2):
            ws = SubdomainWorkspace(mesh, decomp, prob, side, newton_rtol=NEWTON_RTOL)
            dm = decomp.side_dofmap(side)
            schur, const = dense_brute_force(
                prob, mesh, dm, decomp.side_triangles(side)).linear_steklov(dm.n_interior)
            for _ in range(3):
                eta = rng.standard_normal(decomp.n_interface)
                got = ws.apply_steklov_poincare(InterfaceVector(eta)).data
                want = schur @ eta + const
                assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


def test_criterion_02_derivative_consistency():
    with criterion(2, "Taylor-remainder slopes >= 1.9 for the operator, the "
                      "constrained solve, and the interface map", 30):
        prob, mesh, decomp, _ = setup_for("cubic", 1 / 16)
        ws1, _ = workspaces_for("cubic", 1 / 16)
        rng = np.random.default_rng(202)
        dm = decomp.side_dofmap(1)

        u0 = 0.3 * rng.standard_normal(dm.n_dofs)
        du = rng.standard_normal(dm.n_dofs)
        rep_a = fd_check(lambda u: ws1.asm.residual(u, prob),
                         lambda u, v: ws1.asm.jacobian(u, prob) @ v,
                         u0, du, deltas=(1e-3, 1e-4, 1e-5))
        assert rep_a.slope >= 1.9, rep_a

        k = decomp.n_interface
        nu = 0.2 * rng.standard_normal(k)
        direction = rng.standard_normal(k)
        rep_f = fd_check(lambda e: ws1.dirichlet_solve(InterfaceVector(e)).data,
                         lambda e, d: ws1.dirichlet_tangent_solve(
                             InterfaceVector(e), InterfaceVector(d)).data,
                         nu, direction, deltas=(1e-3, 3e-4, 1e-4))
        assert rep_f.slope >= 1.9, rep_f

        rep_s = fd_check(lambda e: ws1.apply_steklov_poincare(InterfaceVector(e)).data,
                         lambda e, d: ws1.apply_sp_derivative(
                             InterfaceVector(e), InterfaceVector(d)).data,
                         nu, direction, deltas=(1e-3, 3e-4, 1e-4))
        assert rep_s.slope >= 1.9, rep_s


def test_criterion_03_symmetry_and_coercivity():
    with criterion(3, "linearizations symmetric to 1e-12 and positive definite "
                      "on 10 random fields", 30):
        prob, mesh, decomp, _ = setup_for("cubic", 1 / 16)
        rng = np.random.default_rng(303)
        for side in (1, 2):
            dm = decomp.side_dofmap(side)
            asm = Assembler(mesh, decomp.side_triangles(side), dm)
            for _ in range(10):
                w = 0.5 * rng.standard_normal(dm.n_dofs)
                jac = asm.jacobian(w, prob).toarray()
                assert np.abs(jac - jac.T).max() <= 1e-12 * np.abs(jac).max()
                eigmin = np.linalg.eigvalsh(jac)[0]
                assert eigmin > 0


def test_criterion_04_monotonicity_probes():
    with criterion(4, "operator and interface-map monotonicity on 100 random "
                      "pairs each", 60):
        prob, mesh, decomp, _ = setup_for("cubic", 1 / 16)
        ws1, ws2 = workspaces_for("cubic", 1 / 16)
        rng = np.random.default_rng(404)
        dm = decomp.side_dofmap(1)
        asm = ws1.asm
        h1 = ws1.h1_matrix()

        c_min = np.inf
        for _ in range(100):
            u = 0.5 * rng.standard_normal(dm.n_dofs)
            v = 0.5 * rng.standard_normal(dm.n_dofs)
            gap = (asm.residual(u, prob) - asm.residual(v, prob)) @ (u - v)
            assert gap >= 0
            h1sq = (u - v) @ (h1 @ (u - v))
            c_min = min(c_min, gap / h1sq)
        print(f"  observed operator monotonicity constant >= {c_min:.3e}", flush=True)
        assert c_min > 0

        k = decomp.n_interface
        worst = np.inf
        for _ in range(100):
            eta = InterfaceVector(0.5 * rng.standard_normal(k))
            lam = InterfaceVector(0.5 * rng.standard_normal(k))
            gap = (ws1.apply_steklov_poincare(eta)
                   - ws1.apply_steklov_poincare(lam)).data @ (eta - lam).data
            worst = min(worst, gap)
            assert gap >= 0
        print(f"  smallest interface-map pairing {worst:.3e}", flush=True)


def test_criterion_05_dn_convergence_h64():
    with criterion(5, "DN with s=0.36 at h=1/64 reaches 1e-8 with a steady "
                      "linear rate", 300):
        report = dn_report(1 / 64)
        assert report.converged
        assert report.iterations_to(1e-8) is not None
        factor = report.fitted_factor(lo=1e-8, hi=1e-2)
        assert factor is not None and 0 < factor < 1
        ratios = report.error_ratios(start=5, floor=1e-10)
        assert ratios.size >= 5
        assert np.all(np.abs(ratios - factor) <= 0.1 * factor), \
            (factor, ratios.tolist())
        print(f"  fitted factor L = {factor:.4f}", flush=True)


def test_criterion_06_mesh_independence():
    with criterion(6, "DN iterations to 1e-6 differ by at most 2 across "
                      "h = 1/16, 1/32, 1/64", 600):
        counts = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            report = dn_report(h)
            n = report.iterations_to(1e-6)
            assert n is not None
            counts.append(n)
        print(f"  iterations to 1e-6: {counts}", flush=True)
        assert max(counts) - min(counts) <= 2


def test_criterion_07_formulation_equivalence():
    with criterion(7, "subdomain-form and interface-form DN agree to 1e-10 "
                      "per iteration for 20 iterations", 60):
        prob, mesh, decomp, _ = setup_for("cubic", 1 / 16)
        report = verify_lemma_equivalence(prob, mesh, decomp,
                                          DNConfig(s=0.36), n_steps=20,
                                          newton_rtol=NEWTON_RTOL)
        assert len(report.discrepancies) == 21
        assert report.max_discrepancy <= 1e-10
        print(f"  max per-iteration discrepancy {report.max_discrepancy:.2e}",
              flush=True)


def test_criterion_08_transmission_consistency():
    with criterion(8, "glued subdomain solves at the converged trace match "
                      "the monolithic solution", 60):
        prob, mesh, decomp, ref = setup_for("cubic", 1 / 32)
        ws1, ws2 = workspaces_for("cubic", 1 / 32)
        run = run_dirichlet_neumann(DNConfig(s=0.36, stop_tol=1e-12, max_iter=120),
                                    ws1, ws2)
        assert run.converged
        eta_star = ws2.trace(ws2.last_neumann)
        u1 = ws1.dirichlet_solve(eta_star)
        u2 = ws2.dirichlet_solve(eta_star)
        err = RelativeFieldError(mesh, decomp, ref)(u1, u2)
        print(f"  relative glued-field error {err:.2e}", flush=True)
        assert err <= 10 * NEWTON_RTOL


def test_criterion_09_method_comparison():
    with criterion(9, "DN beats RR on the cubic problem; NN flagged "
                      "non-converged on the p-Laplace problem", 600):
        _, _, _, ref = setup_for("cubic", 1 / 64)
        dn = dn_report(1 / 64)
        ws1, ws2 = workspaces_for("cubic", 1 / 64)
        rr = run_robin_robin(RRConfig(s=46, stop_tol=1e-12, max_iter=800),
                             ws1, ws2, ref)
        dn_n = dn.iterations_to(1e-6)
        rr_n = rr.iterations_to(1e-6)
        assert dn_n is not None and rr_n is not None
        print(f"  iterations to 1e-6: dn={dn_n} rr={rr_n}", flush=True)
        assert dn_n < rr_n

        _, _, _, ref2 = setup_for("plaplace", 1 / 64)
        nw1, nw2 = workspaces_for("plaplace", 1 / 64)
        nn = run_neumann_neumann(NNConfig(s1=0.02, s2=0.02, stop_tol=1e-11,
                                          max_iter=300), nw1, nw2, ref2)
        print(f"  nn on p-laplace: {nn.termination}, min error {nn.min_error:.2e}, "
              f"factorizations {nn.factorizations}, Newton steps "
              f"{sum(row.newton1 + row.newton2 for row in nn.rows)}", flush=True)
        assert nn.non_converged


def test_staircase_geometry_companion():
    # representative non-straight interface: the convergence and
    # transmission properties must not depend on the vertical-cut geometry
    with criterion("S", "DN convergence and transmission consistency on a "
                        "staircase interface", 60):
        prob = cubic_reaction_problem()
        mesh = build_rect_mesh(3, 2, 1 / 16)
        decomp = decompose_staircase(mesh, [(1.5, 0), (1.5, 1), (2, 1), (2, 2)])
        ref = solve_monolithic(prob, mesh, newton_rtol=NEWTON_RTOL)
        ws1 = SubdomainWorkspace(mesh, decomp, prob, 1, newton_rtol=NEWTON_RTOL)
        ws2 = SubdomainWorkspace(mesh, decomp, prob, 2, newton_rtol=NEWTON_RTOL)
        report = run_dirichlet_neumann(DNConfig(s=0.36, stop_tol=1e-12, max_iter=200),
                                       ws1, ws2, ref)
        assert report.converged
        assert report.iterations_to(1e-8) is not None
        factor = report.fitted_factor()
        assert 0 < factor < 1
        eta_star = ws2.trace(ws2.last_neumann)
        u1 = ws1.dirichlet_solve(eta_star)
        u2 = ws2.dirichlet_solve(eta_star)
        err = RelativeFieldError(mesh, decomp, ref)(u1, u2)
        assert err <= 10 * NEWTON_RTOL
        print(f"  fitted factor L = {factor:.4f}, glued error {err:.2e}", flush=True)


def test_criterion_10_abstract_splitting_battery():
    with criterion(10, "relaxed splitting converges linearly on 20 random "
                       "SPD pairs and is exact at fixed points", 10):
        rng = np.random.default_rng(1010)

        def random_spd(dim):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            return q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T

        for trial in range(20):
            dim = int(rng.integers(3, 8))
            g1 = MatrixOperator(random_spd(dim))
            g2 = MatrixOperator(random_spd(dim))
            chi = rng.standard_normal(dim)
            eta_star = np.linalg.solve(g1.a + g2.a, chi)  # dense oracle
            problem = SplittingProblem(g1, g2, chi)
            cfg = IterationConfig(s=0.1, eta0=np.zeros(dim), outer_tol=1e-12,
                                  max_outer=3000, newton_tol=1e-14)
            trace = splitting_iterate(problem, cfg, reference=eta_star)
            assert trace.termination == "converged", trial
            final = trace.records[-1]
            assert np.linalg.norm(final.error) <= 1e-10

            errs = trace.errors
            errs = errs[errs > 1e-9]
            if errs.size >= 10:
                ratios = errs[1:] / errs[:-1]
                tail = ratios[ratios.size // 2:]
                assert tail.max() < 1.0

            # fixed-point inputs remain fixed
            cfg_fp = IterationConfig(s=0.1, eta0=eta_star, outer_tol=1e-10,
                                     max_outer=20, newton_tol=1e-13)
            fp = splitting_iterate(problem, cfg_fp, reference=eta_star)
            assert fp.termination == "converged"
            assert fp.records[-1].step == 0
            assert (fp.errors <= 1e-9).all()
