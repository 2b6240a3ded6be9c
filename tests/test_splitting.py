import numpy as np
import pytest

from ddsemi.splitting import (CHORD_THETA, CallableOperator, DenseFactor, HilbertSpace,
                              IterationConfig, MatrixOperator, NonConvergence, SingularJacobian,
                              SplittingProblem, damped_newton,
                              monotonicity_probe, newton_invert,
                              splitting_iterate)


def random_spd(dim, rng, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q @ np.diag(rng.uniform(lo, hi, dim)) @ q.T


class TestInvertOperator:
    def test_identity_one_step(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(4)
        op = MatrixOperator(np.eye(4))
        result = newton_invert(op, v, np.zeros(4), tol=1e-12, max_iter=10)
        np.testing.assert_allclose(result.x, v, atol=1e-14)
        assert result.iterations == 1

    def test_spd_matrix_against_dense_solve(self):
        rng = np.random.default_rng(1)
        a = random_spd(5, rng)
        x_star = rng.standard_normal(5)
        psi = a @ x_star
        x, _ = MatrixOperator(a).invert(psi, np.zeros(5), 1e-13, 50)
        # oracle: dense direct solve
        np.testing.assert_allclose(x, np.linalg.solve(a, psi), atol=1e-12)
        assert np.linalg.norm(x - x_star) < 1e-10

    def test_scalar_cubic(self):
        op = CallableOperator(lambda x: x + x ** 3, lambda x: np.array([[1 + 3 * x[0] ** 2]]))
        x, _ = op.invert(np.array([2.0]), np.array([0.5]), 1e-13, 50)
        assert abs(x[0] - 1.0) < 1e-12  # 1 + 1**3 == 2

    def test_inverse_contract(self):
        rng = np.random.default_rng(2)
        a = random_spd(6, rng)
        op = CallableOperator(lambda x: a @ x + x ** 3,
                              lambda x: a + np.diag(3 * x ** 2))
        for _ in range(5):
            psi = rng.standard_normal(6)
            x = newton_invert(op, psi, np.zeros(6), 1e-12, 50).x
            assert np.linalg.norm(op.apply(x) - psi) <= 1e-12

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(3)
        a = random_spd(4, rng)
        with pytest.raises(NonConvergence):
            newton_invert(MatrixOperator(a), rng.standard_normal(4), np.zeros(4),
                          tol=1e-30, max_iter=3)

    def test_nan_residual_raises(self):
        # NaN > tol is False, so a NaN start must not count as converged
        with pytest.raises(NonConvergence, match="not finite"):
            damped_newton(lambda x: np.full(2, np.nan), lambda x: np.eye(2),
                          DenseFactor(), np.linalg.norm, np.zeros(2), 1e-12, 10)

    def test_singular_jacobian_raises(self):
        op = MatrixOperator(np.zeros((3, 3)))
        with pytest.raises(SingularJacobian):
            op.invert(np.ones(3), np.zeros(3), 1e-10, 50)

    def test_no_jacobian_capability(self):
        op = CallableOperator(lambda x: x)
        assert not op.has_jacobian
        with pytest.raises(NonConvergence):
            newton_invert(op, np.ones(2), np.zeros(2), 1e-12, 50)

    def test_dual_norm_tolerance(self):
        # tolerance is measured in the dual norm of the supplied space
        rng = np.random.default_rng(4)
        gram = random_spd(4, rng, lo=5.0, hi=10.0)
        space = HilbertSpace(4, gram)
        a = random_spd(4, rng)
        psi = rng.standard_normal(4)
        x = newton_invert(MatrixOperator(a), psi, np.zeros(4), 1e-11, 50, space).x
        assert space.dual_norm(a @ x - psi) <= 1e-11


class _Held(DenseFactor):
    """Dense held factor for damped_newton that starts from the factor of
    ``jac``, counts its refactors and calls ``seen()`` before each one."""

    def __init__(self, jac, seen=None):
        super().refactor(jac)
        self.refactors = 0
        self.seen = seen

    def refactor(self, jac):
        if self.seen is not None:
            self.seen()
        self.refactors += 1
        return super().refactor(jac)


def _cubic(x):
    return x + x ** 3 - 10.0


def _cubic_slope(x):
    return np.array([[1.0 + 3.0 * x[0] ** 2]])


class TestChordNewton:
    def test_exact_held_factor_is_reused(self):
        # for a linear residual the held factor of its matrix is exact
        rng = np.random.default_rng(6)
        a = random_spd(4, rng)
        b = rng.standard_normal(4)
        held = _Held(a)
        result = damped_newton(lambda x: a @ x - b, lambda x: a, held,
                               np.linalg.norm, np.zeros(4), 1e-12, 10, chord=True)
        assert held.refactors == 0
        assert result.iterations == 1
        assert np.linalg.norm(a @ result.x - b) <= 1e-12

    def test_without_chord_every_step_refactors(self):
        # the same exact factor is not tried without chord
        rng = np.random.default_rng(6)
        a = random_spd(4, rng)
        b = rng.standard_normal(4)
        held = _Held(a)
        result = damped_newton(lambda x: a @ x - b, lambda x: a, held,
                               np.linalg.norm, np.zeros(4), 1e-12, 10)
        assert held.refactors == result.iterations == 1

    def test_stale_held_factor_refactors(self):
        # x + x^3 = 10 from x = 3 with the held slope 1 of the linearization
        # at 0: the chord step lands at -17 and must be refused
        held = _Held(np.eye(1))
        stale = held.solve
        result = damped_newton(_cubic, _cubic_slope, held, np.linalg.norm, np.array([3.0]),
                               1e-12, 50, chord=True)
        assert held.refactors >= 1
        assert held.solve is not stale
        assert abs(result.x[0] + result.x[0] ** 3 - 10.0) <= 1e-12
        assert abs(result.x[0] - 2.0) < 1e-12

    @pytest.mark.parametrize("slope_at, x0", [(0.0, 3.0), (2.5, 2.5)],
                             ids=["refused-trial", "armijo-kept-trial"])
    def test_held_factor_is_freed_before_the_jacobian(self, slope_at, x0):
        # the factor of a refused chord trial (stale slope, as above) and of an
        # Armijo-kept one (as below) is dropped before the next assembly
        held = _Held(_cubic_slope(np.array([slope_at])))
        assemblies = []

        def jacobian(x):
            assert held.solve is None
            assemblies.append(x[0])
            return _cubic_slope(x)

        result = damped_newton(_cubic, jacobian, held, np.linalg.norm, np.array([x0]),
                               1e-12, 50, chord=True)
        assert len(assemblies) == held.refactors >= 1
        assert abs(result.x[0] - 2.0) < 1e-12

    def test_armijo_chord_step_is_kept(self):
        # x + x^3 = 10 from x = 2.5 with the held slope there: the chord step
        # lowers the residual about sevenfold, short of CHORD_THETA
        points = []

        def residual(x):
            points.append(x[0])
            return _cubic(x)

        refactored_at = []
        held = _Held(_cubic_slope(np.array([2.5])), lambda: refactored_at.append(len(points)))
        result = damped_newton(residual, _cubic_slope, held, np.linalg.norm, np.array([2.5]),
                               1e-12, 50, chord=True)
        assert CHORD_THETA * result.history[0] < result.history[1] < result.history[0]
        # the chord point is the first iterate, and the next step refactors
        # there once and takes no second chord trial
        assert refactored_at.count(2) == 1
        assert len(refactored_at) == held.refactors
        # no point the residual saw was thrown away: each one is an iterate
        assert result.iterations == len(points) - 1
        assert result.history == [abs(p + p ** 3 - 10.0) for p in points]
        assert abs(result.x[0] - 2.0) < 1e-12

    def test_nan_chord_step_refactors(self):
        # the stale slope 0.1 sends x = 0 to 10, where the residual is NaN:
        # the trial is discarded and Newton refactors at x = 0
        held = _Held(np.array([[0.1]]))
        result = damped_newton(lambda x: np.where(x < 5.0, x - 1.0, np.nan),
                               lambda x: np.eye(1), held, np.linalg.norm,
                               np.zeros(1), 1e-12, 10, chord=True)
        assert held.refactors == 1
        assert result.iterations == 1
        assert result.x[0] == 1.0
        assert result.history == [1.0, 0.0]


class TestSplittingProblem:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SplittingProblem(MatrixOperator(np.eye(3)), MatrixOperator(np.eye(4)),
                             np.zeros(4))

    def test_inner_product_must_be_spd(self):
        g = MatrixOperator(np.eye(2))
        with pytest.raises(ValueError):
            SplittingProblem(g, g, np.zeros(2), inner_product=np.array([[1, 2], [3, 4.0]]))
        with pytest.raises(ValueError):
            SplittingProblem(g, g, np.zeros(2), inner_product=-np.eye(2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(s=0.0, eta0=np.zeros(2))
        with pytest.raises(ValueError):
            IterationConfig(s=0.5, eta0=np.zeros(2), outer_tol=-1)
        with pytest.raises(ValueError):
            IterationConfig(s=0.5, eta0=np.zeros(2), max_outer=0)


class TestSplittingIterate:
    def test_zero_data_identity_converges_at_one(self):
        dim = 3
        problem = SplittingProblem(MatrixOperator(np.zeros((dim, dim))),
                                   MatrixOperator(np.eye(dim)), np.zeros(dim))
        cfg = IterationConfig(s=1.0, eta0=np.full(dim, 2.0), outer_tol=1e-12)
        trace = splitting_iterate(problem, cfg)
        assert trace.termination == "converged"
        assert trace.records[-1].step == 1
        assert trace.records[-1].iterate_norm < 1e-12

    def test_fixed_point_converges_at_zero(self):
        rng = np.random.default_rng(5)
        g1 = MatrixOperator(random_spd(4, rng))
        g2 = MatrixOperator(random_spd(4, rng))
        eta_star = rng.standard_normal(4)
        chi = g1.a @ eta_star + g2.a @ eta_star
        problem = SplittingProblem(g1, g2, chi)
        cfg = IterationConfig(s=0.2, eta0=eta_star, outer_tol=1e-10)
        trace = splitting_iterate(problem, cfg, reference=eta_star)
        assert trace.termination == "converged"
        assert trace.records[-1].step == 0

    def test_fixed_point_invariance_band(self):
        # starting within newton_tol of the solution keeps errors at C*tol
        rng = np.random.default_rng(6)
        g1 = MatrixOperator(random_spd(4, rng))
        g2 = MatrixOperator(random_spd(4, rng))
        eta_star = rng.standard_normal(4)
        chi = (g1.a + g2.a) @ eta_star
        newton_tol = 1e-9
        eta0 = eta_star + 1e-11 * rng.standard_normal(4)
        problem = SplittingProblem(g1, g2, chi)
        cfg = IterationConfig(s=0.2, eta0=eta0, outer_tol=1e-14, max_outer=25,
                              newton_tol=newton_tol)
        trace = splitting_iterate(problem, cfg, reference=eta_star)
        assert (trace.errors <= 10 * newton_tol).all()

    def test_geometric_decay_and_dense_limit(self):
        rng = np.random.default_rng(7)
        g1 = MatrixOperator(random_spd(4, rng))
        g2 = MatrixOperator(random_spd(4, rng))
        chi = rng.standard_normal(4)
        eta_star = np.linalg.solve(g1.a + g2.a, chi)  # oracle: dense solve
        problem = SplittingProblem(g1, g2, chi)
        cfg = IterationConfig(s=0.15, eta0=np.zeros(4), outer_tol=1e-13,
                              max_outer=2000, newton_tol=1e-14)
        trace = splitting_iterate(problem, cfg, reference=eta_star)
        assert trace.termination == "converged"
        final = trace.records[-1]
        assert np.linalg.norm(final.error) < 1e-10

        errs = trace.errors
        errs = errs[(errs > 1e-10) & (errs < errs[0])]
        ratios = errs[1:] / errs[:-1]
        # eventually-constant ratio within +-10%, strictly below 1
        tail = ratios[len(ratios) // 2:]
        assert tail.max() < 1.0
        assert tail.max() - tail.min() < 0.1 * tail.mean()

        # geometric fit on the log-errors
        slope = np.polyfit(np.arange(len(errs)), np.log(errs), 1)[0]
        assert np.exp(slope) < 1.0

    def test_divergence_detection(self):
        rng = np.random.default_rng(8)
        g1 = MatrixOperator(random_spd(3, rng, lo=50.0, hi=80.0))
        g2 = MatrixOperator(np.eye(3) * 1e-2)
        chi = rng.standard_normal(3)
        cfg = IterationConfig(s=1.5, eta0=np.ones(3), outer_tol=1e-12, max_outer=500)
        trace = splitting_iterate(SplittingProblem(g1, g2, chi), cfg)
        assert trace.termination == "diverged"

    def test_warm_start_reuses_inner_solution(self):
        rng = np.random.default_rng(9)
        g1 = MatrixOperator(random_spd(4, rng))
        g2 = MatrixOperator(random_spd(4, rng))
        chi = rng.standard_normal(4)
        problem = SplittingProblem(g1, g2, chi)
        cfg = IterationConfig(s=0.2, eta0=np.zeros(4), outer_tol=1e-12,
                              max_outer=500)
        trace = splitting_iterate(problem, cfg)
        # linear operator: after the first step the warm start is exact up
        # to the outer update, so inner counts stay at one
        inner = [r.newton_iterations for r in trace.records[1:]]
        assert max(inner) <= 2

    def test_inner_failure_annotated_with_step(self):
        g1 = MatrixOperator(np.eye(2))
        g2 = MatrixOperator(np.zeros((2, 2)))  # singular inner operator
        problem = SplittingProblem(g1, g2, np.ones(2))
        cfg = IterationConfig(s=0.5, eta0=np.zeros(2))
        with pytest.raises(SingularJacobian, match="outer step 0"):
            splitting_iterate(problem, cfg)


class TestProbes:
    def test_monotone_operator_passes_probe(self):
        rng = np.random.default_rng(10)
        a = random_spd(5, rng)
        assert monotonicity_probe(MatrixOperator(a), 5, n_pairs=100, rng=11) >= 0

    def test_nonmonotone_operator_fails_probe(self):
        assert monotonicity_probe(MatrixOperator(-np.eye(3)), 3, n_pairs=50, rng=12) < 0

    def test_jacobian_symmetry_probe(self):
        rng = np.random.default_rng(13)
        a = random_spd(6, rng)
        op = CallableOperator(lambda x: a @ x + x ** 3,
                              lambda x: a + np.diag(3 * x ** 2))
        for _ in range(20):
            x = rng.standard_normal(6)
            jac = op.jacobian(x)
            assert np.linalg.norm(jac - jac.T) <= 1e-12 * np.linalg.norm(jac)

    def test_apply_deterministic(self):
        rng = np.random.default_rng(14)
        a = random_spd(4, rng)
        op = CallableOperator(lambda x: a @ x + np.tanh(x))
        x = rng.standard_normal(4)
        first = op.apply(x)
        second = op.apply(x)
        assert (first == second).all()
