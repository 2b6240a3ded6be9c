"""Problem definitions: coefficients, reaction terms, and sources.

Callbacks are vectorized: they receive equal-shaped numpy arrays of
quadrature coordinates (and, for the reaction terms, field values) and
must return an array broadcastable to that shape.
"""

from dataclasses import dataclass

import numpy as np

SEMILINEAR = "semilinear"
P_LAPLACE = "quasilinear-plaplace"


@dataclass
class SemilinearProblem:
    """Data of -div(alpha grad u) + beta(x, u) = f with u = 0 on the boundary.

    For kind == "quasilinear-plaplace" the diffusion coefficient is the
    regularized gradient modulus sqrt(|grad u|^2 + grad_eps^2) and ``alpha``
    is ignored. ``beta_y`` is the partial derivative of ``beta`` in its
    field argument. ``name`` keys the on-disk reference cache; unnamed
    problems are never cached. ``notes`` is free-form documentation (e.g.
    growth and monotonicity constants of the reaction term); it drives no
    runtime behaviour.
    """

    alpha: callable
    beta: callable
    beta_y: callable
    source: callable
    kind: str = SEMILINEAR
    grad_eps: float = 1e-8
    name: str = ""
    notes: str = ""

    def __post_init__(self):
        if self.kind not in (SEMILINEAR, P_LAPLACE):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind == P_LAPLACE and not self.grad_eps > 0:
            raise ValueError("grad_eps must be positive for the p-Laplace kind")


def _bowl_source(x, y):
    return x * (3.0 - x) * y * (2.0 - y)


def cubic_reaction_problem():
    """Unit diffusion with the monotone cubic reaction 10*u^3.

    beta_y = 30*u^2 >= 0, so the reaction is monotone and the problem sits
    squarely inside the convergence theory.
    """
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: 10.0 * u * u * u,
        beta_y=lambda x, y, u: 30.0 * u * u,
        source=_bowl_source,
        name="cubic-reaction",
        notes="reaction growth is cubic; beta_y Lipschitz constant 60(|y|+|y'|)",
    )


def p_laplace_problem(grad_eps=1e-8):
    """Degenerate p-Laplace diffusion (p = 3) with linear reaction.

    The coefficient |grad u| is regularized to sqrt(|grad u|^2 + eps^2) so
    Newton linearizations stay nonsingular at flat gradients. This problem
    violates the uniform-coercivity hypotheses and serves as a stress test.
    """
    return SemilinearProblem(
        alpha=None,
        beta=lambda x, y, u: u,
        beta_y=lambda x, y, u: np.ones_like(u),
        source=_bowl_source,
        kind=P_LAPLACE,
        grad_eps=grad_eps,
        name=f"p-laplace-3-eps{grad_eps:g}",
        notes="out of hypothesis: diffusion degenerates as grad u -> 0",
    )


def linear_problem():
    """Plain -Laplace(u) + u = f; handy for direct-solve cross-checks."""
    return SemilinearProblem(
        alpha=lambda x, y: np.ones_like(x),
        beta=lambda x, y, u: u,
        beta_y=lambda x, y, u: np.ones_like(u),
        source=_bowl_source,
        name="linear-reaction",
    )
