"""Nonoverlapping domain decomposition for 2D semilinear elliptic equations.

The package couples a generic relaxed-splitting engine for monotone
operator equations with discrete Steklov-Poincare operators built on P1
finite elements, providing Dirichlet-Neumann, Robin-Robin and
Neumann-Neumann interface iterations plus the oracles (monolithic solves,
dense brute-force assembly, finite-difference derivative checks) used to
validate them.
"""

from .assembly import (Assembler, FieldVector, NonFiniteCoefficient,
                       interface_mass_matrix)
from .iterations import (DNConfig, EquivalenceViolation, MeshMismatch,
                         MethodReport, NNConfig, RelativeFieldError, RRConfig,
                         run_dirichlet_neumann, run_neumann_neumann,
                         run_robin_robin, verify_lemma_equivalence)
from .mesh import (CutOffGrid, Decomposition, DisconnectedPath, DofMap,
                   NonIntegerSubdivision, PathNotOnGrid, TriMesh,
                   build_rect_mesh, decompose_staircase, decompose_vertical,
                   write_mesh_files)
from .oracle import (FdReport, MonolithicSolution, TooLarge, dense_brute_force,
                     fd_check, mesh_global_dofmap, solve_monolithic)
from .problems import (SemilinearProblem, cubic_reaction_problem,
                       linear_problem, p_laplace_problem)
from .quadrature import QuadratureRule, UnsupportedDegree, quadrature_rule
from .splitting import (CallableOperator, HilbertSpace, IterationConfig,
                        IterationTrace, MatrixOperator, MonotoneOperator,
                        NonConvergence, SingularJacobian, SplittingProblem,
                        monotonicity_probe, newton_invert, splitting_iterate)
from .subdomain import (InterfaceVector, SteklovOperator, SubdomainWorkspace,
                        sparse_newton)

__version__ = "0.1.0"
