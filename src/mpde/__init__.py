"""Analysis toolkit for moment partial differential equations.

Computes truncated formal power-series solutions of constant-coefficient
moment Cauchy problems, characteristic-root branch data at infinity, Newton
polygons, theoretical and empirical Gevrey orders, and summability /
multisummability classification reports.
"""

from .charroots import (CharBranch, CharPoly, branches_at_infinity,
                        validate_numeric)
from .errors import (DomainError, EstimationError, EvaluationError, MpdeError,
                     ParseError, PreconditionError, WindowError)
from .exact import RationalComplex, as_fraction, fmt_fraction
from .moments import MomentFactor, MomentFunction, gamma_s, log_gamma
from .newton import NewtonPolygon, build, cross_check, slopes
from .parsing import parse_moment, parse_operator
from .problem import (ProblemFile, analyze_problem, expand_rhs, load_problem,
                      parse_rhs, probe_problem, solve_problem, verify_problem)
from .series import GevreyFit, Series2, gevrey_fit
from .solver import (CauchyProblem, OrdersReport, ResidualReport, formal_solve,
                     residual, theoretical_orders)
from .summability import (Angle, LevelSpec, ProbeResult, SectorRequirement,
                          SummabilityReport, admissible, classify, levels,
                          singular_direction_probe)

__version__ = "0.1.0"
