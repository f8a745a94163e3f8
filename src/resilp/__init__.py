"""Exact integer-programming resiliency checking at desk scale.

The package answers one shape of question: after an adversary fixes the
"z" half of a partitioned integer program (within its own constraints),
does the "x" half always stay satisfiable?  Encoders translate set-cover
robustness, closest-string corruption, scheduling delays, and election
bribery into that shape; independent brute-force oracles keep the
encoders honest.
"""

from .bribery import BriberyInstance, Election, kendall, voter_types
from .closest_string import (
    Alphabet,
    RcsInstance,
    StringMatrix,
    column_types,
    normalize,
)
from .engine import (
    ResiliencySystem,
    ResiliencyVerdict,
    check_resiliency,
    enumerate_scenarios,
    substitute,
)
from .errors import (
    ArgumentError,
    BudgetError,
    DomainError,
    NormalizationError,
    ResilpError,
    ScenarioError,
    UnboundedVarError,
    ValidationError,
)
from .ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Rel,
    VarBounds,
    VarId,
    evaluate,
    iter_feasible,
    make_vars,
    solve_feasibility,
)
from .scheduling import SchedulingInstance
from .setcover import AuthorizationPolicy, RdscpInstance, from_policy

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "ArgumentError",
    "AuthorizationPolicy",
    "BriberyInstance",
    "BudgetError",
    "DomainError",
    "Election",
    "IntAssignment",
    "LinearRow",
    "LinearSystem",
    "NormalizationError",
    "RcsInstance",
    "RdscpInstance",
    "Rel",
    "ResiliencySystem",
    "ResiliencyVerdict",
    "ResilpError",
    "ScenarioError",
    "SchedulingInstance",
    "StringMatrix",
    "UnboundedVarError",
    "ValidationError",
    "VarBounds",
    "VarId",
    "check_resiliency",
    "column_types",
    "enumerate_scenarios",
    "evaluate",
    "from_policy",
    "iter_feasible",
    "kendall",
    "make_vars",
    "normalize",
    "solve_feasibility",
    "substitute",
    "voter_types",
    "__version__",
]
