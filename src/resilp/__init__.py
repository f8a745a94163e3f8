"""Exact integer-programming resiliency checking at desk scale.

The package answers one shape of question: after an adversary fixes the
"z" half of a partitioned integer program (within its own constraints),
does the "x" half always stay satisfiable?  Encoders translate set-cover
robustness, closest-string corruption, scheduling delays, and election
bribery into that shape; independent brute-force oracles keep the
encoders honest.

Exported names load on first use (PEP 562), so ``import resilp`` runs no
submodule and a command imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "BriberyInstance": "bribery",
    "Election": "bribery",
    "kendall": "bribery",
    "voter_types": "bribery",
    "Alphabet": "closest_string",
    "RcsInstance": "closest_string",
    "StringMatrix": "closest_string",
    "column_types": "closest_string",
    "normalize": "closest_string",
    "ResiliencySystem": "engine",
    "ResiliencyVerdict": "engine",
    "check_resiliency": "engine",
    "enumerate_scenarios": "engine",
    "substitute": "engine",
    "ArgumentError": "errors",
    "BudgetError": "errors",
    "DomainError": "errors",
    "NormalizationError": "errors",
    "ResilpError": "errors",
    "ScenarioError": "errors",
    "ValidationError": "errors",
    "IntAssignment": "ilp",
    "LinearRow": "ilp",
    "LinearSystem": "ilp",
    "Rel": "ilp",
    "VarBounds": "ilp",
    "VarId": "ilp",
    "evaluate": "ilp",
    "iter_feasible": "ilp",
    "make_vars": "ilp",
    "solve_feasibility": "ilp",
    "SchedulingInstance": "scheduling",
    "AuthorizationPolicy": "setcover",
    "RdscpInstance": "setcover",
    "from_policy": "setcover",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
