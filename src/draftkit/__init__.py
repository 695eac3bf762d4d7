"""Draft allocation rules, axiom checkers, and desk-scale rule-space verification."""

from .core import (
    INFINITE,
    Allocation,
    AllocationViolation,
    Bundle,
    PickingSequence,
    Preference,
    Priority,
    Problem,
    bundle_of,
    bundle_size,
    complete_extension,
    objects_of,
    restrict,
    top,
    top_k,
    truncate_at,
    validate_allocation,
)
from .dominance import (
    WeightScheme,
    additive_utility,
    envies,
    geometric_scheme,
    linear_scheme,
    quota_weakly_dominates,
    random_scheme,
    strictly_dominates,
    weakly_dominates,
    weakly_dominates_oracle,
)
from .rules import (
    Case,
    Rule,
    draft_rule,
    null_rule,
    piecewise_rule,
    problem_key,
    tabulated_rule,
)
from .axioms import (
    AxiomReport,
    ProblemDomain,
    fixed_domain,
    quota_domain,
    unacceptable_domain,
    variable_domain,
)

__all__ = [name for name in dir() if not name.startswith("_")]
