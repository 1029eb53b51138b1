"""Divisibility of <p,q>-Fibonacci sequences by factors of the discriminant."""

from .claims import (
    ClaimId,
    HypothesisReport,
    LiftCheck,
    catalog,
    claim_by_name,
    conclusion_holds,
    hypothesis_check,
    rank_of_apparition,
    thm12_lift_condition,
)
from .errors import DomainError, InputError, ResourceLimitError
from .numtheory import Valuation, divides, is_prime, positive_divisors, valuation
from .sequences import ABPair, SequenceParams, ab_exact, g_exact, g_mod, g_pairs_mod, g_range
from .verify import (
    Counterexample,
    Mode,
    SweepConfig,
    Verdict,
    VerificationReport,
    converse_survey,
    identity_suite,
    iter_counterexamples,
    reproduce_examples,
    search_counterexample,
    verify_claim,
)

__all__ = [
    "ABPair",
    "ClaimId",
    "Counterexample",
    "DomainError",
    "HypothesisReport",
    "InputError",
    "LiftCheck",
    "Mode",
    "ResourceLimitError",
    "SequenceParams",
    "SweepConfig",
    "Valuation",
    "Verdict",
    "VerificationReport",
    "ab_exact",
    "catalog",
    "claim_by_name",
    "conclusion_holds",
    "converse_survey",
    "divides",
    "g_exact",
    "g_mod",
    "g_pairs_mod",
    "g_range",
    "hypothesis_check",
    "identity_suite",
    "is_prime",
    "iter_counterexamples",
    "positive_divisors",
    "rank_of_apparition",
    "reproduce_examples",
    "search_counterexample",
    "thm12_lift_condition",
    "valuation",
    "verify_claim",
]

__version__ = "0.1.0"
