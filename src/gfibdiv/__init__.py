"""Divisibility of <p,q>-Fibonacci sequences by factors of the discriminant."""

from .claims import (
    ClaimId,
    HypothesisReport,
    LiftCheck,
    applicable_claims,
    catalog,
    claim_by_name,
    conclusion_holds,
    hypothesis_check,
    thm12_lift_condition,
)
from .errors import DomainError, InputError, ResourceLimitError
from .numtheory import Valuation, binomial, divides, gcd, is_prime, positive_divisors, valuation
from .sequences import ABPair, SequenceParams, ab_exact, ab_mod, g_exact, g_mod, g_pairs_mod, g_range
from .verify import (
    Counterexample,
    Mode,
    SweepConfig,
    Verdict,
    VerificationReport,
    converse_survey,
    identity_suite,
    iter_counterexamples,
    rank_of_apparition,
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
    "ab_mod",
    "applicable_claims",
    "binomial",
    "catalog",
    "claim_by_name",
    "conclusion_holds",
    "converse_survey",
    "divides",
    "g_exact",
    "g_mod",
    "g_pairs_mod",
    "g_range",
    "gcd",
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
