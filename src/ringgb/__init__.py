"""Groebner bases for polynomial ideals over exact coefficient rings.

The coefficient ring is pluggable: prime fields GF(p), the rationals,
and the integers ship, all with exact arithmetic.  Completion works
from two kinds of critical pairs (gcd polynomials and syzygy
polynomials), which over fields degenerates to classical S-polynomial
completion and over the integers produces strong bases with unique
normal forms.
"""

from .completion import (
    CompletionTrace,
    MembershipResult,
    complete,
    groebner_basis,
    ideal_membership,
    interreduce,
    is_groebner_basis,
)
from .parser import PolynomialSyntaxError, parse_polynomial
from .poly import PolyRing, Polynomial, format_polynomial
from .reduction import (
    FirstReducibleStrategy,
    ReductionStep,
    SeededRandomStrategy,
    StepBudget,
    StepLimitExceeded,
    iter_reduction_steps,
    normal_form,
    normal_form_with_cofactors,
    reduces_to_zero,
)
from .rings import (
    CoefficientRing,
    Integers,
    PrimeField,
    Rationals,
    RingError,
    ring_from_string,
)
from .terms import TermOrder

__version__ = "0.1.0"

__all__ = [
    "CompletionTrace",
    "MembershipResult",
    "complete",
    "groebner_basis",
    "ideal_membership",
    "interreduce",
    "is_groebner_basis",
    "PolynomialSyntaxError",
    "parse_polynomial",
    "PolyRing",
    "Polynomial",
    "format_polynomial",
    "FirstReducibleStrategy",
    "ReductionStep",
    "SeededRandomStrategy",
    "StepBudget",
    "StepLimitExceeded",
    "iter_reduction_steps",
    "normal_form",
    "normal_form_with_cofactors",
    "reduces_to_zero",
    "CoefficientRing",
    "Integers",
    "PrimeField",
    "Rationals",
    "RingError",
    "ring_from_string",
    "TermOrder",
]
