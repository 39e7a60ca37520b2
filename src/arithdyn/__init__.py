"""Certified-at-depth verification of orbit/anti-orbit dynamics of
number-theoretic special functions, their preimage structure, and the
Alexandroff topologies they induce on the naturals."""

from .config import DEFAULT_CONFIG, ToolConfig
from .factorint import FactoredNatural, DeferredValue, OVERFLOW, factorize, to_integer
from .arithfun import (
    FunctionId, PHI, PSI, PHI_STAR, BIG_OMEGA, SMALL_OMEGA, D, J2,
    jordan, generalized_psi, divisor_count, sigma, parse_function,
    evaluate,
)
from .dynamics import (
    FamilySpec, GenericFamilySpec, Scheme, family_terms, verify_disjoint,
    generic_family_terms,
    ent_set_estimate, ent_cset_estimate, search_families,
)
from .preimage import inverse_phi, phi_bound
from .reports import Counterexample, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG", "ToolConfig",
    "FactoredNatural", "DeferredValue", "OVERFLOW", "factorize", "to_integer",
    "FunctionId", "PHI", "PSI", "PHI_STAR", "BIG_OMEGA", "SMALL_OMEGA", "D",
    "J2", "jordan", "generalized_psi", "divisor_count", "sigma",
    "parse_function", "evaluate",
    "FamilySpec", "GenericFamilySpec", "Scheme", "family_terms",
    "verify_disjoint", "generic_family_terms", "ent_set_estimate", "ent_cset_estimate",
    "search_families",
    "inverse_phi", "phi_bound",
    "Counterexample", "VerificationReport",
]
