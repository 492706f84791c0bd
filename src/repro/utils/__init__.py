"""Shared utilities: deterministic RNG helpers and validation."""

from .rng import derive_rng, derive_seed, stable_hash
from .validation import require, require_probability, require_positive

__all__ = [
    "derive_rng",
    "derive_seed",
    "stable_hash",
    "require",
    "require_probability",
    "require_positive",
]
