"""Tests for repro.utils (rng, validation)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.utils.rng import derive_rng, derive_seed, stable_hash
from repro.utils.validation import ensure_type, require, require_positive, require_probability


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_different_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_returns_64_bit_int(self):
        value = stable_hash("token")
        assert 0 <= value < 2**64


class TestDeriveSeedAndRng:
    def test_derive_seed_in_32_bit_range(self):
        assert 0 <= derive_seed(123, "x") < 2**32

    def test_same_namespace_same_stream(self):
        a = derive_rng(7, "negatives").standard_normal(5)
        b = derive_rng(7, "negatives").standard_normal(5)
        assert (a == b).all()

    def test_different_namespace_different_stream(self):
        a = derive_rng(7, "negatives").standard_normal(5)
        b = derive_rng(7, "tiebreak").standard_normal(5)
        assert not (a == b).all()

    def test_different_base_seed_different_stream(self):
        a = derive_rng(1, "x").integers(0, 1000, size=10)
        b = derive_rng(2, "x").integers(0, 1000, size=10)
        assert not (a == b).all()


class TestValidation:
    def test_require_passes_and_fails(self):
        require(True, "never raised")
        with pytest.raises(ConfigurationError, match="failed"):
            require(False, "failed")

    def test_require_positive(self):
        require_positive(0.1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")
        with pytest.raises(ConfigurationError):
            require_positive(-1, "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ConfigurationError):
            require_probability(1.01, "p")
        with pytest.raises(ConfigurationError):
            require_probability(None, "p")

    def test_ensure_type(self):
        assert ensure_type("x", str, "name") == "x"
        with pytest.raises(ConfigurationError):
            ensure_type("x", int, "name")
