"""The REPRO_KERNELS switch: registry, env validation, scoping."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.kernels.ecc  # noqa: F401 - populates the registry
import repro.kernels.extract  # noqa: F401
import repro.kernels.scan as kscan
from repro.core.errors import ConfigurationError
from repro.kernels import (
    DEFAULT_IMPL,
    ENV_VAR,
    IMPLEMENTATIONS,
    KERNELS,
    KernelDispatch,
    active_impl,
    register_kernel,
    use_impl,
)

EXPECTED_KERNELS = {
    "scan.verify_words",
    "scan.hit_bit_positions",
    "scan.scan_region",
    "ecc.secded_syndromes",
    "ecc.secded_classify",
    "ecc.chipkill_classify",
    "extract.collapse_runs",
}


class TestRegistry:
    def test_every_kernel_registered(self):
        assert EXPECTED_KERNELS <= set(KERNELS)

    def test_every_kernel_has_two_distinct_impls(self):
        """A kernel aliasing its oracle would make the harness vacuous."""
        for name, dispatch in KERNELS.items():
            assert dispatch.reference is not dispatch.vectorized, name
            assert callable(dispatch.reference) and callable(dispatch.vectorized)

    def test_duplicate_registration_rejected(self):
        existing = next(iter(KERNELS))
        with pytest.raises(ConfigurationError):
            register_kernel(
                existing, reference=lambda: 0, vectorized=lambda: 1
            )

    def test_aliased_pair_rejected(self):
        def impl():
            return 0

        with pytest.raises(ConfigurationError):
            KernelDispatch("bogus", reference=impl, vectorized=impl)

    def test_impl_lookup(self):
        dispatch = KERNELS["scan.verify_words"]
        assert dispatch.impl("reference") is dispatch.reference
        assert dispatch.impl("vectorized") is dispatch.vectorized
        with pytest.raises(ConfigurationError):
            dispatch.impl("numba")


class TestActiveImpl:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert DEFAULT_IMPL == "vectorized"
        assert active_impl() == "vectorized"

    def test_empty_value_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert active_impl() == DEFAULT_IMPL

    @pytest.mark.parametrize("impl", IMPLEMENTATIONS)
    def test_explicit_values(self, monkeypatch, impl):
        monkeypatch.setenv(ENV_VAR, impl)
        assert active_impl() == impl

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "cuda")
        with pytest.raises(ConfigurationError):
            active_impl()
        with pytest.raises(ConfigurationError):
            kscan.verify_words(np.zeros(4, dtype=np.uint32), 0)


class TestUseImpl:
    def test_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with use_impl("reference"):
            assert os.environ[ENV_VAR] == "reference"
            assert active_impl() == "reference"
        assert ENV_VAR not in os.environ

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        with use_impl("reference"):
            assert active_impl() == "reference"
        assert os.environ[ENV_VAR] == "vectorized"

    def test_restores_on_error(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        with pytest.raises(RuntimeError):
            with use_impl("reference"):
                raise RuntimeError("boom")
        assert ENV_VAR not in os.environ

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            with use_impl("fpga"):
                pass  # pragma: no cover

    def test_dispatch_follows_scope(self):
        words = np.array([1, 2, 3, 2], dtype=np.uint32)
        with use_impl("reference"):
            ref = kscan.verify_words(words, 2)
        with use_impl("vectorized"):
            vec = kscan.verify_words(words, 2)
        assert ref == vec
        assert ref.word_index.tolist() == [0, 2]
