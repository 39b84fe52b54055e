"""Deterministic random-stream tests."""

import hashlib

import numpy as np
import pytest

from repro.core.rng import RngFactory, stream


def list_entropy_stream(root_seed: int, key: str) -> np.random.Generator:
    """Reference: the entropy as a Python list, split by SeedSequence."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    seq = np.random.SeedSequence([int(root_seed)] + words)
    return np.random.Generator(np.random.PCG64(seq))


class TestStream:
    def test_same_key_same_sequence(self):
        a = stream(1, "x").random(5)
        b = stream(1, "x").random(5)
        assert (a == b).all()

    def test_different_keys_differ(self):
        a = stream(1, "x").random(5)
        b = stream(1, "y").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = stream(1, "x").random(5)
        b = stream(2, "x").random(5)
        assert not (a == b).all()

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_uint32_entropy_matches_list_entropy(self, seed):
        """Multi-word seeds split least significant word first."""
        for i in range(300):
            key = f"node/{i:03d}/" + "x" * (i % 7)
            got = stream(seed, key).random(8)
            want = list_entropy_stream(seed, key).random(8)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_negative_seed_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence([-1])
        with pytest.raises(ValueError):
            stream(-1, "x")


class TestFactory:
    def test_memoization_advances(self):
        f = RngFactory(1)
        first = f.get("k").random()
        second = f.get("k").random()
        assert first != second  # same generator keeps advancing

    def test_fresh_restarts(self):
        f = RngFactory(1)
        a = f.fresh("k").random(3)
        b = f.fresh("k").random(3)
        assert (a == b).all()

    def test_subset_independence(self):
        """Evaluating one stream never perturbs another: a campaign over a
        node subset agrees with the full campaign on shared nodes."""
        f1 = RngFactory(7)
        _ = f1.get("node/a").random(100)
        b_after_a = f1.get("node/b").random(3)
        f2 = RngFactory(7)
        b_alone = f2.get("node/b").random(3)
        assert (b_after_a == b_alone).all()
