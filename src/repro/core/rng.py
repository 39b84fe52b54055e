"""Deterministic random-stream management.

The year-scale campaign draws from many independent stochastic processes
(per-node fault processes, the job scheduler, the thermal model...).  To
keep every experiment reproducible bit-for-bit regardless of evaluation
order, each consumer derives its own :class:`numpy.random.Generator` from a
root seed plus a stable string key, using ``SeedSequence.spawn``-style
hashing.  Two campaigns with the same root seed always agree, even if one
simulates only a subset of the nodes.
"""

from __future__ import annotations

import hashlib

import numpy as np

DEFAULT_SEED = 20160213  # SC'16 vintage; arbitrary but fixed.


def _entropy(root_seed: int, key: str) -> np.ndarray:
    """``SeedSequence`` entropy for a (root seed, key) pair, as uint32 words.

    The root seed's 32-bit words come first, least significant first (the
    way ``SeedSequence`` splits a Python int, including its ``ValueError``
    for a negative seed), then 128 bits of ``sha256(key)``.  Handing
    ``SeedSequence`` one uint32 array instead of a list of Python ints
    yields the same generator state and skips its per-element coercion.
    """
    root_seed = int(root_seed)
    if root_seed < 0:
        raise ValueError("expected non-negative integer")
    n_words = max(1, -(-root_seed.bit_length() // 32))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.frombuffer(
        root_seed.to_bytes(4 * n_words, "little") + digest[:16], dtype="<u4"
    )


def stream(root_seed: int, key: str) -> np.random.Generator:
    """A named, independent random stream under a root seed.

    ``stream(s, k)`` is a pure function: the same (seed, key) pair always
    yields an identical generator state.
    """
    seq = np.random.SeedSequence(_entropy(root_seed, key))
    return np.random.Generator(np.random.PCG64(seq))


class RngFactory:
    """Factory handing out named random streams under one root seed.

    Streams are memoized so a consumer asking twice for the same key keeps
    advancing a single generator, mirroring how a physical process has one
    trajectory.

    ``namespace`` scopes every key: a factory with namespace ``"w"`` maps
    ``get("x")`` to the stream ``"w/x"``.  Child factories created with
    :meth:`spawn` share the root seed but nothing else, so parallel
    workers can derive the exact streams a serial run would use without
    sharing any mutable state.
    """

    def __init__(self, root_seed: int = DEFAULT_SEED, namespace: str = ""):
        self.root_seed = int(root_seed)
        self.namespace = str(namespace)
        self._streams: dict[str, np.random.Generator] = {}

    def _full_key(self, key: str) -> str:
        return f"{self.namespace}/{key}" if self.namespace else key

    def get(self, key: str) -> np.random.Generator:
        """Return the (memoized) generator for ``key``."""
        gen = self._streams.get(key)
        if gen is None:
            gen = stream(self.root_seed, self._full_key(key))
            self._streams[key] = gen
        return gen

    def fresh(self, key: str) -> np.random.Generator:
        """Return a brand-new generator for ``key`` (not memoized)."""
        return stream(self.root_seed, self._full_key(key))

    def spawn(self, namespace: str = "") -> "RngFactory":
        """A child factory with fresh memoization (for worker processes).

        With an empty ``namespace`` the child derives *the same* streams
        as this factory — the contract the parallel campaign engine needs
        for serial/parallel bit-identity.  A non-empty ``namespace`` is
        appended to this factory's namespace and yields a disjoint stream
        universe.
        """
        if namespace:
            child_ns = (
                f"{self.namespace}/{namespace}" if self.namespace else namespace
            )
        else:
            child_ns = self.namespace
        return RngFactory(self.root_seed, namespace=child_ns)
