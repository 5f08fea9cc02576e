"""Deterministic seed derivation.

A single master seed drives every randomized step. Independent streams are
derived by hashing the master seed together with a textual label naming the
consumer, so adding a new randomized step never shifts the draws of existing
ones. Labels follow "module:purpose" or "module:purpose:index".
"""

import hashlib

import numpy as np


def child_seed(master: int, label: str) -> int:
    """First 8 bytes of SHA-256("{master}:{label}") as an unsigned integer."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def child_rng(master: int, label: str) -> np.random.Generator:
    return np.random.default_rng(child_seed(master, label))


def _as_rng(seed) -> np.random.Generator:
    """seed itself when it is a Generator, else a fresh Generator seeded by it."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
