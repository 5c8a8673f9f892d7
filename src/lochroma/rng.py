"""Deterministic randomness plumbing.

Every stochastic stage draws from a named substream of one master seed, so a
whole run is reproducible bit for bit.  The pinned generator is PCG64;
substream seeds are derived by SHA-256 of ``"<seed>:<label>"``.  Gaussians are
produced by the Box-Muller transform on the generator's uniforms rather than
the generator's own normal method, which pins the exact byte stream to this
module instead of to a numpy version.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def derive_seed(seed: int, label: str) -> int:
    """64-bit substream seed for (master seed, stage label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str) -> np.random.Generator:
    """Fresh PCG64 generator for the given stage label."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, label)))


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals from two same-shape arrays of uniforms in [0, 1).

    Elementwise, so a batch of rows gives the same floats as each row alone.
    """
    # 1 - u1 lies in (0, 1], so the log never sees zero.
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def normals(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal draws of the given shape via Box-Muller.

    The first ``prod(size)`` uniforms feed ``u1`` and the next as many ``u2``.
    """
    shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
    count = math.prod(shape)
    u1 = rng.random(count)
    u2 = rng.random(count)
    return box_muller(u1, u2).reshape(shape)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform random unit vector in R^dim."""
    while True:
        v = normals(rng, dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm
