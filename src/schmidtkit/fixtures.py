"""Named reference states and seeded random state generators."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IndicesOutOfRange, InvalidArgs
from .state import StateTensor, _integer, _sized_dims, new_state

__all__ = ["w_state", "ghz", "bell", "basis_state", "haar_random_state"]


def w_state() -> StateTensor:
    """(|001> + |010> + |100>) / sqrt(3) on three qubits."""
    amps = np.zeros(8)
    amps[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    return StateTensor((2, 2, 2), amps, label="W")


def ghz(n: int = 3) -> StateTensor:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits, n >= 2."""
    if _integer(n, InvalidArgs, "n") < 2:
        raise DimensionMismatch("GHZ needs at least two qubits")
    dims, size = _sized_dims((2,) * n)
    amps = np.zeros(size)
    amps[[0, -1]] = 1.0 / np.sqrt(2.0)
    return StateTensor(dims, amps, label=f"GHZ{n}")


def bell() -> StateTensor:
    """(|00> + |11>) / sqrt(2)."""
    amps = np.zeros(4)
    amps[[0, 3]] = 1.0 / np.sqrt(2.0)
    return StateTensor((2, 2), amps, label="Bell")


def basis_state(dims, occupation) -> StateTensor:
    """The product basis state |i1 i2 ... in> for the given occupation."""
    dims, size = _sized_dims(dims)
    occupation = tuple(_integer(i, IndicesOutOfRange, "an occupation index") for i in occupation)
    if len(occupation) != len(dims):
        raise DimensionMismatch(
            f"occupation {occupation} does not match dims {dims}")
    if any(i < 0 or i >= d for i, d in zip(occupation, dims)):
        raise IndicesOutOfRange(f"occupation {occupation} outside dims {dims}")
    flat = 0
    for i, d in zip(occupation, dims):
        flat = flat * d + i
    amps = np.zeros(size)
    amps[flat] = 1.0
    return StateTensor(dims, amps)


def haar_random_state(dims, seed: int = 0) -> StateTensor:
    """A generic random pure state (complex Gaussian, normalized)."""
    dims, size = _sized_dims(dims)
    if _integer(seed, InvalidArgs, "seed") < 0:
        raise InvalidArgs(f"seed must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return new_state(dims, amps / np.linalg.norm(amps))
