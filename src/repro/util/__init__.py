"""Small shared utilities: seeded RNG streams."""

from repro.util.rng import rng_for, spawn_rngs

__all__ = ["rng_for", "spawn_rngs"]
