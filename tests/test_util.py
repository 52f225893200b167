"""Utility helpers: seeded RNG streams."""

from repro.util import rng_for, spawn_rngs


class TestRngStreams:
    def test_same_name_same_seed_same_stream(self):
        a = rng_for("x", seed=1)
        b = rng_for("x", seed=1)
        assert a.integers(0, 10**9, 5).tolist() == b.integers(0, 10**9, 5).tolist()

    def test_different_names_independent(self):
        a = rng_for("x", seed=1)
        b = rng_for("y", seed=1)
        assert a.integers(0, 10**9, 5).tolist() != b.integers(0, 10**9, 5).tolist()

    def test_different_seeds_independent(self):
        a = rng_for("x", seed=1)
        b = rng_for("x", seed=2)
        assert a.integers(0, 10**9, 5).tolist() != b.integers(0, 10**9, 5).tolist()

    def test_spawn_rngs(self):
        rngs = spawn_rngs("workers", 4, seed=0)
        assert len(rngs) == 4
        draws = [r.integers(0, 10**9) for r in rngs]
        assert len(set(int(d) for d in draws)) == 4

