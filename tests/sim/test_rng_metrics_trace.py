"""Unit tests for the seeded RNG streams."""

import pytest

from repro.sim.rng import DeterministicRng, derive_seed


class TestRng:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint("s", 0, 100) for __ in range(10)] == [
            b.randint("s", 0, 100) for __ in range(10)]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.randint("s", 0, 10**9) for __ in range(4)] != [
            b.randint("s", 0, 10**9) for __ in range(4)]

    def test_streams_are_independent_of_creation_order(self):
        a = DeterministicRng(5)
        first = a.randint("one", 0, 10**9)
        b = DeterministicRng(5)
        b.randint("two", 0, 10**9)  # touch another stream first
        assert b.randint("one", 0, 10**9) == first

    def test_choice_and_shuffle_deterministic(self):
        a = DeterministicRng(3)
        b = DeterministicRng(3)
        items_a, items_b = list(range(20)), list(range(20))
        a.shuffle("sh", items_a)
        b.shuffle("sh", items_b)
        assert items_a == items_b
        assert a.choice("c", "abcdef") == b.choice("c", "abcdef")

    def test_zipf_is_skewed_toward_low_indices(self):
        rng = DeterministicRng(11)
        draws = [rng.zipf_index("z", 100, skew=1.2) for __ in range(2000)]
        head = sum(1 for d in draws if d < 10)
        assert head > len(draws) * 0.4  # top-10% of names get >40% of draws
        assert all(0 <= d < 100 for d in draws)

    def test_derive_seed_stable_and_sensitive(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_subclassing_blocked(self):
        with pytest.raises(TypeError):
            class Sub(DeterministicRng):  # noqa: F811
                pass
