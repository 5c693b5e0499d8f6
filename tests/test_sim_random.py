"""Tests for seeded randomness."""

from __future__ import annotations

import random

import pytest

from repro.sim.random import SeededRandom


def test_same_seed_same_stream():
    a = SeededRandom(42)
    b = SeededRandom(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seed_different_stream():
    a = SeededRandom(1)
    b = SeededRandom(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_fork_streams_are_independent_and_deterministic():
    parent_a = SeededRandom(7)
    parent_b = SeededRandom(7)
    child_a = parent_a.fork("link")
    child_b = parent_b.fork("link")
    assert [child_a.random() for _ in range(5)] == [child_b.random() for _ in range(5)]
    # Consuming from the child does not perturb the parent's own stream.
    assert parent_a.random() == parent_b.random()


def test_bernoulli_edges():
    rng = SeededRandom(3)
    assert not rng.bernoulli(0.0)
    assert rng.bernoulli(1.0)


def test_bernoulli_frequency():
    rng = SeededRandom(5)
    hits = sum(1 for _ in range(5000) if rng.bernoulli(0.3))
    assert 0.25 < hits / 5000 < 0.35


def test_exponential_mean():
    rng = SeededRandom(11)
    samples = [rng.exponential(2.0) for _ in range(5000)]
    assert 1.8 < sum(samples) / len(samples) < 2.2


def test_exponential_rejects_non_positive_mean():
    rng = SeededRandom(1)
    with pytest.raises(ValueError):
        rng.exponential(0.0)


def test_randint_and_choice_bounds():
    rng = SeededRandom(9)
    for _ in range(100):
        assert 3 <= rng.randint(3, 6) <= 6
    options = ["a", "b", "c"]
    assert rng.choice(options) in options


def test_uniform_bounds():
    rng = SeededRandom(13)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


@pytest.mark.parametrize(
    "low, high",
    [(5, 5), (0, 0), (0, 1), (0, 7), (0, 1 << 16), (1, 1 << 30), (0, 0xFFFF), (1, 8), (1_000_000, 0xFFFF0000)],
)
def test_randint_draws_what_random_randint_draws(low, high):
    # Spans of 1, powers of two and the endpoint's ISS range: the values and
    # the generator's state afterwards both match random.Random on one seed.
    ours = SeededRandom(2002)
    theirs = random.Random(ours.seed)
    assert [ours.randint(low, high) for _ in range(300)] == [theirs.randint(low, high) for _ in range(300)]
    assert ours.random() == theirs.random()


def test_randint_rejects_an_empty_range():
    with pytest.raises(ValueError):
        SeededRandom(1).randint(6, 5)
