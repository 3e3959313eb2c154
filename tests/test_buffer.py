import numpy as np
import pytest

from queuerl.buffer import ReplayBuffer
from queuerl.errors import DimensionMismatch, InsufficientBuffer


def push_tagged(buf: ReplayBuffer, tag: int) -> None:
    buf.push(np.array([float(tag)]), np.array([0.5]), float(tag), np.array([float(tag) + 1.0]))


def test_fifo_eviction_exhaustive_small_instances():
    for capacity in range(1, 9):
        for extra in range(0, 9):
            buf = ReplayBuffer(capacity, 1, 1)
            total = capacity + extra
            for tag in range(total):
                push_tagged(buf, tag)
            assert buf.size == capacity
            s, a, r, s2 = buf.stored()
            assert sorted(r) == list(range(extra, total))
            assert np.array_equal(s[:, 0], r) and np.array_equal(s2[:, 0], r + 1.0)
            assert np.all(a == 0.5)


def test_sample_exact_size_and_uniqueness():
    buf = ReplayBuffer(16, 1, 1)
    for tag in range(10):
        push_tagged(buf, tag)
    rng = np.random.default_rng(0)
    s, a, r, s2 = buf.sample(6, rng)
    assert s.shape == s2.shape == a.shape == (6, 1) and r.shape == (6,)
    assert len(set(r)) == 6  # without replacement
    assert np.array_equal(s[:, 0], r) and np.array_equal(s2[:, 0], r + 1.0)


def test_sampled_rows_are_the_rngs_indices_in_storage_order():
    buf = ReplayBuffer(5, 1, 1)
    for tag in range(8):  # wraps: storage order is 5, 6, 7, 3, 4
        push_tagged(buf, tag)
    assert list(buf.stored()[2]) == [5.0, 6.0, 7.0, 3.0, 4.0]
    _, _, r, _ = buf.sample(3, np.random.default_rng(1))
    idx = np.random.default_rng(1).choice(5, size=3, replace=False)
    assert np.array_equal(r, buf.stored()[2][idx])
    states = buf.sample_states(4, np.random.default_rng(2))
    idx = np.random.default_rng(2).integers(0, 5, size=4)
    assert np.array_equal(states, buf.stored()[0][idx])


def test_sample_undersized_raises():
    buf = ReplayBuffer(8, 1, 1)
    for tag in range(3):
        push_tagged(buf, tag)
    with pytest.raises(InsufficientBuffer):
        buf.sample(4, np.random.default_rng(0))


def test_sample_states_with_replacement():
    buf = ReplayBuffer(4, 1, 1)
    push_tagged(buf, 7)
    states = buf.sample_states(5, np.random.default_rng(0))
    assert states.shape == (5, 1)
    assert np.all(states == 7.0)
    empty = ReplayBuffer(4, 1, 1)
    with pytest.raises(InsufficientBuffer):
        empty.sample_states(1, np.random.default_rng(0))


def test_experience_dimension_check():
    buf = ReplayBuffer(4, 2, 1)
    with pytest.raises(DimensionMismatch):
        buf.push(np.zeros(2), np.zeros(1), 0.0, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        buf.push(np.zeros(3), np.zeros(1), 0.0, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        buf.push(np.zeros(2), np.zeros(2), 0.0, np.zeros(2))
    assert buf.size == 0


def test_capacity_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(0, 1, 1)
