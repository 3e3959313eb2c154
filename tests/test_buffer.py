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
            x, r, s2 = buf.columns(buf.stored())
            assert sorted(r) == list(range(extra, total))
            assert np.array_equal(x[:, 0], r) and np.array_equal(s2[:, 0], r + 1.0)
            assert np.all(x[:, 1] == 0.5)


def test_sample_exact_size_and_uniqueness():
    buf = ReplayBuffer(16, 1, 1)
    for tag in range(10):
        push_tagged(buf, tag)
    rng = np.random.default_rng(0)
    x, r, s2 = buf.sample(6, rng)
    assert x.shape == (6, 2) and s2.shape == (6, 1) and r.shape == (6,)
    assert len(set(r)) == 6  # without replacement
    assert np.array_equal(x[:, 0], r) and np.array_equal(s2[:, 0], r + 1.0)


def test_sampled_rows_are_the_rngs_indices_in_storage_order():
    buf = ReplayBuffer(5, 1, 1)
    for tag in range(8):  # wraps: storage order is 5, 6, 7, 3, 4
        push_tagged(buf, tag)
    x, r, _ = buf.columns(buf.stored())
    assert list(r) == [5.0, 6.0, 7.0, 3.0, 4.0]
    _, sampled, _ = buf.sample(3, np.random.default_rng(1))
    idx = np.random.default_rng(1).choice(5, size=3, replace=False)
    assert np.array_equal(sampled, r[idx])
    states = buf.sample_states(4, np.random.default_rng(2))
    idx = np.random.default_rng(2).integers(0, 5, size=4)
    assert np.array_equal(states, x[idx, :1])


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


def test_pushed_row_is_the_float32_transition():
    buf = ReplayBuffer(4, 3, 2)
    state, action, next_state = [0.1, 2.0, 1e-9], [0.3, 0.7], [4.5, 1 / 3, 0.0]
    buf.push(np.array(state), np.array(action), -1 / 7, np.array(next_state))
    (row,) = buf.stored()
    assert row.tobytes() == np.array([*state, *action, -1 / 7, *next_state],
                                     dtype=np.float32).tobytes()


def test_columns_are_views_of_the_given_rows():
    buf = ReplayBuffer(8, 2, 3)
    for tag in range(6):
        buf.push(np.full(2, tag), np.full(3, 0.5), float(tag), np.full(2, tag + 1.0))
    rows = buf.stored()
    x, r, s2 = buf.columns(rows)
    assert x.shape == (6, 5) and r.shape == (6,) and s2.shape == (6, 2)
    assert all(np.shares_memory(part, rows) for part in (x, r, s2))
    # sample gathers once and splits that gather
    x, r, s2 = buf.sample(4, np.random.default_rng(0))
    assert x.base is r.base is s2.base and x.base.shape == (4, 8)
    assert not np.shares_memory(x.base, rows)
