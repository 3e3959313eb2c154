"""Experience replay: a bounded FIFO of transitions with uniform sampling.

Each transition is one float32 row [phi(s) | a | r | phi(s2)] of a single
matrix. Its first state_dim + action_dim columns are the input x that the
critic and both predictors read, so a gather of rows hands them x with no
join; `columns` is the one place that knows the offsets. Rows grow by
doubling up to the capacity; once full, the write index wraps and overwrites
the oldest row. Row order is storage order, which is what `sample`,
`sample_states` and `stored` index into.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientBuffer
from .model import DTYPE

Batch = tuple[np.ndarray, np.ndarray, np.ndarray]  # (x = [phi(s), a], r, phi(s2))


class ReplayBuffer:
    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._rows = np.empty((0, 2 * state_dim + action_dim + 1), dtype=DTYPE)
        self._size = 0
        self._next = 0  # write position, modulo capacity

    @property
    def size(self) -> int:
        return self._size

    def columns(self, rows: np.ndarray) -> Batch:
        """rows, a matrix of stored rows, split into views (x, r, phi(s2))."""
        x_dim = self.state_dim + self.action_dim
        return rows[:, :x_dim], rows[:, x_dim], rows[:, x_dim + 1 :]

    def push(self, state, action, reward: float, next_state) -> None:
        state, action, next_state = (np.asarray(v, dtype=DTYPE)
                                     for v in (state, action, next_state))
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise DimensionMismatch(f"states must have shape ({self.state_dim},)")
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(f"action must have shape ({self.action_dim},)")
        if self._next == len(self._rows) < self.capacity:
            extra = min(self.capacity, max(1, 2 * len(self._rows))) - len(self._rows)
            self._rows = np.concatenate([self._rows, np.empty((extra, self._rows.shape[1]),
                                                              dtype=DTYPE)])
        self._rows[self._next] = np.concatenate([state, action, [reward], next_state],
                                                dtype=DTYPE)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """`columns` of batch_size stored rows drawn uniformly without
        replacement, gathered once; raises if undersized."""
        if batch_size > self._size:
            raise InsufficientBuffer(
                f"requested {batch_size} experiences, buffer holds {self._size}"
            )
        return self.columns(self._rows[rng.choice(self._size, size=batch_size, replace=False)])

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Stored states of `count` experiences drawn uniformly with replacement."""
        if not self._size:
            raise InsufficientBuffer("buffer is empty")
        return self._rows[rng.integers(0, self._size, size=count), : self.state_dim]

    def stored(self) -> np.ndarray:
        """Every stored row, in storage order (a view, not a copy)."""
        return self._rows[: self._size]
