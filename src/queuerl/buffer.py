"""Experience replay: a bounded FIFO of transitions with uniform sampling.

Transitions live in four float32 arrays, one row each, as the agent's
networks read them: (phi(s), a, r, phi(s2)). Rows grow by doubling up to the
capacity; once full, a ring index overwrites the oldest row. Row order is
storage order, which is what `sample`, `sample_states` and `stored` index into.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InsufficientBuffer
from .model import DTYPE

Batch = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # (phi(s), a, r, phi(s2))


class ReplayBuffer:
    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._s = np.empty((0, state_dim), dtype=DTYPE)
        self._a = np.empty((0, action_dim), dtype=DTYPE)
        self._r = np.empty(0, dtype=DTYPE)
        self._s2 = np.empty((0, state_dim), dtype=DTYPE)
        self._size = 0
        self._next = 0  # ring-buffer write position once full

    @property
    def size(self) -> int:
        return self._size

    def _grow(self) -> None:
        extra = min(self.capacity, max(1, 2 * len(self._r))) - len(self._r)
        self._s, self._a, self._r, self._s2 = (
            np.concatenate([old, np.empty((extra,) + old.shape[1:], dtype=DTYPE)])
            for old in (self._s, self._a, self._r, self._s2)
        )

    def push(self, state, action, reward: float, next_state) -> None:
        state, action, next_state = (np.asarray(v, dtype=DTYPE)
                                     for v in (state, action, next_state))
        if state.shape != (self.state_dim,) or next_state.shape != (self.state_dim,):
            raise DimensionMismatch(f"states must have shape ({self.state_dim},)")
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(f"action must have shape ({self.action_dim},)")
        if self._size < self.capacity:
            if self._size == len(self._r):
                self._grow()
            row = self._size
            self._size += 1
        else:
            row = self._next
            self._next = (self._next + 1) % self.capacity
        self._s[row], self._a[row], self._r[row], self._s2[row] = state, action, reward, next_state

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform sample without replacement; raises if undersized."""
        if batch_size > self._size:
            raise InsufficientBuffer(
                f"requested {batch_size} experiences, buffer holds {self._size}"
            )
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return self._s[idx], self._a[idx], self._r[idx], self._s2[idx]

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Stored states of `count` experiences drawn uniformly with replacement."""
        if not self._size:
            raise InsufficientBuffer("buffer is empty")
        return self._s[rng.integers(0, self._size, size=count)]

    def stored(self) -> Batch:
        """Every stored transition, in storage order (views, not copies)."""
        n = self._size
        return self._s[:n], self._a[:n], self._r[:n], self._s2[:n]
