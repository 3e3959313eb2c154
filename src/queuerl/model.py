"""Small fully-connected networks with hand-rolled backprop.

ReLU hidden layers; the output layer is sigmoid (actor) or identity
(critic and the two predictor networks). Weights initialize uniformly in
+-1/sqrt(fan_in). backward() computes both parameter gradients and the
gradient with respect to the input, which the actor update needs to pull
gradients through the critic.

Each network keeps all its parameters in one float64 vector, `params`, laid
out w0, b0, w1, b1, ... with each weight matrix row-major (fan_in, fan_out).
That is the initializer's draw order and the checkpoint's byte order.
`grads` has the same layout. `weights`, `biases`, `grad_w` and `grad_b` are
lists of views into the two vectors, so writing through them (as backward
does) updates the vectors, and Adam or a soft update acts on one array.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    # keep outputs strictly inside (0, 1) even when z saturates in float64
    return np.clip(out, 1e-12, 1.0 - 1e-12)


class Mlp:
    def __init__(self, layer_sizes: list[int], output_activation: str, rng: np.random.Generator):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if min(layer_sizes) < 1:
            raise ValueError(f"layer sizes must be >= 1, got {list(layer_sizes)}")
        if output_activation not in ("identity", "sigmoid"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        self.layer_sizes = list(layer_sizes)
        self.output_activation = output_activation
        n = sum(i * o + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))
        self.params = np.empty(n)
        self.grads = np.zeros(n)
        self._bind()
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        self._cache_inputs: list[np.ndarray] = []
        self._cache_out: np.ndarray | None = None

    def _bind(self) -> None:
        """Point weights/biases and grad_w/grad_b at slices of params and grads."""
        self.weights, self.biases, self.grad_w, self.grad_b = [], [], [], []
        off = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w_end = off + fan_in * fan_out
            b_end = w_end + fan_out
            self.weights.append(self.params[off:w_end].reshape(fan_in, fan_out))
            self.grad_w.append(self.grads[off:w_end].reshape(fan_in, fan_out))
            self.biases.append(self.params[w_end:b_end])
            self.grad_b.append(self.grads[w_end:b_end])
            off = b_end

    def __getstate__(self) -> dict:
        # the views would unpickle as independent copies; rebuild them instead
        state = dict(self.__dict__)
        for name in ("weights", "biases", "grad_w", "grad_b"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = np.atleast_2d(x)
        if a.shape[1] != self.in_dim:
            raise DimensionMismatch(f"input has {a.shape[1]} features, expected {self.in_dim}")
        self._cache_inputs = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            if i < last:
                a = np.maximum(z, 0.0)
            elif self.output_activation == "sigmoid":
                a = _sigmoid(z)
            else:
                a = z
            self._cache_inputs.append(a)
        self._cache_out = a
        return a[0] if single else a

    def backward(self, dout: np.ndarray, dout_pre: np.ndarray | None = None) -> np.ndarray:
        """Backpropagate dLoss/dOutput; fills grad_w/grad_b, returns dLoss/dInput.

        dout_pre, when given, is an extra gradient applied directly to the
        output layer's pre-activation (bypassing the output nonlinearity).
        """
        if self._cache_out is None:
            raise RuntimeError("backward called before forward")
        d = np.atleast_2d(np.asarray(dout, dtype=float))
        single = np.asarray(dout).ndim == 1
        if self.output_activation == "sigmoid":
            out = self._cache_out
            d = d * out * (1.0 - out)
        if dout_pre is not None:
            d = d + np.atleast_2d(np.asarray(dout_pre, dtype=float))
        for i in range(len(self.weights) - 1, -1, -1):
            a_prev = self._cache_inputs[i]
            if i < len(self.weights) - 1:
                d = d * (self._cache_inputs[i + 1] > 0.0)
            np.matmul(a_prev.T, d, out=self.grad_w[i])
            d.sum(axis=0, out=self.grad_b[i])
            d = d @ self.weights[i].T
        return d[0] if single else d

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.layer_sizes = list(self.layer_sizes)
        clone.output_activation = self.output_activation
        clone.params = self.params.copy()
        clone.grads = np.zeros_like(self.grads)
        clone._bind()
        clone._cache_inputs = []
        clone._cache_out = None
        return clone

    def blend_from(self, online: "Mlp", tau: float) -> None:
        """Soft update: param <- tau * online + (1 - tau) * param."""
        self.params *= 1.0 - tau
        self.params += tau * online.params


class Adam:
    """Per-parameter adaptive gradient steps (ADAM_BETA1, ADAM_BETA2, ADAM_EPS)."""

    def __init__(self, net: Mlp, lr: float):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        g, m, v = self.net.grads, self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        self.net.params -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
