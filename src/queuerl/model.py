"""Small fully-connected networks with hand-rolled backprop.

ReLU hidden layers; the output layer is sigmoid (actor) or identity
(critic and the two predictor networks). Weights initialize uniformly in
+-1/sqrt(fan_in). backward() fills the parameter gradients and nothing else:
it stops before layer 0's input gradient, which no update reads.
input_gradient() computes only the gradient with respect to the input, by
the float operations of a backpropagation down to the input, and leaves
`grads` alone; the actor update pulls gradients through the critic with it.

Each network keeps all its parameters in one float32 vector, `params`, laid
out w0, b0, w1, b1, ... with each weight matrix row-major (fan_in, fan_out).
That is the initializer's draw order and the checkpoint's byte order.
`grads` has the same layout. `weights`, `biases`, `grad_w` and `grad_b` are
lists of views into the two vectors, so writing through them (as backward
does) updates the vectors, and Adam or a soft update acts on one array.

float32 (DTYPE) is the one dtype of parameters, gradients, Adam's moments,
activations and deltas; forward, backward and input_gradient cast their
inputs to it. On the 11-node figure topology, (1, 1) hidden units trained in
about 53% of the time of (64, 64) ones, so about half of a training step is
network arithmetic, which float32 halves. The replay buffer's rows are
float32 too; other data outside the networks stays float64.

State that only training reads costs no resident memory until training
runs. `grads` is np.zeros, whose pages, in a large vector, the OS maps in at
their first write, which is backward's. copy() makes the agent's target
networks, which are only forwarded and blended, so nothing ever writes their
`grads`. Adam allocates its two moment vectors in its first step(). So a
policy that is only rolled out, such as a loaded checkpoint, holds its
parameters and no optimizer state.

forward, backward and input_gradient do their elementwise arithmetic (bias
add, ReLU, ReLU mask, sigmoid clip) in place, on arrays each call has just
made with a matmul or ufunc. Those are the same float operations as the
out-of-place forms, and they never write a caller's input or dout, nor an
activation already cached for backward.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

DTYPE = np.float32  # the dtype of every network array (see above)
_SIGMOID_EPS = 1e-6  # the sigmoid's outputs lie in [_SIGMOID_EPS, 1 - _SIGMOID_EPS]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so
    # exp never overflows; minimum, unlike -abs, keeps a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    out = np.where(z >= 0, 1.0 / d, e / d)
    # keep outputs strictly inside (0, 1) even when z saturates, so the
    # actor update's log(a / (1 - a)) stays finite: float32 rounds 1 - 1e-12
    # to 1.0 but holds 1 - 1e-6, whose logit is about 13.8. maximum then
    # minimum is np.clip's arithmetic, NaN included
    np.maximum(out, _SIGMOID_EPS, out=out)
    return np.minimum(out, 1.0 - _SIGMOID_EPS, out=out)


def param_count(layer_sizes: list[int]) -> int:
    """The number of weights and biases of an Mlp with these layer sizes."""
    return sum(i * o + o for i, o in zip(layer_sizes, layer_sizes[1:]))


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
        n = param_count(layer_sizes)
        self.params = np.empty(n, dtype=DTYPE)
        self.grads = np.zeros(n, dtype=DTYPE)
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=DTYPE)
        single = x.ndim == 1
        a = x.reshape(1, -1) if single else x
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise DimensionMismatch(
                f"input has shape {x.shape}, expected rows of {self.in_dim} features")
        self._cache_inputs = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w
            z += b
            if i < last:
                a = np.maximum(z, 0.0, out=z)
            elif self.output_activation == "sigmoid":
                a = _sigmoid(z)
            else:
                a = z
            self._cache_inputs.append(a)
        self._cache_out = a
        return a[0] if single else a

    def _output_delta(self, dout: np.ndarray) -> np.ndarray:
        """dLoss/dOutput of the last forward, as rows, through the output
        activation to its pre-activation."""
        if self._cache_out is None:
            raise RuntimeError("gradient asked for before forward")
        d = np.asarray(dout, dtype=DTYPE)
        if d.ndim != 2:
            d = np.atleast_2d(d)
        if d.shape != self._cache_out.shape:
            raise DimensionMismatch(
                f"dout has shape {d.shape}, the last forward gave {self._cache_out.shape}")
        if self.output_activation == "sigmoid":
            out = self._cache_out
            d = d * out * (1.0 - out)
        return d

    def backward(self, dout: np.ndarray, dout_pre: np.ndarray | None = None) -> None:
        """Backpropagate dLoss/dOutput of the last forward into grad_w/grad_b.

        dout_pre, when given, is an extra gradient applied directly to the
        output layer's pre-activation (bypassing the output nonlinearity).
        """
        d = self._output_delta(dout)
        if dout_pre is not None:
            d = d + np.atleast_2d(np.asarray(dout_pre, dtype=DTYPE))
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                d *= self._cache_inputs[i + 1] > 0.0  # d is the layer above's fresh d @ W.T
            np.matmul(self._cache_inputs[i].T, d, out=self.grad_w[i])
            d.sum(axis=0, out=self.grad_b[i])
            if i:
                d = d @ self.weights[i].T

    def input_gradient(self, dout: np.ndarray) -> np.ndarray:
        """dLoss/dInput of the last forward for dLoss/dOutput dout; grads
        are left as they are."""
        d = self._output_delta(dout)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                d *= self._cache_inputs[i + 1] > 0.0
            d = d @ self.weights[i].T
        return d[0] if np.asarray(dout).ndim == 1 else d

    def copy(self) -> "Mlp":
        clone = Mlp.__new__(Mlp)
        clone.layer_sizes = list(self.layer_sizes)
        clone.output_activation = self.output_activation
        clone.params = self.params.copy()
        clone.grads = np.zeros(self.grads.shape, dtype=DTYPE)  # zeros_like would write every page
        clone._bind()
        clone._cache_inputs = []
        clone._cache_out = None
        return clone

    def blend_from(self, online: "Mlp", tau: float) -> None:
        """Soft update: param <- tau * online + (1 - tau) * param."""
        tau = float(tau)  # a numpy float64 scalar would promote the product to float64
        self.params *= 1.0 - tau
        self.params += tau * online.params


class Adam:
    """Per-parameter adaptive gradient steps (ADAM_BETA1, ADAM_BETA2, ADAM_EPS).

    The moments m and v are None until the first step() allocates them as
    zeros shaped like the parameters, so an optimizer that never steps holds
    no per-parameter state, and each step's floats are what moments zeroed
    at construction would give.
    """

    def __init__(self, net: Mlp, lr: float):
        self.net = net
        self.lr = float(lr)  # a Python float keeps the step in the params' dtype
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self) -> None:
        if self.m is None:
            self.m = np.zeros_like(self.net.params)
            self.v = np.zeros_like(self.net.params)
        self.t += 1
        b1t = 1.0 - ADAM_BETA1**self.t
        b2t = 1.0 - ADAM_BETA2**self.t
        g, m, v = self.net.grads, self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        self.net.params -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
