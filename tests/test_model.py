import copy
import pickle

import numpy as np
import pytest

from queuerl.errors import DimensionMismatch
from queuerl.model import Adam, Mlp, _sigmoid

# the four network shapes of a default agent on a 4-edge environment
AGENT_SHAPES = [
    ("sigmoid", [4, 64, 64, 4]),     # actor
    ("identity", [8, 64, 64, 1]),    # critic
    ("identity", [8, 64, 64, 4]),    # next-state predictor
    ("identity", [8, 64, 64, 1]),    # reward predictor
]


def masked_sigmoid(z):
    """The sigmoid as two boolean-mask passes, one per sign of z, clipped
    to [1e-6, 1 - 1e-6]; it computes in z's dtype."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 1e-6, 1.0 - 1e-6)


def full_backward(net, dout):
    """Backpropagation down to the input in one pass: the parameter
    gradients and dLoss/dInput of the last forward, computed with the
    operations backward and input_gradient use, in float32."""
    d = np.atleast_2d(np.asarray(dout, dtype=np.float32))
    if net.output_activation == "sigmoid":
        out = net._cache_out
        d = d * out * (1.0 - out)
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:
            d = d * (net._cache_inputs[i + 1] > 0.0)
        grads = [net._cache_inputs[i].T @ d, d.sum(axis=0)] + grads
        d = d @ net.weights[i].T
    return grads, d


def float64_layers(net):
    """A float64 copy of net's weights and biases, as lists of views into
    one copied vector laid out like net.params."""
    params, weights, biases, off = net.params.astype(np.float64), [], [], 0
    for fan_in, fan_out in zip(net.layer_sizes[:-1], net.layer_sizes[1:]):
        weights.append(params[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
        off += fan_in * fan_out
        biases.append(params[off : off + fan_out])
        off += fan_out
    return weights, biases


def projected_loss64(net, layers, x, proj):
    """The projected loss of net's forward, in float64 on the given layers,
    and the signs of every hidden ReLU pre-activation."""
    a, signs = np.asarray(x, dtype=np.float64), []
    weights, biases = layers
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        if i < len(weights) - 1:
            signs.append((z > 0.0).ravel())
            a = np.maximum(z, 0.0)
        elif net.output_activation == "sigmoid":
            a = masked_sigmoid(z)
        else:
            a = z
    return float((a * proj).sum()), np.concatenate(signs)


# float32 gradients against float64 central differences of the same weights:
# the differences are exact to about 1e-10, and the float32 gradients of
# these checks are off by at most 1.7e-7 relative, about one float32 ulp
GRAD_TOL = 1e-5


def check_param_gradients(net, rng, coords_per_array=40, h=1e-5, tol=GRAD_TOL):
    """Central finite differences of a float64 copy of net's float32
    parameters against net's analytic float32 gradients.

    Where a hidden pre-activation changes sign between the +h and -h
    evaluations, the loss has a kink inside the stencil and the central
    difference is no derivative; such a coordinate is replaced by another.
    """
    x = rng.normal(size=(3, net.in_dim)).astype(np.float32)
    proj = rng.normal(size=(3, net.layer_sizes[-1])).astype(np.float32)
    net.forward(x)
    net.backward(proj)
    grads = [g.copy() for g in net.grad_w + net.grad_b]
    layers = float64_layers(net)
    for arr, grad in zip(layers[0] + layers[1], grads):
        flat, gflat = arr.ravel(), grad.ravel()
        wanted, checked = min(coords_per_array, arr.size), 0
        for i in rng.permutation(arr.size):
            orig = flat[i]
            flat[i] = orig + h
            up, signs_up = projected_loss64(net, layers, x, proj)
            flat[i] = orig - h
            down, signs_down = projected_loss64(net, layers, x, proj)
            flat[i] = orig
            if not np.array_equal(signs_up, signs_down):
                continue
            numeric = (up - down) / (2 * h)
            rel = abs(numeric - gflat[i]) / max(1.0, abs(numeric), abs(gflat[i]))
            assert rel < tol, f"param grad off by {rel}"
            checked += 1
            if checked == wanted:
                break
        assert checked == wanted, "too few kink-free coordinates"


@pytest.mark.parametrize("activation,sizes", AGENT_SHAPES)
def test_gradients_match_finite_differences(activation, sizes):
    rng = np.random.default_rng(AGENT_SHAPES.index((activation, sizes)))
    for draw in range(10):
        net = Mlp(sizes, activation, rng)
        check_param_gradients(net, rng, coords_per_array=12)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = Mlp([6, 32, 2], "identity", rng)
    x = rng.normal(size=(2, 6)).astype(np.float32)
    proj = rng.normal(size=(2, 2)).astype(np.float32)
    net.forward(x)
    dx = net.input_gradient(proj)
    layers = float64_layers(net)
    h = 1e-5
    for r in range(2):
        for c in range(6):
            xp, xm = x.astype(np.float64), x.astype(np.float64)
            xp[r, c] += h
            xm[r, c] -= h
            up, _ = projected_loss64(net, layers, xp, proj)
            down, _ = projected_loss64(net, layers, xm, proj)
            numeric = (up - down) / (2 * h)
            assert abs(numeric - dx[r, c]) / max(1.0, abs(numeric)) < GRAD_TOL


@pytest.mark.parametrize("activation,sizes", AGENT_SHAPES)
def test_backward_and_input_gradient_match_one_full_pass(activation, sizes):
    rng = np.random.default_rng(11)
    net = Mlp(sizes, activation, rng)
    net.forward(rng.normal(size=(5, net.in_dim)))
    dout = rng.normal(size=(5, net.layer_sizes[-1]))
    grads, dx = full_backward(net, dout)
    flat = np.concatenate([g.ravel() for g in grads])

    net.grads[...] = 7.0
    got = net.input_gradient(dout)
    assert got.tobytes() == dx.tobytes()
    assert np.all(net.grads == 7.0)  # input_gradient leaves grads alone

    assert net.backward(dout) is None
    assert net.grads.tobytes() == flat.tobytes()
    # a single sample comes back as a vector
    net.forward(rng.normal(size=net.in_dim))
    assert net.input_gradient(dout[0]).shape == (net.in_dim,)


def test_sigmoid_bytes_match_masked_formula():
    # float32's edges: exp overflows above 88.72 and underflows below -103.97,
    # and the sigmoid rounds to 1 above about 16.6 and to the clip above 13.8
    f32 = np.finfo(np.float32)
    tiny = float(f32.smallest_subnormal)
    edges = [0.0, np.inf, np.nan, tiny, 1e3 * tiny, float(f32.tiny) / 2,
             88.7, 88.8, 104.0, 103.9, 3e38, 16.7, 13.8, 1e-40]
    z = np.array(edges + [-v for v in edges], dtype=np.float32)
    assert np.signbit(z[len(edges) + 2]) and np.isnan(z[len(edges) + 2])  # -nan kept
    assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
    rng = np.random.default_rng(3)
    for scale in (1e-3, 1.0, 40.0, 800.0):
        z = rng.normal(scale=scale, size=(17, 9)).astype(np.float32)
        assert _sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


def test_sigmoid_output_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    net = Mlp([3, 16, 2], "sigmoid", rng)
    out = net.forward(rng.normal(scale=100.0, size=(50, 3)))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_zero_weights_sigmoid_gives_half():
    net = Mlp([5, 8, 3], "sigmoid", np.random.default_rng(0))
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    assert np.all(net.forward(np.array([3.0, -1.0, 0.0, 9.9, 2.0])) == 0.5)


def test_forward_shape_handling():
    net = Mlp([4, 8, 2], "identity", np.random.default_rng(1))
    single = net.forward(np.zeros(4))
    batch = net.forward(np.zeros((5, 4)))
    assert single.shape == (2,)
    assert batch.shape == (5, 2)
    with pytest.raises(DimensionMismatch):
        net.forward(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        net.forward(np.zeros((2, 3, 4)))


def reference_forward(net, x):
    """forward's arithmetic out of place, as float32 rows."""
    a = np.atleast_2d(np.asarray(x, dtype=np.float32))
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        if i < len(net.weights) - 1:
            a = np.maximum(z, 0.0)
        elif net.output_activation == "sigmoid":
            a = masked_sigmoid(z)
        else:
            a = z
    return a


@pytest.mark.parametrize("activation,sizes", AGENT_SHAPES + [("sigmoid", [3, 2])])
def test_forward_matches_out_of_place_reference_and_keeps_input(activation, sizes):
    rng = np.random.default_rng(14)
    net = Mlp(sizes, activation, rng)
    x = rng.normal(scale=3.0, size=(6, net.in_dim))
    x[0, 0] = -0.0
    kept = x.copy()
    assert net.forward(x).tobytes() == reference_forward(net, x).tobytes()
    assert net.forward(x[2]).tobytes() == reference_forward(net, x[2])[0].tobytes()
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("activation,sizes", AGENT_SHAPES + [("identity", [3, 2])])
def test_gradients_write_no_caller_array_or_cached_activation(activation, sizes):
    rng = np.random.default_rng(15)
    net = Mlp(sizes, activation, rng)
    x = rng.normal(size=(5, net.in_dim))
    out = net.forward(x)
    dout = rng.normal(size=(5, net.layer_sizes[-1]))
    dout_pre = rng.normal(size=(5, net.layer_sizes[-1]))
    cached = [c.copy() for c in net._cache_inputs]
    kept = (x.copy(), out.copy(), dout.copy(), dout_pre.copy())

    net.input_gradient(dout)
    net.backward(dout)
    net.backward(dout, dout_pre=dout_pre)

    assert all(a.tobytes() == b.tobytes() for a, b in zip((x, out, dout, dout_pre), kept))
    assert len(net._cache_inputs) == len(cached)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(net._cache_inputs, cached))
    assert net._cache_out is net._cache_inputs[-1]
    for wrong in (dout[:1], dout[:, :-1] if net.layer_sizes[-1] > 1 else dout[:2]):
        with pytest.raises(DimensionMismatch):
            net.backward(wrong)
        with pytest.raises(DimensionMismatch):
            net.input_gradient(wrong)


def test_forward_is_pure():
    net = Mlp([4, 8, 2], "sigmoid", np.random.default_rng(2))
    x = np.array([0.3, 0.7, -0.2, 5.0])
    assert np.array_equal(net.forward(x), net.forward(x))


def test_copy_is_independent():
    net = Mlp([3, 4, 1], "identity", np.random.default_rng(3))
    net.grads[...] = 1.0
    clone = net.copy()
    net.weights[0][0, 0] += 1.0
    assert clone.weights[0][0, 0] != net.weights[0][0, 0]
    assert np.shares_memory(clone.weights[0], clone.params)
    # the clone's gradients are zeros of their own, bound to its views
    assert clone.grads.shape == net.grads.shape and not clone.grads.any()
    assert not np.shares_memory(clone.grads, net.grads)
    assert all(np.shares_memory(g, clone.grads) for g in clone.grad_w + clone.grad_b)


def test_params_vector_layout():
    net = Mlp([3, 4, 2], "identity", np.random.default_rng(6))
    assert net.params.shape == net.grads.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    # w0, b0, w1, b1, each weight matrix row-major, in the initializer's draw order
    rng = np.random.default_rng(6)
    b0, b1 = 1.0 / np.sqrt(3), 1.0 / np.sqrt(4)
    draws = [rng.uniform(-b0, b0, size=(3, 4)), rng.uniform(-b0, b0, size=4),
             rng.uniform(-b1, b1, size=(4, 2)), rng.uniform(-b1, b1, size=2)]
    # each draw rounded to the float32 vector
    assert np.array_equal(net.params,
                          np.concatenate([d.ravel() for d in draws]).astype(np.float32))
    assert all(np.shares_memory(v, net.params) for v in net.weights + net.biases)
    net.weights[1][0, 1] = 9.0
    assert net.params[3 * 4 + 4 + 1] == 9.0
    net.forward(np.ones((2, 3)))
    net.backward(np.ones((2, 2)))  # writes into the views, not over them
    assert net.grads.any()
    assert all(np.shares_memory(g, net.grads) for g in net.grad_w + net.grad_b)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
def test_deepcopy_and_pickle_keep_views_bound(clone):
    net = Mlp([3, 4, 1], "identity", np.random.default_rng(8))
    other = clone(net)
    other.params[0] += 1.0
    assert other.weights[0][0, 0] == other.params[0] != net.weights[0][0, 0]
    assert np.shares_memory(other.grad_b[-1], other.grads)


def test_blend_from_formula():
    rng = np.random.default_rng(4)
    online = Mlp([2, 3, 1], "identity", rng)
    target = Mlp([2, 3, 1], "identity", rng)
    online.weights[0][:] = 2.0
    target.weights[0][:] = 1.0

    snapshot = [w.copy() for w in target.weights]
    target.blend_from(online, 0.0)
    assert all(np.array_equal(a, b) for a, b in zip(target.weights, snapshot))

    target.blend_from(online, 0.5)
    assert np.all(target.weights[0] == 1.5)

    target.blend_from(online, 1.0)
    assert all(np.array_equal(a, b) for a, b in zip(target.weights, online.weights))
    assert all(np.array_equal(a, b) for a, b in zip(target.biases, online.biases))


def test_adam_descends_on_regression():
    rng = np.random.default_rng(5)
    net = Mlp([3, 16, 1], "identity", rng)
    opt = Adam(net, lr=1e-2)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 1))
    losses = []
    for _ in range(500):
        err = net.forward(x) - y
        losses.append(float(np.mean(err**2)))
        net.backward((2.0 / err.size) * err)
        opt.step()
    assert losses[-1] < 0.1 * losses[0]


def test_adam_allocates_moments_at_its_first_step():
    rng = np.random.default_rng(6)
    net = Mlp([3, 5, 2], "identity", rng)
    twin = net.copy()
    opt, eager = Adam(net, lr=1e-2), Adam(twin, lr=1e-2)
    assert opt.m is None and opt.v is None
    eager.m, eager.v = np.zeros_like(twin.params), np.zeros_like(twin.params)
    x, dout = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    for _ in range(3):
        for n, o in ((net, opt), (twin, eager)):
            n.forward(x)
            n.backward(dout)
            o.step()
        assert opt.m.shape == opt.v.shape == net.params.shape
        assert opt.m.dtype == opt.v.dtype == net.params.dtype
        # the same floats as moments allocated before the first step
        assert net.params.tobytes() == twin.params.tobytes()
        assert opt.m.tobytes() == eager.m.tobytes() and opt.v.tobytes() == eager.v.tobytes()

