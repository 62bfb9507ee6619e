import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from _gradcheck import network_gradients, numeric_gradient, rel_err
from seqopt.nn import autodiff as ad
from seqopt.nn.autodiff import Tensor
from seqopt.nn.checkpoint import (CheckpointError, load_checkpoint, params_checksum,
                                  save_checkpoint)
from seqopt.nn.layers import Network, NonFiniteError, ParamStore, validate_descriptor
from seqopt.nn.optim import BETA1, BETA2, EPSILON, AdamState, adam_step, fit

TOL = 1e-4
rng = np.random.default_rng(20240612)


def check_input_grad(op, *arrays, wrt=0):
    """Compare reverse-mode input gradient of sum(op(...)) with central
    finite differences on operand `wrt`."""
    tensors = [Tensor(a.copy()) for a in arrays]
    out = op(*tensors)
    loss = ad.tsum(out)
    loss.backward()
    analytic = tensors[wrt].grad

    def f(x):
        args = [a.copy() for a in arrays]
        args[wrt] = x
        return float(ad.tsum(op(*[Tensor(a) for a in args])).data)

    numeric = numeric_gradient(f, arrays[wrt].copy())
    assert rel_err(analytic, numeric) < TOL


class TestOpGradients:
    def test_add_broadcast(self):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5,))
        check_input_grad(ad.add, a, b, wrt=0)
        check_input_grad(ad.add, a, b, wrt=1)

    def test_mul_broadcast(self):
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((4, 1))
        check_input_grad(ad.mul, a, b, wrt=0)
        check_input_grad(ad.mul, a, b, wrt=1)

    def test_matmul(self):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        check_input_grad(ad.matmul, a, b, wrt=0)
        check_input_grad(ad.matmul, a, b, wrt=1)

    def test_activations(self):
        x = rng.standard_normal((3, 7)) + 0.05  # keep away from relu kink
        check_input_grad(ad.relu, x)
        check_input_grad(lambda t: ad.leaky_relu(t, 0.1), x)
        check_input_grad(ad.tanh, x)
        check_input_grad(ad.exp, x)
        check_input_grad(ad.log, np.abs(x) + 0.5)

    @pytest.mark.parametrize("n", [*range(1, 34), 1000, 1001])
    def test_activations_special_values_match_where_reference(self, n):
        # every SIMD tail length, each ending in -0.0, where the scalar and
        # vector loops of a max-like ufunc may pick different zeros; the
        # smallest subnormals, whose leaky products round to zero; alphas from
        # the smallest subnormal to 1
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5,
                            5e-324, -5e-324])
        x = np.resize(special, n)
        x[-1] = -0.0
        g = rng.standard_normal(n)
        mask = x > 0
        cases = [(ad.relu, np.where(mask, x, 0.0), mask.astype(float))]
        for alpha in (5e-324, 0.01, 0.1, 1):
            cases.append((lambda t, alpha=alpha: ad.leaky_relu(t, alpha),
                          np.where(mask, x, alpha * x), np.where(mask, 1.0, alpha)))
        for op, y_ref, slope_ref in cases:
            t = Tensor(x.copy())
            y = op(t)
            y.backward(g)
            for got, want in ((y.data, y_ref), (t.grad, g * slope_ref)):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_leaky_relu_on_a_constant(self):
        x = np.array([[-3.0, -0.0, 0.0, 2.0], [np.inf, -np.inf, 1e-300, -1e-300]])
        for alpha in (0.01, 1):
            y = ad.leaky_relu(Tensor(x.copy(), requires_grad=False), alpha)
            assert not y.requires_grad
            want = np.where(x > 0, x, alpha * x)
            np.testing.assert_array_equal(y.data, want)
            np.testing.assert_array_equal(np.signbit(y.data), np.signbit(want))

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), 0.0])
    def test_leaky_relu_alpha_outside_unit_interval_refused(self, alpha):
        # at alpha = 0, max(x, alpha * x) is NaN for x = inf, not x * 1
        with pytest.raises(ValueError, match="alpha"):
            ad.leaky_relu(Tensor(np.ones(3)), alpha)

    def test_softmax_logsumexp(self):
        x = rng.standard_normal((4, 6))
        check_input_grad(lambda t: ad.softmax(t, axis=-1), x)
        check_input_grad(lambda t: ad.logsumexp(t, axis=-1), x)

    def test_reductions_and_shapes(self):
        x = rng.standard_normal((3, 4, 5))
        check_input_grad(lambda t: ad.tsum(t, axis=1), x)
        check_input_grad(lambda t: ad.tmean(t, axis=-1), x)
        check_input_grad(lambda t: ad.reshape(t, (3, 20)), x)
        check_input_grad(lambda t: ad.transpose(t, (2, 0, 1)), x)
        check_input_grad(lambda t: t[:, 1:3, :], x)

    def test_concat(self):
        a, b = rng.standard_normal((3, 2)), rng.standard_normal((3, 4))
        check_input_grad(lambda t, u: ad.concat([t, u], axis=1), a, b, wrt=0)
        check_input_grad(lambda t, u: ad.concat([t, u], axis=1), a, b, wrt=1)

    def test_gather_last(self):
        x = rng.standard_normal((4, 6, 5))
        idx = rng.integers(0, 5, size=(4, 6))
        check_input_grad(lambda t: ad.gather_last(t, idx), x)

    def test_conv1d(self):
        x = rng.standard_normal((2, 3, 8))
        w = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal(4)
        check_input_grad(ad.conv1d, x, w, b, wrt=0)
        check_input_grad(ad.conv1d, x, w, b, wrt=1)
        check_input_grad(ad.conv1d, x, w, b, wrt=2)

    def test_constant_operands_record_no_tape(self):
        c = Tensor(rng.standard_normal((3, 4)), requires_grad=False)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=False)
        out = ad.tanh(ad.matmul(c, w) + 1.0)
        assert not out.requires_grad and out.parents == () and out._backward is None

    def test_gradient_skips_operands_that_need_none(self):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        at, bt = Tensor(a), Tensor(b, requires_grad=False)
        ad.tsum(ad.matmul(at, bt)).backward()
        assert bt.grad is None
        np.testing.assert_allclose(at.grad, np.ones((3, 2)) @ b.T)

    def test_zero_adjoint_gives_zero_grads(self):
        x = Tensor(rng.standard_normal((3, 3)))
        out = ad.tanh(x)
        out.backward(np.zeros_like(out.data))
        assert np.all(x.grad == 0)

    def test_diamond_graph_accumulates(self):
        # y = x*x + x used twice; dy/dx = 2x + 1
        x = Tensor(np.array([1.5, -2.0]))
        y = ad.tsum(ad.mul(x, x) + x)
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * x.data + 1)


def conv1d_reference(x, w, b):
    """Same-padding conv1d straight from the definition:
    y[n, o, l] = sum_{c, j} x_pad[n, c, l + j] * w[o, c, j] + b[o]."""
    pad = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, w.shape[2], axis=2)
    return np.einsum("nclj,ocj->nol", windows, w) + b[None, :, None]


class TestConv1d:
    # (B, C_in, C_out, L, k)
    SHAPES = {"one_sequence": (1, 3, 3, 6, 3),
              "length_1": (3, 2, 2, 1, 3),
              "length_below_kernel": (2, 3, 3, 2, 5),
              "kernel_1": (3, 4, 4, 5, 1),
              "cin_ne_cout": (2, 3, 5, 7, 5)}

    @staticmethod
    def operands(B, cin, cout, L, k, seed=0):
        r = np.random.default_rng(seed)
        return (r.standard_normal((B, cin, L)), r.standard_normal((cout, cin, k)),
                r.standard_normal(cout))

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_forward_matches_einsum_reference(self, shape):
        x, w, b = self.operands(*shape)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, conv1d_reference(x, w, b), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_gradients_match_fd(self, shape):
        x, w, b = self.operands(*shape)
        for wrt in range(3):
            check_input_grad(ad.conv1d, x, w, b, wrt=wrt)

    @pytest.mark.parametrize("wrt", range(3))
    def test_gradient_does_not_depend_on_other_operands(self, wrt):
        arrays = self.operands(2, 3, 5, 7, 5)
        grads = []
        for others_need_grad in (True, False):
            ts = [Tensor(a, requires_grad=(i == wrt or others_need_grad))
                  for i, a in enumerate(arrays)]
            ad.tsum(ad.conv1d(*ts) * 0.5).backward()
            grads.append(ts[wrt].grad)
            if not others_need_grad:
                assert all(t.grad is None for i, t in enumerate(ts) if i != wrt)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_hard_shape_forward_matches_einsum_reference(self):
        x, w, b = self.operands(512, 48, 48, 20, 5, seed=1)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
        np.testing.assert_allclose(out, conv1d_reference(x, w, b), rtol=0, atol=1e-12)


class TestNetwork:
    def test_parameters_record_gradients_only_between_refresh_and_collect(self):
        desc = [{"kind": "dense", "in": 3, "out": 2}]
        net = Network.build(desc, seed=0)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=False)
        assert net.apply(x).parents == ()
        net.refresh()
        ad.tsum(net.apply(x)).backward()
        leaves = list(net._tensors.values())
        grads = net.params.views(net.collect_grads())
        np.testing.assert_allclose(grads["0.weight"], np.tile(x.data.sum(0)[:, None], (1, 2)))
        assert all(t.grad is not None for t in leaves)
        assert all(not t.requires_grad and t.grad is None
                   for t in net._tensors.values())
        assert net.apply(x).parents == ()

    def test_identity_dense_is_identity(self):
        desc = [{"kind": "dense", "in": 4, "out": 4}]
        net = Network.build(desc, seed=0)
        net.params.arrays["0.weight"][...] = np.eye(4)
        net.params.arrays["0.bias"][...] = 0.0
        net.refresh()
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(net.apply(Tensor(x, requires_grad=False)).data, x)

    def test_zero_weight_net_outputs_bias(self):
        desc = [{"kind": "dense", "in": 3, "out": 2}]
        net = Network.build(desc, seed=0)
        net.params.arrays["0.weight"][...] = 0.0
        net.params.arrays["0.bias"][...] = [1.0, -2.0]
        net.refresh()
        out = net.apply(Tensor(rng.standard_normal((5, 3)), requires_grad=False)).data
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (5, 1)))

    def test_two_layer_matches_hand_computation(self):
        desc = [{"kind": "dense", "in": 2, "out": 2},
                {"kind": "tanh"},
                {"kind": "dense", "in": 2, "out": 1}]
        net = Network.build(desc, seed=0)
        W1 = np.array([[1.0, 0.5], [-0.5, 2.0]])
        b1 = np.array([0.1, -0.1])
        W2 = np.array([[3.0], [-1.0]])
        b2 = np.array([0.25])
        net.params.arrays["0.weight"][...] = W1
        net.params.arrays["0.bias"][...] = b1
        net.params.arrays["2.weight"][...] = W2
        net.params.arrays["2.bias"][...] = b2
        net.refresh()
        x = np.array([[0.3, -0.7]])
        want = np.tanh(x @ W1 + b1) @ W2 + b2
        np.testing.assert_allclose(net.apply(Tensor(x, requires_grad=False)).data, want)

    def test_every_layer_kind_gradient_matches_fd(self):
        desc = [{"kind": "conv1d", "in_ch": 3, "out_ch": 4, "kernel": 3},
                {"kind": "leaky_relu", "alpha": 0.1},
                {"kind": "conv1d", "in_ch": 4, "out_ch": 2, "kernel": 3},
                {"kind": "tanh"},
                {"kind": "global_avg_pool"},
                {"kind": "dense", "in": 2, "out": 5},
                {"kind": "relu"},
                {"kind": "dense", "in": 5, "out": 4},
                {"kind": "softmax"},
                {"kind": "reshape", "shape": [2, 2]},
                {"kind": "flatten"}]
        net = Network.build(desc, seed=1)
        x = rng.standard_normal((2, 3, 6)) * 0.7 + 0.05
        adjoint = rng.standard_normal((2, 4))
        grads, xg = network_gradients(net, x, adjoint)

        def loss_wrt_input(xv):
            return float((net.apply(Tensor(xv, requires_grad=False)).data * adjoint).sum())

        assert rel_err(xg, numeric_gradient(loss_wrt_input, x.copy())) < TOL
        for name in grads:
            orig = net.params.arrays[name].copy()

            def loss_wrt_param(pv, name=name, orig=orig):
                net.params.arrays[name][...] = pv
                net.refresh()
                val = float((net.apply(Tensor(x, requires_grad=False)).data * adjoint).sum())
                net.params.arrays[name][...] = orig
                net.refresh()
                return val

            numeric = numeric_gradient(loss_wrt_param, orig.copy())
            assert rel_err(grads[name], numeric) < TOL, name

    def test_linear_layer_weight_grad_is_broadcast_input(self):
        desc = [{"kind": "dense", "in": 3, "out": 2}]
        net = Network.build(desc, seed=2)
        x = rng.standard_normal((1, 3))
        grads, _ = network_gradients(net, x, np.ones((1, 2)))
        np.testing.assert_allclose(grads["0.weight"], np.tile(x.T, (1, 2)))
        np.testing.assert_allclose(grads["0.bias"], np.ones(2))

    def test_determinism_same_seed(self):
        desc = [{"kind": "dense", "in": 6, "out": 4}, {"kind": "tanh"},
                {"kind": "dense", "in": 4, "out": 2}]
        a = Network.build(desc, seed=5)
        b = Network.build(desc, seed=5)
        x = Tensor(rng.standard_normal((7, 6)), requires_grad=False)
        assert np.array_equal(a.apply(x).data, b.apply(x).data)

    def test_non_finite_diagnostic_names_layer(self):
        desc = [{"kind": "dense", "in": 2, "out": 2}, {"kind": "relu"}]
        net = Network.build(desc, seed=0)
        net.params.arrays["0.weight"][0, 0] = np.inf
        net.refresh()
        with pytest.raises(NonFiniteError, match=r"layer 0 \(dense\)"):
            net.apply(Tensor(np.ones((1, 2)), requires_grad=False))

    def test_bad_descriptor_listed(self):
        problems = validate_descriptor([{"kind": "dense", "in": 0, "out": 2},
                                        {"kind": "warp"}])
        assert len(problems) == 2

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), 0, "0.1"])
    def test_leaky_relu_alpha_outside_unit_interval_listed(self, alpha):
        desc = [{"kind": "dense", "in": 2, "out": 2}, {"kind": "leaky_relu", "alpha": alpha}]
        assert validate_descriptor(desc) == [
            f"layer 1: leaky_relu 'alpha' must be a number in (0, 1], got {alpha!r}"]
        with pytest.raises(ValueError, match="layer 1: leaky_relu"):
            Network.build(desc, seed=0)
        assert validate_descriptor([{"kind": "leaky_relu", "alpha": 1},
                                    {"kind": "leaky_relu"}]) == []


class TestFlatLayout:
    DESCRIPTORS = {"built": [{"kind": "conv1d", "in_ch": 3, "out_ch": 4, "kernel": 3},
                             {"kind": "relu"}, {"kind": "global_avg_pool"},
                             {"kind": "dense", "in": 4, "out": 2}],
                   "parameter_free": [{"kind": "relu"}]}

    @pytest.mark.parametrize("source", ["built", "loaded", "parameter_free"])
    def test_arrays_are_views_of_one_buffer(self, tmp_path, source):
        net = Network.build(self.DESCRIPTORS.get(source, self.DESCRIPTORS["built"]), seed=3)
        if source != "built":  # the parameter-free network round-trips too
            save_checkpoint(tmp_path / "net.npz", "flow", net.descriptor, net.params)
            desc, params, _ = load_checkpoint(tmp_path / "net.npz", "flow")
            net = Network(desc, params)
        params = net.params
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert sum(arr.size for arr in params.arrays.values()) == params.flat.size
        assert all(np.shares_memory(arr, params.flat) for arr in params.arrays.values())
        assert (params.flat.size == 0) == (source == "parameter_free")

    def test_adam_on_flat_reaches_apply_without_refresh(self):
        net = Network.build(self.DESCRIPTORS["built"], seed=3)
        x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=False)
        before = net.apply(x).data
        adam_step(net.params, np.ones_like(net.params.flat), 0.1,
                  AdamState(net.params.flat.size))
        assert not np.array_equal(net.apply(x).data, before)

    def test_collect_grads_is_flat_with_zeros_where_tape_did_not_reach(self):
        net = Network.build(self.DESCRIPTORS["built"], seed=3)
        net.refresh()
        ad.tsum(net._tensors["3.bias"] * 2.0).backward()  # reaches one leaf only
        grad = net.collect_grads()
        assert isinstance(grad, np.ndarray) and grad.shape == net.params.flat.shape
        by_name = net.params.views(grad)
        np.testing.assert_array_equal(by_name["3.bias"], [2.0, 2.0])
        assert all(not g.any() for name, g in by_name.items() if name != "3.bias")

    def test_views_cut_any_buffer_in_layout_order(self):
        params = ParamStore({"w": np.ones((2, 3)), "b": np.zeros(2)}, 0)
        views = params.views(np.arange(8.0))
        assert list(views) == ["w", "b"]
        np.testing.assert_array_equal(views["w"], [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(views["b"], [6, 7])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = ParamStore({"w": np.array([1.0, -2.0])}, 0)
        before = params.arrays["w"].copy()
        state = adam_step(params, np.zeros(2), 1e-3, AdamState(2))
        np.testing.assert_array_equal(params.arrays["w"], before)
        assert state.step_count == 1

    def test_first_step_magnitude_is_learning_rate(self):
        # bias-corrected first step: lr * g/|g| up to epsilon
        for g in (1e-4, 3.7, -250.0):
            params = ParamStore({"w": np.array([0.0])}, 0)
            adam_step(params, np.array([g]), 0.01, AdamState(1))
            assert abs(abs(params.arrays["w"][0]) - 0.01) < 1e-5
            assert np.sign(params.arrays["w"][0]) == -np.sign(g)

    def test_moments_updated_in_place(self, monkeypatch):
        params = ParamStore({"w": np.ones(3), "b": np.zeros(2)}, 0)
        grad = np.array([0.5, 0.5, 0.5, 1.0, 1.0])
        state = AdamState(params.flat.size)
        moments = state.m, state.v
        calls = []
        for name in ("zeros", "zeros_like"):
            original = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, original=original, **k:
                                calls.append(a) or original(*a, **k))
        for _ in range(3):
            adam_step(params, grad, 1e-3, state)
        assert calls == []
        assert state.m is moments[0] and state.v is moments[1]
        assert state.m.any() and state.v.any()

    def test_wrong_gradient_shape_refused(self):
        params = ParamStore({"w": np.ones(3), "b": np.zeros(2)}, 0)
        with pytest.raises(ValueError, match=r"gradient shape \(3,\) != parameter shape \(5,\)"):
            adam_step(params, np.ones(3), 1e-3, AdamState(5))

    def test_one_pass_matches_per_array_reference_bitwise(self):
        """The flat update gives, bit for bit, the per-array update rule
        written out here, on a network with conv and dense arrays."""
        net = Network.build(TestFlatLayout.DESCRIPTORS["built"], seed=4)
        params, lr = net.params, 3e-3
        ref = {name: arr.copy() for name, arr in params.arrays.items()}
        m = {name: np.zeros_like(arr) for name, arr in ref.items()}
        v = {name: np.zeros_like(arr) for name, arr in ref.items()}
        state = AdamState(params.flat.size)
        for t in range(1, 8):
            grad = rng.standard_normal(params.flat.size) * 10.0 ** rng.integers(-6, 3)
            adam_step(params, grad, lr, state)
            for name, g in params.views(grad).items():
                m[name] *= BETA1
                m[name] += (1 - BETA1) * g
                v[name] *= BETA2
                v[name] += (1 - BETA2) * g * g
                m_hat = m[name] / (1 - BETA1 ** t)
                v_hat = v[name] / (1 - BETA2 ** t)
                ref[name] -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            for name, arr in params.arrays.items():
                assert arr.tobytes() == ref[name].tobytes(), (t, name)

    @pytest.mark.parametrize("size", [22_286, 30_800, 43_300])
    def test_allocation_free_update_matches_formula_bitwise(self, size):
        """Twenty steps on one flat buffer give the update written as one
        expression per line, bit for bit, and allocate no array."""
        gen = np.random.default_rng(size)
        params = ParamStore({"w": gen.standard_normal(size)}, 0)
        ref, lr = params.flat.copy(), 1e-3
        m, v = np.zeros(size), np.zeros(size)
        state = AdamState(size)
        for t in range(1, 21):
            grad = gen.standard_normal(size) * 10.0 ** gen.integers(-6, 3)
            tracemalloc.start()
            try:
                adam_step(params, grad, lr, state)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < size  # bytes: not one float64 array of the parameters
            m *= BETA1
            m += (1 - BETA1) * grad
            v *= BETA2
            v += (1 - BETA2) * grad * grad
            m_hat = m / (1 - BETA1 ** t)
            v_hat = v / (1 - BETA2 ** t)
            ref -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)
            assert params.flat.tobytes() == ref.tobytes(), t
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()

    def test_constant_gradient_moves_monotonically(self):
        # scalar simulation: independently replay the update rule
        lr = 0.05
        params = ParamStore({"w": np.array([0.0])}, 0)
        state = AdamState(1)
        m = v = 0.0
        w_ref = 0.0
        history = []
        for t in range(1, 51):
            adam_step(params, np.array([2.5]), lr, state)
            m = BETA1 * m + (1 - BETA1) * 2.5
            v = BETA2 * v + (1 - BETA2) * 2.5 ** 2
            w_ref -= lr * (m / (1 - BETA1 ** t)) / (np.sqrt(v / (1 - BETA2 ** t)) + EPSILON)
            history.append(params.arrays["w"][0])
        assert params.arrays["w"][0] == pytest.approx(w_ref)
        assert all(b < a for a, b in zip(history, history[1:]))  # strictly down

    def test_bad_config_rejected(self):
        net = Network.build([{"kind": "dense", "in": 1, "out": 1}], seed=0)
        for lr in (-1, 0):
            with pytest.raises(ValueError, match="learning_rate"):
                fit([net], lambda: iter(()), None, lr, epochs=1)


class TestCheckpoint:
    def _net(self):
        desc = [{"kind": "dense", "in": 3, "out": 4}, {"kind": "tanh"},
                {"kind": "dense", "in": 4, "out": 1}]
        return desc, Network.build(desc, seed=9)

    def test_round_trip_bitwise(self, tmp_path):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params, extra={"role": "predictor"})
        desc2, params2, extra = load_checkpoint(p, "predictor")
        assert desc2 == desc and extra["role"] == "predictor"
        for name in net.params.arrays:
            assert np.array_equal(params2.arrays[name], net.params.arrays[name])
        net2 = Network(desc2, params2)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=False)
        assert np.array_equal(net.apply(x).data, net2.apply(x).data)

    def test_corrupted_checksum_refused(self, tmp_path):
        import json
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        # flip the stored checksum inside the archive
        with np.load(p) as zf:
            meta = json.loads(str(zf["__meta__"]))
            arrays = {k: zf[k] for k in zf.files if k != "__meta__"}
        meta["checksum"] = "0" * 64
        with open(p, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(p, "predictor")

    def test_unsupported_layer_refused(self, tmp_path):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        bad_desc = [{"kind": "attention"}]
        save_checkpoint(p, "predictor", bad_desc, net.params)
        with pytest.raises(CheckpointError, match="unsupported"):
            load_checkpoint(p, "predictor")

    @pytest.mark.parametrize("edit,problem", [
        ("reshape", "parameter array '0.weight' has shape (4, 4), the descriptor gives (3, 4)"),
        ("drop", "parameter array '2.bias' of shape (1,) is missing"),
        ("add", "parameter array '1.weight' is not in the descriptor"),
    ])
    def test_arrays_must_match_descriptor(self, tmp_path, edit, problem):
        desc, net = self._net()
        arrays = dict(net.params.arrays)
        if edit == "reshape":
            arrays["0.weight"] = np.zeros((4, 4))
        elif edit == "drop":
            del arrays["2.bias"]
        else:
            arrays["1.weight"] = np.zeros(2)
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, ParamStore(arrays, 9))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p, "predictor")
        assert str(info.value) == f"{p}: {problem}"

    def test_metadata_fields_required_and_converted(self, tmp_path):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params, extra={"length": 8, "beta": "x"})
        assert load_checkpoint(p, "predictor", {"length": float})[2]["length"] == 8.0
        for fields, problem in (({"vocab_size": int}, "metadata field 'vocab_size' is missing"),
                                ({"beta": float}, "metadata field 'beta' is not float: 'x'")):
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(p, "predictor", fields)
            assert str(info.value) == f"{p}: {problem}"

    def test_rng_seed_not_an_int_refused(self, tmp_path):
        desc, net = self._net()
        net.params.rng_seed = "x"
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p, "predictor")
        assert str(info.value) == f"{p}: metadata field 'rng_seed' is not int: 'x'"

    @pytest.mark.parametrize("meta", [[1, 2], {"version": 1, "kind": "predictor", "extra": None}])
    def test_metadata_not_an_object_refused(self, tmp_path, meta):
        import json
        p = tmp_path / "model.npz"
        with open(p, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p, "predictor", {"length": int})
        assert str(info.value) == f"{p}: metadata is not an object with an 'extra' object"

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan")])
    def test_leaky_relu_alpha_outside_unit_interval_refused(self, tmp_path, alpha):
        desc = [{"kind": "dense", "in": 3, "out": 4}, {"kind": "leaky_relu", "alpha": alpha},
                {"kind": "dense", "in": 4, "out": 1}]
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, self._net()[1].params)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p, "predictor")
        assert str(info.value) == (f"{p}: layer 1: leaky_relu 'alpha' must be a number "
                                   f"in (0, 1], got {alpha!r}")

    def test_checksum_hashes_name_shape_and_bytes(self):
        """The checksum reads each array's bytes in place; it equals sha256 over
        copies of them, for a store as built and after its buffer moved."""
        import hashlib

        def reference(params):
            h = hashlib.sha256()
            for name in sorted(params.arrays):
                arr = params.arrays[name]
                h.update(name.encode())
                h.update(str(arr.shape).encode())
                h.update(arr.tobytes())
            return h.hexdigest()

        desc = [{"kind": "conv1d", "in_ch": 3, "out_ch": 4, "kernel": 3}, {"kind": "relu"},
                {"kind": "global_avg_pool"}, {"kind": "dense", "in": 4, "out": 2}]
        net = Network.build(desc, seed=5)
        assert params_checksum(net.params) == reference(net.params)
        size = net.params.flat.size
        larger = np.full(size + 11, np.nan)
        net.move_params(larger[7:7 + size])
        assert np.shares_memory(net.params.arrays["0.weight"], larger)
        assert params_checksum(net.params) == reference(net.params)
        store = ParamStore({"w": rng.standard_normal((2, 5)), "empty": np.zeros((0, 3)),
                            "b": rng.standard_normal(5)}, 0)
        store.arrays["w"] = store.arrays["w"].T  # a strided view
        assert params_checksum(store) == reference(store)

    def test_checksum_tracks_content(self):
        _, net = self._net()
        c1 = params_checksum(net.params)
        net.params.arrays["0.weight"][0, 0] += 1.0
        assert params_checksum(net.params) != c1

    def test_wrong_kind_refused(self, tmp_path):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(p, "flow")
        assert str(info.value) == f"{p}: checkpoint kind 'predictor' is not 'flow'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(tmp_path / "nope.npz", "predictor")

    @pytest.mark.parametrize("cut", ["half", 10, 0])
    def test_truncated_file_refused(self, tmp_path, cut):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) // 2 if cut == "half" else cut])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(p, "predictor")

    def test_truncated_file_handle_closed(self, tmp_path):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError, match="unreadable"):
                load_checkpoint(p, "predictor")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        desc, net = self._net()
        p = tmp_path / "model.npz"
        save_checkpoint(p, "predictor", desc, net.params)
        before = p.read_bytes()

        def crash(fh, **arrays):
            fh.write(b"PK partial archive")
            raise OSError("disk full")
        monkeypatch.setattr(np, "savez", crash)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(p, "predictor", desc, net.params)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["model.npz"]
