import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from textclf import nn
from textclf.nn import ShapeError, Tensor


class TestTensorBasics:
    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([np.inf, 1.0])

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2).backward()

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0 + x).sum()
        y.backward()
        assert x.grad.tolist() == [4.0]

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.tolist() == [3.0] * 4

    def test_extreme_magnitudes_stay_finite(self):
        big = Tensor(np.array([1e4, -1e4]))
        assert np.all(np.isfinite(big.sigmoid().data))
        assert np.all(np.isfinite(big.tanh().data))
        assert np.all(np.isfinite(nn.softmax(big).data))
        assert np.all(np.isfinite(big.relu().data))

    def test_extreme_magnitudes_through_layers(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.choice([-1e4, 1e4], size=(6, 2)))
        k = Tensor(rng.choice([-1e4, 1e4], size=(3, 2, 2)).astype(np.float32))
        assert np.all(np.isfinite(nn.conv1d(x, k).data))
        assert np.all(np.isfinite(nn.maxpool1d(x, 4).data))
        assert np.all(np.isfinite(nn.global_maxpool(x).data))
        params = nn.init_lstm_params(2, 3, rng=rng)
        state = nn.LstmState(Tensor(np.full(3, 1e4)), Tensor(np.full(3, -1e4)))
        new, gates = nn.lstm_step(Tensor(np.full(2, 1e4)), state, params)
        assert np.all(np.isfinite(new.hidden.data))
        assert np.all(np.isfinite(new.cell.data))

    def test_extreme_probabilities_clamped_in_loss(self):
        pred = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = nn.cross_entropy_loss(pred, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.isfinite(float(loss.data))
        binary = nn.cross_entropy_loss(Tensor(np.array([0.0, 1.0])),
                                       np.array([1.0, 0.0]), kind="binary")
        assert np.isfinite(float(binary.data))

    def test_softmax_rows_sum_to_one_extreme_inputs(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.choice([-1e4, 0.0, 1e4], size=(10, 7)))
        np.testing.assert_allclose(nn.softmax(x).data.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("key", [3, (slice(1, 5), 2), (Ellipsis, -1), (None, slice(None, None, 2)),
                                     (np.int64(2), slice(None, None, -1), None)])
    def test_basic_index_gradient_matches_scatter_add(self, key):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(6, 4, 3)), requires_grad=True)
        w = rng.normal(size=x.data[key].shape)
        (x[key] * Tensor(w)).sum().backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, key, w)
        np.testing.assert_array_equal(x.grad, expected)

    def test_integer_array_index_accumulates_repeats(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        (x[np.array([1, 3, 1, 1])] * Tensor([1.0, 2.0, 3.0, 4.0])).sum().backward()
        assert x.grad.tolist() == [0.0, 8.0, 0.0, 2.0, 0.0]
        y = Tensor(np.ones((3, 2)), requires_grad=True)
        y[[0, 0], 1].sum().backward()
        assert y.grad.tolist() == [[0.0, 2.0], [0.0, 0.0], [0.0, 0.0]]


class TestConv1d:
    def test_hand_convolution(self):
        out = nn.conv1d(
            Tensor(np.ones((4, 1))), Tensor(np.ones((3, 1, 1))), Tensor(np.zeros(1))
        )
        assert out.data.ravel().tolist() == [2.0, 3.0, 3.0, 2.0]

    def test_zero_kernel_zero_output(self):
        out = nn.conv1d(Tensor(np.random.default_rng(0).normal(size=(5, 2))),
                        Tensor(np.zeros((3, 2, 4))))
        assert np.all(out.data == 0.0)

    def test_same_length_even_kernel(self):
        out = nn.conv1d(Tensor(np.ones((6, 1))), Tensor(np.ones((4, 1, 2))))
        assert out.data.shape == (6, 2)

    def test_linear_in_input(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 2))
        k = Tensor(rng.normal(size=(3, 2, 2)))
        a = nn.conv1d(Tensor(2.0 * x), k).data
        b = nn.conv1d(Tensor(x), k).data
        np.testing.assert_allclose(a, 2.0 * b, rtol=1e-5)

    def test_channel_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match="channels"):
            nn.conv1d(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2, 1))))

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 8])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("length", [7, 3])
    def test_matches_im2col_oracle(self, width, batched, with_bias, length):
        rng = np.random.default_rng(width * 10 + length)
        C, F = 5, 4
        x_shape = ((3,) if batched else ()) + (length, C)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        k = Tensor(rng.normal(size=(width, C, F)), requires_grad=True)
        b = Tensor(rng.normal(size=F), requires_grad=True) if with_bias else None
        g = rng.normal(size=x_shape[:-1] + (F,))
        out = nn.conv1d(x, k, b)
        (out * Tensor(g)).sum().backward()
        ref_out, ref_dk, ref_db, ref_dx = oracles.im2col_conv1d(
            x.data, k.data, None if b is None else b.data, g)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-10)
        np.testing.assert_allclose(k.grad, ref_dk, rtol=0, atol=1e-10)
        np.testing.assert_allclose(x.grad, ref_dx, rtol=0, atol=1e-10)
        if b is not None:
            np.testing.assert_allclose(b.grad, ref_db, rtol=0, atol=1e-10)

    def test_tape_retains_no_unrolled_windows(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(8, 50, 64)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(8, 64, 16)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = nn.conv1d(x, k)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2 * x.data.nbytes + out.data.nbytes
        out.sum().backward()
        assert k.grad.shape == k.data.shape and x.grad.shape == x.data.shape


class TestPooling:
    def test_hand_pool(self):
        x = Tensor(np.array([1, 3, 2, 4, 0, 0, 5, 1.0]).reshape(8, 1))
        assert nn.maxpool1d(x, 4).data.ravel().tolist() == [4.0, 5.0]

    def test_shape_contract_100x100(self):
        out = nn.maxpool1d(Tensor(np.zeros((100, 100))), 4)
        assert out.data.shape == (25, 100)

    def test_global_pool_shape(self):
        out = nn.global_maxpool(Tensor(np.zeros((25, 100))))
        assert out.data.shape == (100,)

    def test_ceiling_partial_window(self):
        out = nn.maxpool1d(Tensor(np.arange(7.0).reshape(7, 1)), 4)
        assert out.data.ravel().tolist() == [3.0, 6.0]

    def test_gradient_routes_to_first_argmax(self):
        x = Tensor(np.array([[1.0], [1.0], [0.0], [1.0]]), requires_grad=True)
        nn.maxpool1d(x, 4).sum().backward()
        assert x.grad.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]

    @given(st.integers(1, 9), st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_length_algebra(self, length, pool, feats):
        out = nn.maxpool1d(Tensor(np.zeros((length, feats))), pool)
        assert out.data.shape == (-(-length // pool), feats)


class TestLstm:
    def _zero_params(self, input_dim=2, units=3, peephole=False):
        params = nn.init_lstm_params(input_dim, units, peephole=peephole,
                                     rng=np.random.default_rng(0))
        for table in (params.w_x, params.w_h, params.b):
            for gate in table:
                table[gate].data[...] = 0.0
        if peephole:
            for gate in params.w_c:
                params.w_c[gate].data[...] = 0.0
        return params

    def test_zero_params_zero_cell(self):
        params = self._zero_params()
        state = nn.LstmState(Tensor(np.zeros(3)), Tensor(np.zeros(3)))
        new, gates = nn.lstm_step(Tensor(np.zeros(2)), state, params)
        for g in ("i", "f", "o"):
            np.testing.assert_allclose(gates[g].data, 0.5)
        np.testing.assert_allclose(new.cell.data, 0.0)
        np.testing.assert_allclose(new.hidden.data, 0.0)

    def test_zero_params_carried_cell(self):
        params = self._zero_params()
        state = nn.LstmState(Tensor(np.zeros(3)), Tensor(np.full(3, 2.0)))
        new, _ = nn.lstm_step(Tensor(np.zeros(2)), state, params)
        np.testing.assert_allclose(new.cell.data, 1.0)
        np.testing.assert_allclose(new.hidden.data, 0.5 * np.tanh(1.0), rtol=1e-6)

    def test_gate_values_in_unit_interval(self):
        rng = np.random.default_rng(5)
        params = nn.init_lstm_params(4, 6, rng=rng)
        state = nn.LstmState(Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6)))
        _, gates = nn.lstm_step(Tensor(rng.normal(size=4)), state, params)
        for g in ("i", "f", "o"):
            assert np.all(gates[g].data > 0) and np.all(gates[g].data < 1)

    def test_conv_mode_needs_odd_width(self):
        with pytest.raises(ValueError, match="odd"):
            nn.init_lstm_params(2, 3, mode="conv", kernel_width=4)

    def test_forward_over_sequence(self):
        params = nn.init_lstm_params(2, 3, rng=np.random.default_rng(1))
        xs = [Tensor(np.random.default_rng(i).normal(size=2)) for i in range(4)]
        states, final = nn.lstm_forward(xs, params)
        assert len(states) == 4
        assert final.hidden.data.shape == (3,)


def _step_chain(xs, params, state):
    """Reference for lstm_forward: one lstm_step tape per timestep."""
    hidden = []
    for x in xs:
        state, _ = nn.lstm_step(x, state, params)
        hidden.append(state.hidden)
    return hidden, state


class TestFusedLstm:
    """The fused sequence op against a chain of lstm_step calls, float64."""

    @pytest.mark.parametrize("mode", ["dense", "conv"])
    @pytest.mark.parametrize("peephole", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("given_state", [False, True])
    def test_matches_step_chain(self, mode, peephole, batched, given_state):
        rng = np.random.default_rng(31)
        D, U, L, T, B = 3, 4, 5, 6, 2
        params = nn.init_lstm_params(D, U, mode=mode, kernel_width=3, seq_len=L,
                                     peephole=peephole, rng=rng, dtype=np.float64)
        for gate in (params.w_c or {}):
            params.w_c[gate].data[...] = rng.normal(scale=0.5, size=params.w_c[gate].shape)
        step = ((B,) if batched else ()) + ((D,) if mode == "dense" else (L, D))
        state_shape = step[:-1] + (U,)
        xs = [rng.normal(size=step) for _ in range(T)]
        h0, c0 = (rng.normal(size=state_shape) if given_state else np.zeros(state_shape)
                  for _ in range(2))
        readout = rng.normal(size=(T + 1,) + state_shape)

        def run(forward):
            x_tensors = [Tensor(x, requires_grad=True) for x in xs]
            state = nn.LstmState(Tensor(h0, requires_grad=True), Tensor(c0, requires_grad=True))
            hidden, final = forward(x_tensors, params, state if given_state else None)
            loss = (final.cell * Tensor(readout[T])).sum()
            for t, h in enumerate(hidden):
                loss = loss + (h * Tensor(readout[t])).sum()
            for tensor in params.tensors().values():
                tensor.zero_grad()
            loss.backward()
            grads = {n: t.grad for n, t in params.tensors().items()}
            grads.update({f"x{t}": x.grad for t, x in enumerate(x_tensors)})
            if given_state:
                grads.update(h0=state.hidden.grad, c0=state.cell.grad)
            return [h.data for h in hidden], final, grads

        def chain(x_tensors, params, state):
            if state is None:
                state = nn.LstmState(Tensor(np.zeros(state_shape)), Tensor(np.zeros(state_shape)))
            return _step_chain(x_tensors, params, state)

        fused_h, fused_final, fused_grads = run(nn.lstm_forward)
        ref_h, ref_final, ref_grads = run(chain)
        assert len(fused_h) == T
        for a, b in zip(fused_h, ref_h):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fused_final.hidden.data, ref_final.hidden.data, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fused_final.cell.data, ref_final.cell.data, rtol=0, atol=1e-10)
        assert fused_grads.keys() == ref_grads.keys()
        for name, grad in ref_grads.items():
            np.testing.assert_allclose(fused_grads[name], grad, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("mode", ["dense", "conv"])
    def test_sequence_tensor_form_matches_list_form(self, mode):
        rng = np.random.default_rng(32)
        params = nn.init_lstm_params(3, 4, mode=mode, kernel_width=3, seq_len=5,
                                     rng=rng, dtype=np.float64)
        step = (2, 3) if mode == "dense" else (2, 5, 3)
        xs = [rng.normal(size=step) for _ in range(6)]
        listed, final = nn.lstm_forward([Tensor(x) for x in xs], params)
        whole, whole_final = nn.lstm_forward(Tensor(np.stack(xs, axis=1)), params)
        assert whole.shape == (2, 6) + step[1:-1] + (4,)
        np.testing.assert_array_equal(whole.data, np.stack([h.data for h in listed], axis=1))
        np.testing.assert_array_equal(whole_final.cell.data, final.cell.data)

    def test_nonfinite_projection_raises(self):
        params = nn.init_lstm_params(2, 3, rng=np.random.default_rng(0))
        params.w_x["i"].data[...] = 3e38
        with pytest.raises(FloatingPointError), np.errstate(over="ignore"):
            nn.lstm_forward(Tensor(np.full((1, 2, 2), 10.0, dtype=np.float32)), params)

    def test_wrong_sequence_rank_rejected(self):
        params = nn.init_lstm_params(2, 3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            nn.lstm_forward(Tensor(np.zeros((4, 2))), params)


class TestDropoutNoise:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert nn.dropout(x, 0.5, train_mode=False) is x
        assert nn.gaussian_noise(x, 0.3, train_mode=False) is x

    def test_rate_zero_identity(self):
        x = Tensor(np.ones(5))
        assert nn.dropout(x, 0.0, train_mode=True) is x

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            nn.dropout(Tensor(np.ones(2)), 1.0, train_mode=True)
        with pytest.raises(ValueError):
            nn.gaussian_noise(Tensor(np.ones(2)), -0.1, train_mode=True)

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones(100_000))
        out = nn.dropout(x, 0.5, train_mode=True, rng=np.random.default_rng(0))
        # mean of masked/rescaled values ~ N(1, sigma/sqrt(n)); 3 sigma band
        sigma = 1.0 / np.sqrt(100_000)
        assert abs(out.data.mean() - 1.0) < 3 * sigma

    def test_noise_statistics(self):
        x = Tensor(np.zeros(100_000))
        out = nn.gaussian_noise(x, 0.1, train_mode=True, rng=np.random.default_rng(1))
        assert abs(out.data.mean()) < 3 * 0.1 / np.sqrt(100_000)
        assert abs(out.data.std() - 0.1) < 0.005

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_noise_drawn_in_input_dtype(self, dtype):
        x = Tensor(np.zeros(8, dtype=dtype))
        out = nn.gaussian_noise(x, 0.5, train_mode=True, rng=np.random.default_rng(3))
        assert out.data.dtype == dtype
        expected = np.random.default_rng(3).standard_normal(8, dtype=dtype) * 0.5
        np.testing.assert_array_equal(out.data, expected)

    def test_seeded_mask_reproducible(self):
        x = Tensor(np.ones(64))
        a = nn.dropout(x, 0.3, True, rng=np.random.default_rng(9)).data
        b = nn.dropout(x, 0.3, True, rng=np.random.default_rng(9)).data
        assert np.array_equal(a, b)


class TestDenseSoftmaxLoss:
    def test_softmax_uniform(self):
        np.testing.assert_allclose(nn.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_relu(self):
        assert nn.relu(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = nn.softmax(Tensor(rng.normal(scale=100, size=(8, 5))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_perfect_prediction_near_zero_loss(self):
        pred = Tensor(np.array([[1.0, 0.0]]))
        loss = nn.cross_entropy_loss(pred, np.array([[1.0, 0.0]]))
        assert 0.0 <= float(loss.data) < 1e-11

    def test_uniform_five_way(self):
        pred = Tensor(np.full((1, 5), 0.2))
        target = np.zeros((1, 5)); target[0, 3] = 1.0
        assert abs(float(nn.cross_entropy_loss(pred, target).data) - np.log(5)) < 1e-6

    def test_binary_half(self):
        loss = nn.cross_entropy_loss(Tensor(np.array([0.5])), np.array([1.0]), kind="binary")
        assert abs(float(loss.data) - np.log(2)) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.cross_entropy_loss(Tensor(np.ones((2, 3)) / 3), np.ones((3, 2)))

    def test_fused_loss_saturated_wrong_row_keeps_gradient(self):
        logits = Tensor(np.array([[0.0, 200.0, 0.0]]), requires_grad=True)
        loss = nn.softmax_cross_entropy(logits, np.array([0]))
        loss.backward()
        assert abs(float(loss.data) - 200.0) < 1e-9
        np.testing.assert_allclose(logits.grad, [[-1.0, 1.0, 0.0]], atol=1e-12)

    def test_fused_loss_equals_composed_loss(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        fused = nn.softmax_cross_entropy(Tensor(scores), labels)
        composed = nn.cross_entropy_loss(nn.softmax(Tensor(scores)), nn.one_hot(labels, 4, np.float64))
        assert abs(float(fused.data) - float(composed.data)) < 1e-12
        binary = nn.cross_entropy_loss(nn.softmax(Tensor(scores[:, :2]))[:, 1],
                                       (labels % 2).astype(float), kind="binary")
        assert abs(float(nn.softmax_cross_entropy(Tensor(scores[:, :2]), labels % 2).data)
                   - float(binary.data)) < 1e-12

    def test_fused_loss_label_checks(self):
        with pytest.raises(ShapeError):
            nn.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))
        with pytest.raises(ValueError, match="labels"):
            nn.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestAdagrad:
    def test_first_step_magnitude(self):
        param = np.array([1.0])
        state = nn.AdagradState((1,), learning_rate=0.01)
        nn.adagrad_update(param, np.array([3.0]), state)
        assert abs(param[0] - (1.0 - 0.01)) < 1e-8

    def test_zero_gradient_no_change(self):
        param = np.array([1.0, 2.0])
        state = nn.AdagradState((2,), learning_rate=0.5)
        nn.adagrad_update(param, np.zeros(2), state)
        assert param.tolist() == [1.0, 2.0]

    def test_steps_shrink(self):
        param = np.array([0.0])
        state = nn.AdagradState((1,), learning_rate=0.1)
        nn.adagrad_update(param, np.array([1.0]), state)
        first = abs(param[0])
        before = param[0]
        nn.adagrad_update(param, np.array([1.0]), state)
        second = abs(param[0] - before)
        assert second < first

    def test_accumulator_monotone(self):
        state = nn.AdagradState((1,), learning_rate=0.1)
        param = np.array([0.0])
        last = 0.0
        for g in (1.0, -2.0, 0.5):
            nn.adagrad_update(param, np.array([g]), state)
            assert state.accumulator[0] >= last
            last = state.accumulator[0]

    def test_shape_mismatch(self):
        state = nn.AdagradState((2,), learning_rate=0.1)
        with pytest.raises(ShapeError):
            nn.adagrad_update(np.zeros(3), np.zeros(3), state)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "layer1": rng.normal(size=(3, 4)).astype(np.float32),
            "layer2": rng.normal(size=(5,)).astype(np.float32),
            "wide": rng.normal(size=(2, 3)),
            "ids32": rng.integers(-2**31, 2**31 - 1, size=(7,), dtype=np.int32),
            "ids64": rng.integers(-2**62, 2**62, size=(2, 2), dtype=np.int64),
            "empty": np.zeros((0, 3)),
        }
        nn.save_checkpoint(tmp_path, arrays, meta={"seed": 7})
        loaded, meta = nn.load_checkpoint(tmp_path)
        assert meta["seed"] == 7
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype, name
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_manifest_records_shapes(self, tmp_path):
        import json

        nn.save_checkpoint(tmp_path, {"w": np.zeros((2, 3), dtype=np.float32)})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["layers"][0]["shape"] == [2, 3]
        assert manifest["layers"][0]["dtype"] == "<f4"
        assert manifest["format_version"] == 2

    def test_unsupported_dtype_not_saved(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            nn.save_checkpoint(tmp_path, {"mask": np.ones(3, dtype=bool)})

    @pytest.mark.parametrize("field,value,message", [
        ("format_version", 1, "format version"),
        ("dtype", "<f2", "dtype"),
        ("offset", 4, "starts at byte"),
        ("shape", [2, 5], "runs past"),
        ("shape", [2, "3"], "shape"),
    ])
    def test_manifest_not_matching_weights_rejected(self, tmp_path, field, value, message):
        import json

        nn.save_checkpoint(tmp_path, {"a": np.arange(6.0).reshape(2, 3),
                                      "b": np.arange(4, dtype=np.int32)})
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        if field == "format_version":
            manifest[field] = value
        else:
            manifest["layers"][-1 if field == "offset" else 0][field] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=message):
            nn.load_checkpoint(tmp_path)

    @pytest.mark.parametrize("change,message", [(8, "holds 56 bytes"), (-8, "runs past")])
    def test_weights_length_must_match_manifest(self, tmp_path, change, message):
        nn.save_checkpoint(tmp_path, {"w": np.arange(6.0)})
        blob = (tmp_path / "weights.bin").read_bytes()
        (tmp_path / "weights.bin").write_bytes(blob + bytes(change) if change > 0
                                               else blob[:change])
        with pytest.raises(ValueError, match=message):
            nn.load_checkpoint(tmp_path)
