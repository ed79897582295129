"""Finite-difference verification of every differentiable operation.

Each op is checked on 20 random small instances in float64.  Relative
error thresholds: 1e-6 for affine/softmax compositions, 1e-5 for
convolution and the embedding-trainer steps, 1e-4 for recurrent
backprop through time.  Random inputs keep activations away from
relu/argmax kinks; seeds are fixed so runs are reproducible.
"""

import numpy as np
import pytest

import oracles
from textclf import nn
from textclf.nn import Tensor
from textclf.embeddings import (
    glove_pair_loss_and_grads,
    sgns_pair_loss_and_grads,
    subword_pair_loss_and_grads,
)
from textclf.model import fasttext_doc_loss_and_grads

N_INSTANCES = 20


def t64(rng, shape, requires_grad=True, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=requires_grad,
                  dtype=np.float64)


class TestLayerGradients:
    def test_conv1d(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(seed)
            L, C, K, F = rng.integers(4, 9), rng.integers(1, 4), rng.integers(1, 5), rng.integers(1, 4)
            x = t64(rng, (L, C))
            k = t64(rng, (K, C, F))
            b = t64(rng, (F,))
            readout = rng.normal(size=(L, F))
            err = nn.finite_difference_check(
                lambda x, k, b: (nn.conv1d(x, k, b) * Tensor(readout, dtype=np.float64)).sum(),
                [x, k, b],
            )
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_maxpool_and_global(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(100 + seed)
            L, F, pool = int(rng.integers(3, 10)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = t64(rng, (L, F))
            w1 = rng.normal(size=(-(-L // pool), F))
            err = nn.finite_difference_check(
                lambda x: (nn.maxpool1d(x, pool) * Tensor(w1, dtype=np.float64)).sum(), [x]
            )
            assert err < 1e-5, f"seed {seed}: {err}"
            w2 = rng.normal(size=F)
            err = nn.finite_difference_check(
                lambda x: (nn.global_maxpool(x) * Tensor(w2, dtype=np.float64)).sum(), [x]
            )
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_dense(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(200 + seed)
            B, I, O = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            x, w, b = t64(rng, (B, I)), t64(rng, (I, O)), t64(rng, (O,))
            readout = rng.normal(size=(B, O))
            err = nn.finite_difference_check(
                lambda x, w, b: (nn.dense(x, w, b) * Tensor(readout, dtype=np.float64)).sum(),
                [x, w, b],
            )
            assert err < 1e-6, f"seed {seed}: {err}"

    def test_softmax_cross_entropy(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(300 + seed)
            B, C = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            x = t64(rng, (B, C))
            target = nn.one_hot(rng.integers(0, C, size=B), C, dtype=np.float64)
            err = nn.finite_difference_check(
                lambda x: nn.cross_entropy_loss(nn.softmax(x), target), [x]
            )
            assert err < 1e-6, f"seed {seed}: {err}"

    def test_fused_softmax_cross_entropy(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(450 + seed)
            B, C = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            x = t64(rng, (B, C), scale=3.0)
            labels = rng.integers(0, C, size=B)
            err = nn.finite_difference_check(lambda x: nn.softmax_cross_entropy(x, labels), [x])
            assert err < 1e-6, f"seed {seed}: {err}"

    def test_binary_cross_entropy(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(400 + seed)
            B = int(rng.integers(1, 6))
            x = t64(rng, (B, 2))
            target = rng.integers(0, 2, size=B).astype(np.float64)
            err = nn.finite_difference_check(
                lambda x: nn.cross_entropy_loss(nn.softmax(x)[:, 1], target, kind="binary"),
                [x],
            )
            assert err < 1e-6, f"seed {seed}: {err}"

    def test_relu_composite(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(500 + seed)
            x = t64(rng, (4, 3))
            readout = rng.normal(size=(4, 3))
            err = nn.finite_difference_check(
                lambda x: (nn.relu(x) * Tensor(readout, dtype=np.float64)).sum(), [x]
            )
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_dropout_fixed_mask(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(600 + seed)
            x = t64(rng, (6, 4))
            readout = rng.normal(size=(6, 4))
            mask_seed = int(rng.integers(2**31))
            err = nn.finite_difference_check(
                lambda x: (
                    nn.dropout(x, 0.4, True, rng=np.random.default_rng(mask_seed))
                    * Tensor(readout, dtype=np.float64)
                ).sum(),
                [x],
            )
            assert err < 1e-6, f"seed {seed}: {err}"


class TestLstmGradients:
    def test_dense_bptt(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(700 + seed)
            D, U = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            peephole = bool(seed % 2)
            params = nn.init_lstm_params(D, U, peephole=peephole, rng=rng, dtype=np.float64)
            xs = [rng.normal(size=D) for _ in range(3)]
            readout = rng.normal(size=U)

            def run(*tensors):
                _, final = nn.lstm_forward(
                    [Tensor(x, dtype=np.float64) for x in xs], params
                )
                return (final.hidden * Tensor(readout, dtype=np.float64)).sum()

            err = nn.finite_difference_check(run, list(params.tensors().values()))
            assert err < 1e-4, f"seed {seed}: {err}"

    def test_conv_mode_bptt(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(800 + seed)
            D, U, L = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(3, 6))
            peephole = bool(seed % 2)
            params = nn.init_lstm_params(D, U, mode="conv", kernel_width=3, seq_len=L,
                                         peephole=peephole, rng=rng, dtype=np.float64)
            xs = [rng.normal(size=(L, D)) for _ in range(3)]
            readout = rng.normal(size=(L, U))

            def run(*tensors):
                _, final = nn.lstm_forward(
                    [Tensor(x, dtype=np.float64) for x in xs], params
                )
                return (final.hidden * Tensor(readout, dtype=np.float64)).sum()

            err = nn.finite_difference_check(run, list(params.tensors().values()))
            assert err < 1e-4, f"seed {seed}: {err}"


class TestEmbeddingStepGradients:
    def test_skipgram_pair(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(900 + seed)
            d, k = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            center = rng.normal(scale=0.5, size=d)
            context = rng.normal(scale=0.5, size=d)
            negatives = rng.normal(scale=0.5, size=(k, d))
            _, d_center, d_context, d_negs = sgns_pair_loss_and_grads(center, context, negatives)
            numeric = oracles.numeric_grads(
                lambda c, ctx, negs: sgns_pair_loss_and_grads(c, ctx, negs)[0],
                [center, context, negatives],
            )
            err = oracles.max_rel_error([d_center, d_context, d_negs], numeric)
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_zero_vectors_reference_loss(self):
        loss, d_center, _, _ = sgns_pair_loss_and_grads(
            np.zeros(10), np.zeros(10), np.zeros((5, 10))
        )
        assert abs(loss - 6 * np.log(2)) < 1e-12
        np.testing.assert_allclose(d_center, 0.0)

    def test_subword_pair(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(1000 + seed)
            d, m, k = int(rng.integers(2, 6)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
            buckets = rng.normal(scale=0.5, size=(m, d))
            context = rng.normal(scale=0.5, size=d)
            negatives = rng.normal(scale=0.5, size=(k, d))
            _, d_buckets, d_context, d_negs = subword_pair_loss_and_grads(
                buckets, context, negatives
            )
            numeric = oracles.numeric_grads(
                lambda b, c, n: subword_pair_loss_and_grads(b, c, n)[0],
                [buckets, context, negatives],
            )
            err = oracles.max_rel_error([d_buckets, d_context, d_negs], numeric)
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_glove_pair(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(1100 + seed)
            d = int(rng.integers(2, 8))
            w_i, w_j = rng.normal(size=d), rng.normal(size=d)
            b_i, b_j = rng.normal(), rng.normal()
            log_count = rng.normal()
            weight = float(rng.uniform(0.1, 1.0))
            _, dwi, dwj, dbi, dbj = glove_pair_loss_and_grads(
                w_i, w_j, b_i, b_j, log_count, weight
            )
            bi_arr, bj_arr = np.array([b_i]), np.array([b_j])
            numeric = oracles.numeric_grads(
                lambda wi, wj, bi, bj: glove_pair_loss_and_grads(
                    wi, wj, float(bi[0]), float(bj[0]), log_count, weight
                )[0],
                [w_i, w_j, bi_arr, bj_arr],
            )
            err = oracles.max_rel_error(
                [dwi, dwj, np.array([dbi]), np.array([dbj])], numeric
            )
            assert err < 1e-5, f"seed {seed}: {err}"

    def test_linear_classifier_step(self):
        for seed in range(N_INSTANCES):
            rng = np.random.default_rng(1200 + seed)
            m, d, c = int(rng.integers(1, 6)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
            rows = rng.normal(scale=0.5, size=(m, d))
            projection = rng.normal(scale=0.5, size=(d, c))
            label = int(rng.integers(0, c))
            _, d_rows, d_proj = fasttext_doc_loss_and_grads(rows, projection, label)
            numeric = oracles.numeric_grads(
                lambda r, p: fasttext_doc_loss_and_grads(r, p, label)[0],
                [rows, projection],
            )
            err = oracles.max_rel_error([d_rows, d_proj], numeric)
            assert err < 1e-5, f"seed {seed}: {err}"


class TestCheckerItself:
    def test_linear_op_exact(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=(3, 2))
        x = Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        err = nn.finite_difference_check(
            lambda x: (x.reshape(1, 3) @ Tensor(w, dtype=np.float64)).sum(), [x]
        )
        assert err < 1e-9

    def test_corrupted_gradient_detected(self):
        """Negative control: a wrong backward must produce a large error."""

        def bad_op(x):
            out = Tensor._op(
                x.data * 2.0, (x,), lambda g: x._accumulate(g * 2.2)  # true factor is 2.0
            )
            return out.sum()

        x = Tensor(np.random.default_rng(0).normal(size=4), requires_grad=True,
                   dtype=np.float64)
        err = nn.finite_difference_check(bad_op, [x])
        assert err > 1e-2

    def test_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError):
            nn.finite_difference_check(lambda x: x * 2.0, [x])
