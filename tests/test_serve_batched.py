"""Batched serving against the per-sample golden model.

Property-style: for every suite network, random Q3.12 parameters and
inputs, batch sizes 1/3/16 and multiple timesteps, every row of the
served ``AotModel`` output must equal an independent per-sample
``QuantModel`` run.
"""

import dataclasses

import numpy as np
import pytest

from repro.nn.network import (ConvSpec, DenseSpec, LstmSpec, Network,
                              QuantModel, init_params, quantize_params)
from repro.rrm.networks import FULL_SUITE, suite
from repro.serve.aot import AotModel

BATCH_SIZES = (1, 3, 16)


def _params(network, seed=7, scale=1.0):
    return quantize_params(
        init_params(network, np.random.default_rng(seed), scale=scale))


def _inputs(rng, shape, spread=1.0):
    return np.asarray(rng.uniform(-spread, spread, shape) * 4096,
                      dtype=np.int64)


def _assert_bitexact(network, params, xs):
    """xs: (B, T, in_size); every row must match a per-sample run."""
    batch_size, timesteps, _ = xs.shape
    out = AotModel(network, params).infer(xs)
    for row in range(batch_size):
        reference = QuantModel(network, params)
        expected = reference.forward(xs[row])
        assert np.array_equal(out[row], expected), (
            f"{network.name}: batched row {row} diverges "
            f"(B={batch_size}, T={timesteps})")


class TestFullSuiteBitExact:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("network", FULL_SUITE,
                             ids=[n.name for n in FULL_SUITE])
    def test_matches_per_sample_quantmodel(self, network, batch_size):
        # Recurrent networks get several timesteps so batched state
        # (h, c) evolution is exercised, not just a single forward.
        if network.is_recurrent:
            network = dataclasses.replace(network, timesteps=3)
        rng = np.random.default_rng(hash((network.name, batch_size)) % 2**32)
        xs = _inputs(rng, (batch_size, network.timesteps,
                           network.input_size))
        _assert_bitexact(network, _params(network), xs)

    @pytest.mark.parametrize("network", suite(4),
                             ids=[n.name for n in suite(4)])
    def test_scaled_suite_saturation_stress(self, network):
        # Oversized params + inputs spanning the full Q3.12 range drive
        # the datapath into saturation and 32-bit wraparound; the batched
        # model must reproduce those exactly too.
        rng = np.random.default_rng(99)
        xs = _inputs(rng, (8, network.timesteps, network.input_size),
                     spread=7.9)
        _assert_bitexact(network, _params(network, scale=6.0), xs)


class TestBatchedApi:
    def _network(self):
        return Network(name="t", layers=(LstmSpec(4, 4),
                                         DenseSpec(4, 2, "sig")),
                       timesteps=2)

    def test_infer_broadcasts_single_input(self):
        network = self._network()
        params = _params(network)
        rng = np.random.default_rng(0)
        x = _inputs(rng, (3, network.input_size))
        model = AotModel(network, params)
        out = model.infer(x)
        # (B, in) means "feed the same input at every timestep".
        expanded = np.repeat(x[:, None, :], network.timesteps, axis=1)
        assert np.array_equal(out, AotModel(network, params).infer(expanded))

    def test_infer_rejects_bad_timesteps(self):
        network = self._network()
        model = AotModel(network, _params(network))
        with pytest.raises(ValueError, match="expected"):
            model.infer(np.zeros((2, 5, network.input_size),
                                 dtype=np.int64))


class TestBatchedPrimitives:
    """Single-layer served models, row by row against the scalar layer."""

    def test_dense_rows_independent(self):
        rng = np.random.default_rng(3)
        w = rng.integers(-2000, 2000, (6, 9), dtype=np.int64)
        b = rng.integers(-500, 500, 6, dtype=np.int64)
        x = rng.integers(-32768, 32767, (4, 9), dtype=np.int64)
        from repro.nn.layers import dense_fixed
        network = Network(name="dense-p", layers=(DenseSpec(9, 6, None),))
        out = AotModel(network, [{"w": w, "b": b}]).infer(x)
        for row in range(4):
            assert np.array_equal(out[row], dense_fixed(w, x[row], b))

    def test_lstm_rows_independent(self):
        rng = np.random.default_rng(4)
        m, n, batch, timesteps = 6, 4, 3, 3
        w = rng.integers(-2000, 2000, (4 * n, m + n), dtype=np.int64)
        b = rng.integers(-500, 500, 4 * n, dtype=np.int64)
        xs = rng.integers(-8000, 8000, (batch, timesteps, m), dtype=np.int64)
        from repro.nn.layers import lstm_step_fixed
        network = Network(name="lstm-p", layers=(LstmSpec(m, n),),
                          timesteps=timesteps)
        out = AotModel(network, [{"w": w, "b": b}]).infer(xs)
        for row in range(batch):
            # (h, c) carry between timesteps, so every step after the
            # first runs from a non-zero state.
            h = np.zeros(n, dtype=np.int64)
            c = np.zeros(n, dtype=np.int64)
            for x in xs[row]:
                h, c = lstm_step_fixed(w, b, x, h, c)
            assert np.array_equal(out[row], h)

    def test_conv_rows_independent(self):
        rng = np.random.default_rng(5)
        w = rng.integers(-2000, 2000, (3, 2, 3, 3), dtype=np.int64)
        b = rng.integers(-500, 500, 3, dtype=np.int64)
        x = rng.integers(-8000, 8000, (4, 2, 6, 6), dtype=np.int64)
        from repro.nn.layers import conv2d_fixed
        network = Network(name="conv-p", layers=(ConvSpec(2, 3, 6, 6, 3),))
        out = AotModel(network, [{"w": w, "b": b}]).infer(x.reshape(4, -1))
        for row in range(4):
            assert np.array_equal(out[row],
                                  conv2d_fixed(w, x[row], b).reshape(-1))
