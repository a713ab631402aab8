"""AOT serving model: bit-exactness, cycle-exactness, ABFT, input range.

The compiled model must be indistinguishable, row for row, from the
scalar golden ``QuantModel`` on every suite network, at every
optimisation level, over the full Q3.12 input range, with and without
the ABFT checksum hook.  Inputs outside int16 are rejected, by the model
and per request by the engine.  Cycle estimates must equal the static
performance model exactly.
"""

import numpy as np
import pytest

from repro.kernels.common import LEVELS
from repro.nn.network import (ConvSpec, DenseSpec, LstmSpec, Network,
                              QuantModel, init_params, quantize_params)
from repro.perfmodel import predict_network_cycles
from repro.resilience.abft import SdcDetected
from repro.rrm.networks import FULL_SUITE, suite
from repro.serve.aot import AotModel, _PLAN_CACHE, check_int16, compile_plan

_BY_NAME = {n.name: n for n in FULL_SUITE}

#: Single-layer networks, one per layer kind, so batch-row independence
#: is checked for each kind in isolation (the LSTM over several
#: timesteps, so its (h, c) state carries between steps), plus a small
#: recurrent network with a sigmoid head for the broadcast-input path.
PRIMITIVES = (
    Network(name="dense-t", layers=(DenseSpec(9, 6, None),)),
    Network(name="lstm-t", layers=(LstmSpec(6, 4),), timesteps=3),
    Network(name="conv-t", layers=(ConvSpec(2, 3, 6, 6, 3),)),
    Network(name="lstm-sig-t",
            layers=(LstmSpec(4, 4), DenseSpec(4, 2, "sig")), timesteps=2),
)
_NETWORKS = FULL_SUITE + PRIMITIVES
_IDS = [n.name for n in _NETWORKS]

#: One dense, one LSTM and one conv suite network.
_KINDS = [_BY_NAME[name] for name in ("eisen2019", "challita2017",
                                      "lee2018")]


def _params(network, seed=7, scale=1.0):
    return quantize_params(
        init_params(network, np.random.default_rng(seed), scale=scale))


def _inputs(rng, shape, spread=1.0):
    return np.asarray(rng.uniform(-spread, spread, shape) * 4096,
                      dtype=np.int64)


def _batch(network, rng, batch_size, spread=1.0):
    return _inputs(rng, (batch_size, network.timesteps,
                         network.input_size), spread=spread)


def _scalar(network, params, xs):
    """Each ``(T, in)`` row through its own fresh scalar QuantModel."""
    return np.stack([QuantModel(network, params).forward(row)
                     for row in xs])


class TestBitExactness:
    """AOT ≡ AOT with ABFT ≡ scalar QuantModel, row by row."""

    @pytest.mark.parametrize("batch_size", (1, 3, 16))
    @pytest.mark.parametrize("network", _NETWORKS, ids=_IDS)
    def test_triple_equivalence(self, network, batch_size):
        rng = np.random.default_rng(
            hash(("aot", network.name, batch_size)) % 2**32)
        params = _params(network)
        xs = _batch(network, rng, batch_size)
        out = AotModel(network, params).infer(xs)
        assert np.array_equal(
            out, AotModel(network, params, abft=True).infer(xs))
        for row in range(batch_size):
            scalar = QuantModel(network, params)
            assert np.array_equal(out[row], scalar.forward(xs[row])), (
                f"{network.name}: AOT row {row} diverges from scalar")

    @pytest.mark.parametrize("network", suite(4),
                             ids=[n.name for n in suite(4)])
    def test_saturation_stress(self, network):
        # Oversized params + full-range inputs exercise saturation and
        # 32-bit wraparound through the float64-GEMM datapath.
        rng = np.random.default_rng(hash(("sat", network.name)) % 2**32)
        params = _params(network, scale=8.0)
        xs = np.asarray(
            rng.integers(-32768, 32768,
                         (8, network.timesteps, network.input_size)),
            dtype=np.int64)
        aot = AotModel(network, params)
        assert np.array_equal(aot.infer(xs), _scalar(network, params, xs))

    @pytest.mark.parametrize("network", _NETWORKS, ids=_IDS)
    def test_fuzz_randomized(self, network):
        params = _params(network, seed=31, scale=2.0)
        aot = AotModel(network, params)
        for trial in range(5):
            rng = np.random.default_rng(9000 + trial)
            xs = _batch(network, rng, int(rng.integers(1, 9)),
                        spread=float(rng.uniform(0.1, 8.0)))
            assert np.array_equal(aot.infer(xs),
                                  _scalar(network, params, xs))

    def test_2d_input_path(self):
        # (B, in) means "feed the same input at every timestep".
        rng = np.random.default_rng(3)
        for network in (FULL_SUITE[0], PRIMITIVES[-1]):
            params = _params(network)
            x2 = _inputs(rng, (5, network.input_size))
            expanded = np.repeat(x2[:, None, :], network.timesteps, axis=1)
            aot = AotModel(network, params)
            out = aot.infer(x2)
            assert np.array_equal(out, aot.infer(expanded))
            assert np.array_equal(out, _scalar(network, params, expanded))


class TestInt16Input:
    """Inputs are Q3.12 int16: [-32768, 32767] served, the rest refused."""

    @pytest.mark.parametrize("abft", (False, True))
    @pytest.mark.parametrize("network", _KINDS, ids=lambda n: n.name)
    def test_int16_edges_are_served_bit_exact(self, network, abft):
        params = _params(network)
        shape = (network.timesteps, network.input_size)
        rng = np.random.default_rng(12)
        mixed = rng.choice(np.array([-32768, 32767], dtype=np.int64),
                           size=shape)
        xs = np.stack([np.full(shape, -32768, dtype=np.int64),
                       np.full(shape, 32767, dtype=np.int64), mixed])
        out = AotModel(network, params, abft=abft).infer(xs)
        assert np.array_equal(out, _scalar(network, params, xs))

    @pytest.mark.parametrize("value", (32768, -32769, 1 << 20))
    @pytest.mark.parametrize("network", _KINDS, ids=lambda n: n.name)
    def test_wide_input_rejected(self, network, value):
        xs = np.zeros((3, network.timesteps, network.input_size),
                      dtype=np.int64)
        xs[1, 0, -1] = value
        with pytest.raises(ValueError, match="int16"):
            AotModel(network, _params(network)).infer(xs)
        with pytest.raises(ValueError, match="int16"):
            check_int16(xs[1])
        check_int16(xs[0])

    def test_engine_fails_wide_request_alone(self):
        from repro.serve.breaker import BreakerState
        from repro.serve.engine import (EngineConfig, InferenceEngine,
                                        RequestStatus)
        network = _BY_NAME["eisen2019"]
        engine = InferenceEngine(
            networks=(network,),
            config=EngineConfig(max_batch_size=8, max_linger_s=0.001))
        rng = np.random.default_rng(13)
        good = [_inputs(rng, network.input_size) for _ in range(4)]
        good[0][0] = -32768
        wide = []
        for value in (32768, -32769):
            x = _inputs(rng, network.input_size)
            x[0] = value
            wide.append(x)
        # Submitted before start: all six form one batch.
        order = [good[0], wide[0], good[1], good[2], wide[1], good[3]]
        requests = [engine.submit(network.name, x) for x in order]
        with engine:
            for request in requests:
                assert request.wait(timeout=5.0)
        good_reqs = [requests[i] for i in (0, 2, 3, 5)]
        for request in (requests[1], requests[4]):
            assert request.status == RequestStatus.FAILED
            assert "int16" in request.error
        entry = engine.registry.get(network, engine.config.level)
        expected = _scalar(network, entry.params_raw,
                           np.repeat(np.stack(good)[:, None, :],
                                     network.timesteps, axis=1))
        for request, want in zip(good_reqs, expected):
            assert request.status == RequestStatus.DONE
            assert request.batch_size == len(good)
            assert np.array_equal(request.output, want)
        assert engine.breaker_states()[network.name] == BreakerState.CLOSED
        totals = engine.metrics.to_dict()["total"]
        assert totals["batch_failures"] == 0
        assert totals["failed"] == 2


class TestCycleExactness:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("network", FULL_SUITE,
                             ids=[n.name for n in FULL_SUITE])
    def test_matches_static_model(self, network, level):
        model = AotModel(network, _params(network), level=level)
        assert model.cycles_per_request == \
            predict_network_cycles(network, level).cycles


class TestAbft:
    @pytest.mark.parametrize("network", FULL_SUITE,
                             ids=[n.name for n in FULL_SUITE])
    def test_clean_run_matches_plain(self, network):
        params = _params(network)
        rng = np.random.default_rng(hash(("abft", network.name)) % 2**32)
        xs = _batch(network, rng, 4)
        abft = AotModel(network, params, abft=True)
        out = abft.infer(xs)
        assert np.array_equal(out, AotModel(network, params).infer(xs))
        assert np.array_equal(out, _scalar(network, params, xs))
        assert abft.sdc_detections == 0

    def test_detects_injected_sdc(self):
        network = FULL_SUITE[0]
        params = _params(network)
        xs = _batch(network, np.random.default_rng(5), 4)
        abft = AotModel(network, params, abft=True)
        # Flip a bit above the requantization shift so the corruption
        # would be output-visible if it went undetected.
        abft.arm_sdc(lambda acc: acc.__setitem__(
            (0, 0), acc[0, 0] ^ (1 << 20)))
        with pytest.raises(SdcDetected) as exc:
            abft.infer(xs)
        assert 0 in exc.value.rows
        assert abft.sdc_detections >= 1

    def test_detection_names_the_corrupted_row(self):
        network = FULL_SUITE[0]
        params = _params(network)
        xs = _batch(network, np.random.default_rng(6), 4)
        model = AotModel(network, params, abft=True)
        model.arm_sdc(lambda acc: acc.__setitem__(
            (1, 0), acc[1, 0] ^ (1 << 16)))
        with pytest.raises(SdcDetected) as exc:
            model.infer(xs)
        assert exc.value.rows == (1,)

    def test_silent_sdc_corrupts_only_the_armed_row(self):
        # Without ABFT the one-shot hook is served silently: the armed
        # row's output is wrong and every other row is untouched.
        network = FULL_SUITE[0]
        params = _params(network)
        xs = _batch(network, np.random.default_rng(7), 4)
        aot = AotModel(network, params)
        clean = aot.infer(xs)
        aot.arm_sdc(lambda acc: acc.__setitem__(
            (0, 0), acc[0, 0] ^ (1 << 20)))
        out = aot.infer(xs)
        assert not np.array_equal(out[0], clean[0])
        assert np.array_equal(out[1:], clean[1:])
        assert np.array_equal(aot.infer(xs), clean)


class TestPlanCacheAndValidation:
    def test_plan_cache_reuses_compiled_plans(self):
        network = FULL_SUITE[0]
        assert compile_plan(network) is compile_plan(network)
        assert compile_plan(network, abft=True) is not compile_plan(network)
        assert (network, False) in _PLAN_CACHE
        assert (network, True) in _PLAN_CACHE

    def test_shape_validation(self):
        network = FULL_SUITE[0]
        model = AotModel(network, _params(network))
        with pytest.raises(ValueError):
            model.infer(np.zeros((2, 99, network.input_size),
                                 dtype=np.int64))
        with pytest.raises(ValueError):
            model.infer(np.zeros(network.input_size, dtype=np.int64))


class TestRegistryIntegration:
    def test_registry_serves_aot_by_default(self):
        from repro.serve.engine import EngineConfig, ModelRegistry
        registry = ModelRegistry(seed=2020, backend=EngineConfig.backend)
        entry = registry.get(FULL_SUITE[0], "e")
        assert type(entry.model) is AotModel
        assert entry.cycles_per_request == entry.model.cycles_per_request
        assert EngineConfig().backend == "aot"
        with pytest.raises(ValueError, match="backend"):
            ModelRegistry(backend="batched")

    def test_registry_builds_one_model_class(self):
        from repro.serve.engine import ModelRegistry
        network = FULL_SUITE[0]
        for abft in (False, True):
            entry = ModelRegistry(seed=2020, abft=abft,
                                  backend="aot").get(network, "e")
            assert type(entry.model) is AotModel
            assert entry.model.abft is abft
            assert entry.model._plan is compile_plan(network, abft=abft)
        with pytest.raises(ValueError, match="backend"):
            ModelRegistry(backend="jit")

    def test_repair_reloads_compiled_weights(self):
        from repro.serve.engine import ModelRegistry
        registry = ModelRegistry(seed=2020)
        network = FULL_SUITE[0]
        entry = registry.get(network, "e")
        rng = np.random.default_rng(8)
        xs = _batch(network, rng, 3)
        golden = entry.model.infer(xs)
        # Corrupt a live parameter tensor, then repair: the compiled
        # operands must be rebuilt from the restored params.
        layer = entry.params_raw[0]
        key = next(iter(layer))
        layer[key] ^= 1
        entry.model.reload_params()
        registry.repair(entry)
        assert np.array_equal(entry.model.infer(xs), golden)
