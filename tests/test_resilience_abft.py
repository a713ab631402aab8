"""ABFT column-checksum integrity: bit-exact transparency, certain
detection of accumulator corruption, and the engine's quarantine →
repair → rerun path (including injector-driven ``sdc`` faults)."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.nn.network import DenseSpec, Network, QuantModel
from repro.resilience import SdcDetected, measure_abft_overhead
from repro.serve.aot import AotModel
from repro.serve.engine import (EngineConfig, InferenceEngine,
                                ModelRegistry, RequestStatus)
from repro.rrm.networks import suite

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}
REGISTRY = ModelRegistry(seed=2020)


def _params(network, level="e"):
    return REGISTRY.get(network, level).params_raw


def _batch(network, batch_size=5, seed=0):
    rng = np.random.default_rng(seed)
    floats = rng.uniform(-1.0, 1.0, (batch_size, network.input_size))
    return np.asarray(floats * 4096, dtype=np.int64)


def _scalar(network, params, x):
    """Each ``(in,)`` row fed at every timestep of a fresh QuantModel."""
    return np.stack([
        QuantModel(network, params).forward(
            np.repeat(row[None, :], network.timesteps, axis=0))
        for row in x])


class TestDifferential:
    @pytest.mark.parametrize("network", NETWORKS, ids=lambda n: n.name)
    def test_no_false_positives_and_bit_exact(self, network):
        """Fault-free, the checked model must be bit-identical to the
        scalar golden model — the checksum identity is exact in int
        arithmetic, so it never fires spuriously and never perturbs
        outputs."""
        params = _params(network)
        checked = AotModel(network, params, abft=True)
        for seed in range(3):
            x = _batch(network, seed=seed)
            assert np.array_equal(checked.infer(x),
                                  _scalar(network, params, x))
        assert checked.sdc_detections == 0

    def test_checksum_mismatch_is_per_row(self):
        """One dense layer with random weights: a fault-free batch
        passes, and a flip in one accumulator element names exactly
        that row."""
        network = Network(name="dense-abft",
                          layers=(DenseSpec(NETWORKS[0].input_size, 8),))
        rng = np.random.default_rng(1)
        params = [{"w": rng.integers(-2048, 2048,
                                     (8, network.input_size)),
                   "b": rng.integers(-2048, 2048, 8)}]
        x = rng.integers(-2048, 2048, (4, network.input_size))
        checked = AotModel(network, params, abft=True)
        assert np.array_equal(checked.infer(x), _scalar(network, params, x))
        checked.arm_sdc(lambda acc: acc.__setitem__(
            (2, 3), acc[2, 3] ^ (1 << 7)))
        with pytest.raises(SdcDetected) as info:
            checked.infer(x)
        assert info.value.rows == (2,)

    def test_overhead_measures_the_served_model(self, monkeypatch):
        """The chaos-bench ABFT overhead times the class the engine
        serves, once without and once with the checksum."""
        import repro.resilience.abft as abft_module
        built = []

        class Recording(AotModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(abft_module, "AotModel", Recording)
        network = NETWORKS[0]
        overhead = measure_abft_overhead(network, _params(network),
                                         repeats=2)
        assert overhead >= 0.0
        assert sorted(model.abft for model in built) == [False, True]
        entry = REGISTRY.get(network, "e")
        assert all(isinstance(model, type(entry.model))
                   for model in built)


class TestDetection:
    def test_every_injected_corruption_detected(self):
        """100% detection: any single-bit flip below bit 31 of any
        accumulator element breaks the row checksum with certainty."""
        network = BY_NAME["sun2017"]
        checked = AotModel(network, _params(network), abft=True)
        x = _batch(network, batch_size=4, seed=7)
        rng = np.random.default_rng(11)
        trials = 25
        for _ in range(trials):
            row, col_draw = int(rng.integers(4)), int(rng.integers(1 << 20))
            bit = int(rng.integers(31))

            def corrupt(acc, _r=row, _c=col_draw, _b=bit):
                c = _c % acc.shape[1]
                acc[_r, c] = int(acc[_r, c]) ^ (1 << _b)

            checked.arm_sdc(corrupt)
            with pytest.raises(SdcDetected) as info:
                checked.infer(x)
            assert row in info.value.rows
        assert checked.sdc_detections >= trials

    def test_plain_model_is_silently_corrupted(self):
        """The contrast that motivates ABFT: the plain model swallows the
        same corruption and returns wrong bits with DONE status."""
        network = BY_NAME["sun2017"]
        params = _params(network)
        plain = AotModel(network, params)
        x = _batch(network, batch_size=2, seed=3)
        clean = plain.infer(x)
        plain.arm_sdc(lambda acc: acc.__setitem__((0, 0),
                                                  int(acc[0, 0]) ^ (1 << 20)))
        corrupted = plain.infer(x)
        assert not np.array_equal(clean, corrupted)


class TestEnginePath:
    def _run(self, abft, seed=2020):
        name = "sun2017"
        spec = FaultSpec(kind="sdc", network=name, start=1, stop=4)
        injector = FaultInjector([spec], seed=seed)
        engine = InferenceEngine(
            networks=NETWORKS,
            config=EngineConfig(level="e", max_batch_size=4,
                                max_linger_s=0.001, abft=abft),
            fault_injector=injector)
        network = BY_NAME[name]
        xs = [_batch(network, batch_size=1, seed=s)[0] for s in range(8)]
        entry = engine.registry.get(network, "e")
        expected = _scalar(network, entry.params_raw, np.stack(xs))
        with engine:
            requests = [engine.submit(name, x) for x in xs]
            for request in requests:
                assert request.wait(timeout=10.0)
        totals = engine.metrics.to_dict()["total"]
        return requests, expected, totals, injector

    def test_sdc_detected_repaired_rerun_bit_exact(self):
        requests, expected, totals, _ = self._run(abft=True)
        assert totals["sdc_detections"] >= 1
        assert totals["sdc_repairs"] >= 1
        assert totals["sdc_reruns"] >= 1
        # Every request completed with the *correct* bits: the rerun
        # after quarantine+repair hides the corruption from clients.
        for i, request in enumerate(requests):
            assert request.status == RequestStatus.DONE
            assert np.array_equal(request.output, expected[i])

    def test_without_abft_same_faults_corrupt_silently(self):
        requests, expected, totals, _ = self._run(abft=False)
        assert totals["sdc_detections"] == 0
        wrong = sum(1 for i, request in enumerate(requests)
                    if request.ok
                    and not np.array_equal(request.output, expected[i]))
        assert wrong >= 1

    def test_fault_log_digest_deterministic_with_sdc(self):
        """Identical seeds → identical canonical fault logs, with the
        new ``sdc`` kind present in the log."""
        _, _, _, first = self._run(abft=True)
        _, _, _, second = self._run(abft=True)
        log = first.canonical_log()
        assert log == second.canonical_log()
        assert any(event["kind"] == "sdc" for event in log)
