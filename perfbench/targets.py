"""The programs under test, built and driven through public APIs only.

Each target's ``start()`` covers constructing it to ready and returns
the seconds that took, and ``stop()`` tears it down; the serving
targets add the ``submit``/``idle`` the open-loop generator needs.
:class:`Golden` is the independent correctness reference: the scalar
:class:`QuantModel` built from the same seeded recipe the serving
registry uses.
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn.network import QuantModel, init_params, quantize_params

#: Every request carries this deadline (five 10-ms NR frames).
TIMEOUT_S = 0.05


class EngineTarget:
    """In-process :class:`InferenceEngine` with the default config."""

    def __init__(self, networks):
        self.networks = tuple(networks)
        self.engine = None
        #: Seconds spent in ``ModelRegistry.get`` building the mix.
        self.build_s = 0.0

    def start(self) -> float:
        from repro.serve import EngineConfig, InferenceEngine
        t0 = time.perf_counter()
        engine = InferenceEngine(networks=self.networks,
                                 config=EngineConfig())
        for network in self.networks:
            b0 = time.perf_counter()
            engine.registry.get(network, engine.config.level)
            self.build_s += time.perf_counter() - b0
        engine.start()
        self.engine = engine
        return time.perf_counter() - t0

    def submit(self, name: str, x):
        return self.engine.submit(name, x, timeout_s=TIMEOUT_S)

    def idle(self) -> bool:
        return self.engine.total_queue_depth() == 0

    def entries(self) -> dict:
        engine = self.engine
        return {net.name: engine.registry.get(net, engine.config.level)
                for net in self.networks}

    def stop(self) -> None:
        if self.engine is not None:
            self.engine.stop()


class ClusterTarget:
    """:class:`ServingCluster`, 2 shards x 1 replica, capped at nproc."""

    def __init__(self, networks, workers: int):
        self.networks = tuple(networks)
        self.workers = workers
        self.cluster = None

    def start(self) -> float:
        from repro.cluster import ClusterConfig, ServingCluster
        t0 = time.perf_counter()
        cluster = ServingCluster(
            networks=self.networks,
            config=ClusterConfig(n_shards=self.workers,
                                 replicas_per_shard=1))
        self.cluster = cluster
        cluster.start()
        return time.perf_counter() - t0

    def submit(self, name: str, x):
        return self.cluster.submit(name, x, timeout_s=TIMEOUT_S)

    def idle(self) -> bool:
        return self.cluster.router.inflight_count() == 0

    def stop(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            # Its queues' semaphores are unlinked once they are collected.
            self.cluster = None


class IssTarget:
    """One turbo ``NetworkProgram`` per (level, network)."""

    def __init__(self, networks, seed: int):
        self.networks = tuple(networks)
        self.params = {net.name: quantized_params(net, seed)
                       for net in self.networks}
        self.programs: dict = {}
        self.build_s: dict = {}

    def start(self) -> float:
        from repro.kernels.runner import NetworkProgram
        t0 = time.perf_counter()
        for level in ("a", "e"):
            b0 = time.perf_counter()
            for net in self.networks:
                self.programs[level, net.name] = NetworkProgram(
                    net, self.params[net.name], level, engine="turbo")
            self.build_s[level] = time.perf_counter() - b0
        return time.perf_counter() - t0

    def stop(self) -> None:
        self.programs.clear()


def quantized_params(network, seed: int) -> list:
    return quantize_params(init_params(network, np.random.default_rng(seed)))


class Golden:
    """Scalar bit-exact reference outputs, computed outside timing."""

    def __init__(self, networks, seed: int):
        self.models = {net.name: QuantModel(net, quantized_params(net, seed))
                       for net in networks}

    def expected(self, name: str, x) -> np.ndarray:
        model = self.models[name]
        model.reset()
        x = np.asarray(x, dtype=np.int64)
        if x.ndim == 1:
            x = np.repeat(x[None, :], model.network.timesteps, axis=0)
        return model.forward(x)

    def check(self, phase, per_network: int) -> None:
        """Compare up to ``per_network`` DONE outputs of each network,
        from the seeded sample the phase kept, with the reference."""
        seen: dict = {}
        for i, (handle, x) in sorted(phase.kept.items()):
            name = phase.networks[i]
            if handle.status != "done" or seen.get(name, 0) >= per_network:
                continue
            seen[name] = seen.get(name, 0) + 1
            phase.checked += 1
            got = handle.output
            if got is None or not np.array_equal(got,
                                                 self.expected(name, x)):
                phase.mismatched.add(i)
        phase.kept = {}
