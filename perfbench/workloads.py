"""The workloads: what each builds, how it drives it, what it reports.

``serve-small`` runs paper-scale networks (``suite(1)``) at level e
through an ``InferenceEngine`` with the default ``EngineConfig``; its
traced run also drives a ``ServingCluster``.  A single-threaded
open-loop Poisson generator offers the traffic; every request carries a
unique seeded input and ``timeout_s=0.05``.  ``iss-suite`` builds a
``NetworkProgram`` for all ten networks at levels a and e and runs
golden-checked steps on the turbo engine.

Each run returns ``(metrics, phases, failed, gates)``: the metric
values, a per-phase table of attempted / succeeded / failed counts, the
number of failed operations, and the correctness gates that must hold.
"""

from __future__ import annotations

import gc
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .harness import (InputFactory, OpenLoop, find_capacity, meets_limit,
                      percentile)
from .targets import ClusterTarget, EngineTarget, Golden, IssTarget
from .tracing import SpanRecorder, TimedModel

#: p99 latency limit for capacity: five 10-ms NR radio frames.
LIMIT_S = 0.05
LEVEL = "e"
#: Registry parameter seed (``EngineConfig().seed``).
PARAM_SEED = 2020
#: DONE outputs golden-checked per network per phase.
GOLDEN_PER_NETWORK = 4
CAPACITY_PROBES = 9

SMALL_MIX = ("eisen2019", "wang2018", "naparstek2019")
HEAVY_MIX = ("ahmed2019", "ye2018", "nasir2018", "lee2018")
#: Level-a networks the traced run steps on the interpreter (the two
#: 3M-instruction MLPs would take ~4.5 s of the run on their own).
INTERP_SAMPLE_A = ("challita2017", "naparstek2019", "eisen2019",
                   "lee2018", "sun2017", "yu2017", "wang2018")

#: serve-small's fixed rates (req/s): where the capacity search starts
#: (about the parent commit's capacity), the latency phase (about half
#: of it) and the traced run's overload phase (about twice it).
START_RPS = 15000.0
NOMINAL_RPS = 7000.0
OVERLOAD_RPS = 30000.0
#: Rate of the traced run's cluster leg: about half the capacity of the
#: 2-shard cluster on the 2-core host the benchmark was built on.
CLUSTER_NOMINAL_RPS = 3000.0

WORKLOAD_NAMES = ("serve-small", "iss-suite")
#: Networks whose AOT plans the traced serve-small run times in isolation:
#: the served mix plus the four whose AOT arithmetic dominates their cost.
AOT_DIRECT = SMALL_MIX + HEAVY_MIX

END_TO_END = ("setup_s", "rss_mb", "capacity_rps", "p50_ms", "p99_ms",
              "ok_frac", "sim_minstr_s", "sim_cycles")


def per_layer_names() -> tuple:
    from repro.rrm.networks import FULL_SUITE
    names = [
        "engine.submit_us", "engine.sojourn_ms.p50", "engine.sojourn_ms.p99",
        "engine.batch_mean", "engine.cpu_us_per_req",
        "engine.plumbing_us_per_req", "engine.shed_frac",
        "engine.overload_goodput_rps",
        "aot.us_per_req", "aot.busy_frac", "aot.build_s"]
    for batch in (1, 16):
        names += [f"aot.us_per_req.b{batch}.{net}" for net in AOT_DIRECT]
    names += [
        "cluster.start_s", "cluster.submit_us", "cluster.transport_ms.p50",
        "cluster.transport_ms.p99", "cluster.service_ms.p50",
        "cluster.parent_cpu_us_per_req", "cluster.batch_mean",
        "core.minstr_s.a.turbo", "core.minstr_s.a.interp",
        "core.minstr_s.e.turbo", "core.minstr_s.e.interp",
        "core.turbo_bails", "kernels.build_s.a", "kernels.build_s.e"]
    for level in ("a", "e"):
        names += [f"kernels.cycles.{level}.{net.name}" for net in FULL_SUITE]
    names += ["kernels.speedup_e_vs_a", "loadgen.lag_p99_ms",
              "loadgen.offered_rps", "bench.trace_overhead_frac"]
    return tuple(names)


def networks_by_name() -> dict:
    from repro.rrm.networks import suite
    return {net.name: net for net in suite(1)}


def make_target(name: str):
    """The unstarted target of a workload (shared with set-up probes)."""
    nets = networks_by_name()
    if name == "iss-suite":
        return IssTarget(tuple(nets.values()), PARAM_SEED)
    return EngineTarget(tuple(nets[n] for n in SMALL_MIX))


class Budget:
    """Splits the run's measured seconds between its phases."""

    def __init__(self, seconds: float):
        self.seconds = float(seconds)

    def __call__(self, share: float) -> float:
        return max(0.2, self.seconds * share)


# ----------------------------------------------------------------------
# serve-small.
# ----------------------------------------------------------------------
class ServeRun:
    """Open-loop phases against one serving target.

    Every phase's seeded sample of DONE outputs is checked against the
    golden model once the phase has drained.
    """

    def __init__(self, target, factory: InputFactory, golden: Golden,
                 budget: Budget):
        self.target = target
        self.factory = factory
        self.golden = golden
        self.budget = budget
        self.loop = OpenLoop(target.submit, target.idle)
        self.phases = []

    def phase(self, name: str, rate: float, duration: float):
        traffic = self.factory.traffic(rate, duration,
                                       keep_per_network=3
                                       * GOLDEN_PER_NETWORK)
        phase = self.loop.run(name, traffic)
        del traffic
        self.golden.check(phase, GOLDEN_PER_NETWORK)
        gc.collect()
        self.phases.append(phase)
        return phase

    def capacity(self) -> float:
        duration = self.budget(0.55) / CAPACITY_PROBES
        count = [0]

        def probe(rate: float) -> bool:
            count[0] += 1
            return meets_limit(self.phase(f"probe-{count[0]}", rate,
                                          duration), LIMIT_S)

        return find_capacity(probe, START_RPS, CAPACITY_PROBES).capacity_rps


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _cpu_us_per_req(phase) -> float:
    """Process CPU minus the generator thread's CPU, per request."""
    work = phase.process_cpu_s - phase.generator_cpu_s
    return work / max(phase.attempted, 1) * 1e6


def _mix_static(mix) -> tuple:
    """(sum of level-e cycles over the mix, mean instrs per request)."""
    from repro.perfmodel import network_trace
    traces = [network_trace(net, LEVEL) for net in mix]
    cycles = sum(t.total_cycles for t in traces)
    instrs = sum(t.total_instrs for t in traces) / len(traces)
    return cycles, instrs


def run_serving(seed: int, seconds: float, setup_samples, trace: bool,
                recorder: SpanRecorder | None):
    target = make_target("serve-small")
    nets = target.networks
    factory = InputFactory(np.random.default_rng(seed),
                           {net.name: net.input_size for net in nets})
    golden = Golden(nets, PARAM_SEED)
    budget = Budget(seconds)
    run = ServeRun(target, factory, golden, budget)
    try:
        setup_s = target.start()
        run.phase("warm-up", NOMINAL_RPS, budget(0.03))
        if trace:
            metrics = _traced_engine(run, recorder)
        else:
            metrics = _measured_serving(run)
            metrics["setup_s"] = _median([setup_s] + list(setup_samples))
    finally:
        target.stop()
    phases = run.phases
    if trace:
        # After the engine has stopped, so it takes no CPU from the cluster.
        cluster_metrics, cluster_phases = _traced_cluster(
            nets, factory, golden, budget, recorder)
        metrics.update(cluster_metrics)
        phases = phases + cluster_phases
    gates = {"outputs_bit_exact": all(not p.mismatched for p in phases),
             "every_request_settled": all(p.drained for p in phases)}
    failed = sum(p.counts()["failed"] for p in phases)
    return metrics, phases, failed, gates


def _measured_serving(run: ServeRun) -> dict:
    # The latency phase runs first, on a target no probe has overloaded.
    nominal = run.phase("nominal", NOMINAL_RPS, run.budget(0.4))
    # Before the probes, whose pre-drawn traffic grows with the rates
    # they reach: a faster program must not read as a bigger one.
    rss_mb = peak_rss_mb()
    capacity = run.capacity()
    ok = nominal.ok_mask()
    cycles, instrs = _mix_static(run.target.networks)
    return {
        "rss_mb": rss_mb,
        "capacity_rps": capacity,
        "p50_ms": nominal.calm_percentile(50) * 1e3,
        "p99_ms": nominal.calm_percentile(99) * 1e3,
        "ok_frac": float(ok.mean()) if len(ok) else 0.0,
        "sim_minstr_s": capacity * instrs / 1e6,
        "sim_cycles": float(cycles),
    }


def _direct_aot(seconds: float) -> dict:
    """Isolated ``model.infer`` calls at batch 1 and 16, per request.

    The models come from a registry of their own, built outside any
    timed window, so the heavy networks are timed without joining the
    served mix.
    """
    from repro.serve import EngineConfig, ModelRegistry
    config = EngineConfig()
    registry = ModelRegistry(seed=config.seed, backend=config.backend)
    nets = networks_by_name()
    factory = InputFactory(np.random.default_rng(0),
                           {name: nets[name].input_size
                            for name in AOT_DIRECT})
    out = {}
    per_call = seconds / (2 * len(AOT_DIRECT))
    for name in AOT_DIRECT:
        entry = registry.get(nets[name], config.level)
        steps = entry.network.timesteps
        for batch in (1, 16):
            times = []
            spent = 0.0
            while spent < per_call or len(times) < 5:
                x = np.stack([factory.make(name) for _ in range(batch)])
                x = np.repeat(x[:, None, :], steps, axis=1)
                t0 = time.perf_counter()
                entry.model.infer(x)
                dt = time.perf_counter() - t0
                times.append(dt)
                spent += dt
            out[f"aot.us_per_req.b{batch}.{name}"] = \
                _median(times) / batch * 1e6
    return out


#: Requests whose spans the traced run keeps: ids divisible by this.
SPAN_SAMPLE = 8


def _timed_submit(submit, recorder: SpanRecorder, span: str, layer: str):
    clock = time.monotonic

    def timed(name, x):
        t0 = clock()
        handle = submit(name, x)
        if handle.id % SPAN_SAMPLE == 0:
            recorder.add(span, layer, t0, clock(), rid=handle.id,
                         network=name)
        return handle
    return timed


def _record_requests(phase, recorder: SpanRecorder, layer: str) -> None:
    """One span per request, submit to settle, from its public fields
    (``submit_time``/``settled_at`` are on ``time.monotonic``, the
    clock every serving span is on)."""
    f = phase.fields
    for i in range(phase.attempted):
        rid = int(f["id"][i])
        if rid % SPAN_SAMPLE == 0 and not math.isnan(f["settled_at"][i]):
            recorder.add("request", layer, f["submit_time"][i],
                         f["settled_at"][i], rid=rid,
                         status=phase.status[i])


def _traced_phase(run: ServeRun, recorder: SpanRecorder, prefix: str,
                  layer: str, rate: float, duration: float):
    """Phase ``<prefix>-traced``: each sampled request's ``submit`` is
    timed into a ``<prefix>.submit`` span and its submit-to-settle span
    recorded."""
    run.loop.submit = _timed_submit(run.target.submit, recorder,
                                    f"{prefix}.submit", layer)
    phase = run.phase(f"{prefix}-traced", rate, duration)
    _record_requests(phase, recorder, layer)
    return phase


def _batch_mean(phase) -> float:
    done = phase.done_mask()
    return float(phase.fields["batch_size"][done].mean()) \
        if done.any() else 0.0


def _traced_engine(run: ServeRun, recorder: SpanRecorder) -> dict:
    target = run.target
    metrics = _direct_aot(run.budget(0.1))
    metrics["aot.build_s"] = target.build_s
    plain = run.phase("nominal-untraced", NOMINAL_RPS, run.budget(0.2))
    metrics["loadgen.lag_p99_ms"] = percentile(plain.lag(), 99) * 1e3
    metrics["loadgen.offered_rps"] = plain.offered_rps()
    for net_name, entry in target.entries().items():
        entry.model = TimedModel(entry.model, recorder, net_name)
    mark = len(recorder.spans)
    traced = _traced_phase(run, recorder, "engine",
                           "repro.serve.engine", NOMINAL_RPS,
                           run.budget(0.2))
    infer = [s for s in recorder.spans[mark:] if s[0] == "aot.infer"]
    cpu_plain = _cpu_us_per_req(plain)
    busy = sum(end - start for _, _, start, end, *_ in infer)
    rows = sum(span[6]["batch"] for span in infer)
    aot_us = busy / max(rows, 1) * 1e6
    f = traced.fields
    done = traced.done_mask()
    sojourn = f["settled_at"][done] - f["submit_time"][done]
    over = run.phase("overload-traced", OVERLOAD_RPS, run.budget(0.2))
    shed = sum(1 for status in over.status if status.startswith("rejected"))
    metrics.update({
        "engine.submit_us": _median(traced.submit_s) * 1e6,
        "engine.sojourn_ms.p50": percentile(sojourn, 50) * 1e3,
        "engine.sojourn_ms.p99": percentile(sojourn, 99) * 1e3,
        "engine.batch_mean": _batch_mean(traced),
        "engine.cpu_us_per_req": cpu_plain,
        "engine.plumbing_us_per_req": cpu_plain - aot_us,
        "engine.shed_frac": shed / max(over.attempted, 1),
        "engine.overload_goodput_rps":
            float(over.ok_mask().sum()) / over.duration,
        "aot.us_per_req": aot_us,
        "aot.busy_frac": busy / traced.wall_s,
        "bench.trace_overhead_frac":
            _cpu_us_per_req(traced) / cpu_plain - 1.0,
    })
    return metrics


def _traced_cluster(nets, factory: InputFactory, golden: Golden,
                    budget: Budget, recorder: SpanRecorder) -> tuple:
    """The traced run's cluster leg: serve-small's traffic through a
    ``ServingCluster`` of 2 shards x 1 replica, capped at nproc.

    Its end-to-end latency and capacity did not repeat across runs on
    a 2-core host (see README.md), so the cluster is measured here,
    per layer, and not as a workload of its own.
    """
    target = ClusterTarget(nets, workers=min(2, os.cpu_count() or 1))
    run = ServeRun(target, factory, golden, budget)
    try:
        start_s = target.start()
        run.phase("cluster-warm-up", CLUSTER_NOMINAL_RPS, budget(0.03))
        plain = run.phase("cluster-untraced", CLUSTER_NOMINAL_RPS,
                          budget(0.1))
        traced = _traced_phase(run, recorder, "cluster",
                               "repro.cluster", CLUSTER_NOMINAL_RPS,
                               budget(0.15))
    finally:
        target.stop()
    f = traced.fields
    done = traced.done_mask()
    service = f["service_latency"][done]
    transport = f["latency"][done] - service
    return {
        "cluster.start_s": start_s,
        "cluster.submit_us": _median(traced.submit_s) * 1e6,
        "cluster.transport_ms.p50": percentile(transport, 50) * 1e3,
        "cluster.transport_ms.p99": percentile(transport, 99) * 1e3,
        "cluster.service_ms.p50": percentile(service, 50) * 1e3,
        "cluster.parent_cpu_us_per_req": _cpu_us_per_req(plain),
        "cluster.batch_mean": _batch_mean(traced),
    }, run.phases


# ----------------------------------------------------------------------
# iss-suite.
# ----------------------------------------------------------------------
@dataclass
class StepLog:
    level: str
    network: str
    seconds: float
    instrs: int
    cycles: int
    ok: bool


class IssRun:
    def __init__(self, target: IssTarget, seed: int, seconds: float,
                 recorder: SpanRecorder | None):
        self.target = target
        self.budget = Budget(seconds)
        self.recorder = recorder
        self.factory = InputFactory(
            np.random.default_rng(seed),
            {net.name: net.input_size for net in target.networks})
        self.golden = Golden(target.networks, PARAM_SEED)
        self.checked = 0
        self.passed = 0
        self.warm_checked = 0
        self.warm_failed = 0

    def warm(self) -> None:
        """First step of every program through ``run_and_check``."""
        for (level, name), program in self.target.programs.items():
            x = self.factory.make(name)
            self.checked += 1
            self.warm_checked += 1
            try:
                program.run_and_check([x])
                self.passed += 1
            except AssertionError:
                self.warm_failed += 1

    def step(self, level: str, net, program) -> StepLog:
        x = self.factory.make(net.name)
        want = self.golden.expected(net.name, x)
        cpu = program.cpu
        program.reset_state()
        i0, c0 = cpu.instret, cpu.cycles
        t0 = time.perf_counter()
        got = program.step(x)
        t1 = time.perf_counter()
        ok = bool(np.array_equal(got, want))
        self.checked += 1
        self.passed += ok
        if self.recorder is not None:
            self.recorder.add("core.step", "repro.core", t0, t1,
                              rid=self.checked, network=net.name,
                              level=level, engine=cpu.engine)
        return StepLog(level, net.name, t1 - t0, cpu.instret - i0,
                       cpu.cycles - c0, ok)

    def suite_pass(self) -> list:
        return [self.step(level, net, self.target.programs[level, net.name])
                for level in ("a", "e") for net in self.target.networks]

    def passes(self, seconds: float) -> list:
        passes = []
        end = time.perf_counter() + seconds
        while len(passes) < 2 or time.perf_counter() < end:
            passes.append(self.suite_pass())
        return passes


def _suite_cycles(level: str, networks) -> int:
    from repro.perfmodel import network_trace
    return sum(network_trace(net, level).total_cycles for net in networks)


def _rate(logs, level: str | None = None) -> float:
    chosen = [s for s in logs if level is None or s.level == level]
    seconds = sum(s.seconds for s in chosen)
    return sum(s.instrs for s in chosen) / seconds / 1e6 if seconds else 0.0


def run_iss(seed: int, seconds: float, setup_samples, trace: bool,
            recorder: SpanRecorder | None):
    target = make_target("iss-suite")
    setup_s = target.start()
    try:
        run = IssRun(target, seed, seconds, recorder)
        run.warm()
        passes = run.passes(run.budget(0.55 if trace else 1.0))
        steps = [s for p in passes for s in p]
        gates = {}
        for level in ("a", "e"):
            per_pass = {sum(s.cycles for s in p if s.level == level)
                        for p in passes}
            gates[f"sim_cycles_{level}_eq_network_trace"] = \
                per_pass == {_suite_cycles(level, target.networks)}
        if trace:
            metrics, interp = _traced_iss(run, steps)
            turbo = {(s.level, s.network): s.cycles for s in steps}
            gates["interp_cycles_eq_turbo"] = all(
                s.cycles == turbo[s.level, s.network] for s in interp)
        else:
            host = sum(s.seconds for s in steps)
            step_s = [s.seconds for s in steps]
            metrics = {
                "setup_s": _median([setup_s] + list(setup_samples)),
                "capacity_rps": len(steps) / host,
                "p50_ms": percentile(step_s, 50) * 1e3,
                "p99_ms": percentile(step_s, 99) * 1e3,
                "ok_frac": run.passed / run.checked,
                "sim_minstr_s": _rate(steps),
                "sim_cycles": float(sum(s.cycles for s in passes[0]
                                        if s.level == "e")),
                "rss_mb": peak_rss_mb(),
            }
    finally:
        target.stop()
    gates["outputs_bit_exact"] = run.passed == run.checked
    phases = [{"phase": "iss-warm-up (run_and_check)",
               "attempted": run.warm_checked,
               "succeeded": run.warm_checked - run.warm_failed,
               "failed": run.warm_failed},
              {"phase": f"iss-steps ({len(passes)} turbo suite passes"
                        f"{' + interpreter sample' if trace else ''})",
               "attempted": run.checked - run.warm_checked,
               "succeeded": run.passed - (run.warm_checked - run.warm_failed),
               "failed": run.checked - run.passed - run.warm_failed}]
    return metrics, phases, run.checked - run.passed, gates


def _traced_iss(run: IssRun, steps) -> tuple:
    """Per-layer ISS and kernel metrics, plus the interpreter steps."""
    from repro.core.cpu import Cpu
    target = run.target
    metrics = {"kernels.build_s.a": target.build_s["a"],
               "kernels.build_s.e": target.build_s["e"],
               "core.minstr_s.a.turbo": _rate(steps, "a"),
               "core.minstr_s.e.turbo": _rate(steps, "e")}
    total = {}
    for (level, name), program in target.programs.items():
        # ``.trace`` accumulates over the warm-up step and every step since.
        runs = 1 + sum(1 for s in steps
                       if s.level == level and s.network == name)
        cycles = program.trace.total_cycles / runs
        metrics[f"kernels.cycles.{level}.{name}"] = cycles
        total[level] = total.get(level, 0) + cycles
    metrics["kernels.speedup_e_vs_a"] = total["a"] / total["e"]
    metrics["core.turbo_bails"] = float(sum(
        p.cpu.turbo_stats["bails"] for p in target.programs.values()))
    interp = []
    for level in ("a", "e"):
        for net in target.networks:
            if level == "a" and net.name not in INTERP_SAMPLE_A:
                continue
            program = target.programs[level, net.name]
            turbo_cpu = program.cpu
            program.cpu = Cpu(program.program, program.memory,
                              extensions=program.plan.level.extensions,
                              engine="interp")
            try:
                interp.append(run.step(level, net, program))
            finally:
                program.cpu = turbo_cpu
    metrics["core.minstr_s.a.interp"] = _rate(interp, "a")
    metrics["core.minstr_s.e.interp"] = _rate(interp, "e")
    return metrics, interp


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
