"""The benchmark's own logic, driven in virtual time against a fake target.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np

from perfbench.harness import (InputFactory, OpenLoop, find_capacity,
                               meets_limit, percentile)

LIMIT_S = 0.05


class VirtualClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.t += max(seconds, 0.0)


class FakeRequest:
    _ids = iter(range(1, 10 ** 9))

    def __init__(self, status, submit_time, settled_at, deadline=None):
        self.id = next(self._ids)
        self.status = status
        self.submit_time = submit_time
        self.settled_at = settled_at
        self.deadline = deadline
        self.output = None
        self.batch_size = 1

    def wait(self, timeout=None):
        return True


class FakeServer:
    """FIFO server with a fixed service time, settled in virtual time.

    Capacity is exactly ``1 / service_s``.  Every ``refuse_every``-th
    request is refused at once and every ``fail_every``-th fails; both
    settle *faster* than a served request, so only their status can
    make them miss the limit.
    """

    def __init__(self, clock, service_s, timeout_s=LIMIT_S,
                 refuse_every=0, fail_every=0, stall_every=0, stall_s=0.0):
        self.clock = clock
        self.service_s = service_s
        self.timeout_s = timeout_s
        self.refuse_every = refuse_every
        self.fail_every = fail_every
        self.stall_every = stall_every
        self.stall_s = stall_s
        self.busy_until = 0.0
        self.count = 0
        self.stalls = []

    def submit(self, network, x):
        self.count += 1
        if self.stall_every and self.count % self.stall_every == 0:
            # The generator's thread is held up (a long pause in the
            # process that hosts it): time passes before this submit.
            self.stalls.append((self.clock(), self.clock() + self.stall_s))
            self.clock.sleep(self.stall_s)
        now = self.clock()
        deadline = now + self.timeout_s
        if self.refuse_every and self.count % self.refuse_every == 0:
            return FakeRequest("rejected_capacity", now, now, deadline)
        start = max(now, self.busy_until)
        if start > deadline:
            return FakeRequest("rejected_timeout", now, start, deadline)
        self.busy_until = start + self.service_s
        status = "done"
        if self.fail_every and self.count % self.fail_every == 0:
            status = "failed"
        return FakeRequest(status, now, self.busy_until, deadline)


class StolenHost:
    """Host CPU accounting in virtual time: 2 CPUs at 100 ticks/s, all
    of it stolen by another guest during the server's stalls when
    ``steal`` is set."""

    def __init__(self, clock, server, steal=True):
        self.clock, self.server, self.steal = clock, server, steal

    def __call__(self):
        now = self.clock()
        stolen = sum(max(0.0, min(now, end) - start)
                     for start, end in self.server.stalls)
        return 200.0 * stolen * self.steal, 200.0 * now


def make_loop(server, clock, steal=False):
    return OpenLoop(server.submit, clock=clock, sleep=clock.sleep,
                    thread_time=lambda: 0.0, process_time=lambda: 0.0,
                    host_ticks=StolenHost(clock, server, steal))


def run_phase(server, clock, rate, duration=2.0, seed=7, steal=False):
    factory = InputFactory(np.random.default_rng(seed), {"net": 8})
    phase = make_loop(server, clock, steal).run(
        "probe", factory.traffic(rate, duration))
    return phase


def test_capacity_search_finds_known_knee():
    clock = VirtualClock()
    server = FakeServer(clock, service_s=1e-3)  # knee at 1000 req/s

    def probe(rate):
        server.busy_until = 0.0
        return meets_limit(run_phase(server, clock, rate), LIMIT_S)

    result = find_capacity(probe, start_rps=700.0, max_probes=9)
    # Within Poisson noise of the true knee (1000 req/s).
    assert 900.0 <= result.capacity_rps <= 1080.0
    assert any(not ok for _, ok in result.probes)


def test_search_converges_from_either_side():
    knee = 1234.0
    for start in (300.0, 1000.0, 2000.0, 5000.0):
        result = find_capacity(lambda r: r <= knee, start, max_probes=14)
        assert abs(result.capacity_rps / knee - 1.0) < 0.03


def test_search_recovers_from_one_unlucky_probe():
    knee = 1234.0
    calls = []

    def probe(rate):
        calls.append(rate)
        return rate <= knee and len(calls) != 2  # second probe: a stall

    result = find_capacity(probe, 1000.0, max_probes=12)
    assert abs(result.capacity_rps / knee - 1.0) < 0.05


def test_search_reports_zero_when_nothing_passes():
    assert find_capacity(lambda r: False, 1000.0, 5).capacity_rps == 0.0


def test_generator_stall_shows_in_due_time_latency():
    clock = VirtualClock()
    # 1000 arrivals over 2 s; the generator stalls 0.2 s once.
    server = FakeServer(clock, service_s=1e-5, stall_every=300,
                        stall_s=0.2)
    phase = run_phase(server, clock, rate=500.0)
    from_submit = phase.fields["settled_at"] - phase.fields["submit_time"]
    assert percentile(from_submit, 99) < 1e-3
    assert percentile(phase.lag(), 99) > 0.05
    assert percentile(phase.latencies(), 99) > LIMIT_S
    # Stalls in every judging window fail the probe; without them the
    # same traffic meets the limit easily.
    stalled = run_phase(FakeServer(clock, 1e-5, stall_every=150,
                                   stall_s=0.2), clock, rate=500.0)
    assert not meets_limit(stalled, LIMIT_S)
    clean = run_phase(FakeServer(clock, service_s=1e-5), clock, rate=500.0)
    assert meets_limit(clean, LIMIT_S)


def test_one_program_stall_over_one_percent_fails_a_probe():
    clock = VirtualClock()
    # One 0.1-s pause of the process that hosts the generator delays
    # about 50 of 1500 requests past the limit: over 1%.
    phase = run_phase(FakeServer(clock, 1e-5, stall_every=750,
                                 stall_s=0.1), clock, rate=500.0,
                      duration=3.0)
    assert phase.steal_frac() == 0.0
    assert phase.calm_percentile(99) > LIMIT_S
    assert not meets_limit(phase, LIMIT_S)
    # A pause that delays under 1% of them does not decide it.
    short = run_phase(FakeServer(clock, 1e-5, stall_every=750,
                                 stall_s=0.06), clock, rate=500.0,
                      duration=3.0)
    assert percentile(short.latencies(), 99.9) > LIMIT_S
    assert meets_limit(short, LIMIT_S)


def test_windows_the_host_stole_do_not_decide_a_probe():
    clock = VirtualClock()
    # Five 0.1-s stalls delay a tenth of the requests: too many to pass...
    stalled = FakeServer(clock, 1e-5, stall_every=200, stall_s=0.1)
    assert not meets_limit(run_phase(stalled, clock, 500.0), LIMIT_S)
    # ...unless the host reports those stalls as time stolen from it.
    stolen = FakeServer(clock, 1e-5, stall_every=200, stall_s=0.1)
    phase = run_phase(stolen, clock, 500.0, steal=True)
    assert phase.steal_frac() > 0.1
    assert meets_limit(phase, LIMIT_S)


def test_growing_backlog_fails_a_probe():
    clock = VirtualClock()
    # 8% over capacity: the queue grows for the whole probe.
    phase = run_phase(FakeServer(clock, 1e-3, timeout_s=10.0), clock,
                      rate=1080.0, duration=3.0)
    assert not meets_limit(phase, LIMIT_S)


def test_refused_requests_count_as_over_the_limit():
    clock = VirtualClock()
    phase = run_phase(FakeServer(clock, 1e-5, refuse_every=50), clock,
                      rate=500.0)
    counts = phase.counts()
    assert counts["statuses"]["rejected_capacity"] > 0
    assert math.isinf(percentile(phase.latencies(), 99))
    assert not meets_limit(phase, LIMIT_S)
    assert counts["succeeded"] == counts["attempted"] - \
        counts["statuses"]["rejected_capacity"]


def test_failed_requests_count_as_over_the_limit_and_failed():
    clock = VirtualClock()
    phase = run_phase(FakeServer(clock, 1e-5, fail_every=50), clock,
                      rate=500.0)
    counts = phase.counts()
    assert counts["failed"] == counts["statuses"]["failed"] > 0
    assert not meets_limit(phase, LIMIT_S)


def test_incorrect_outputs_count_as_missed_and_failed():
    clock = VirtualClock()
    phase = run_phase(FakeServer(clock, 1e-5), clock, rate=500.0)
    assert meets_limit(phase, LIMIT_S)
    phase.mismatched.update(range(0, phase.attempted, 50))
    assert not meets_limit(phase, LIMIT_S)
    assert phase.counts()["failed"] == len(phase.mismatched)


def test_generator_that_falls_behind_does_not_meet_the_limit():
    clock = VirtualClock()
    server = FakeServer(clock, service_s=1e-5)
    slow = make_loop(server, clock)
    submit = slow.submit

    def late_submit(network, x):
        clock.sleep(3e-3)  # each submit costs 3 ms: at most 333 req/s
        return submit(network, x)

    slow.submit = late_submit
    factory = InputFactory(np.random.default_rng(3), {"net": 8})
    phase = slow.run("probe", factory.traffic(1000.0, 1.0))
    assert not phase.kept_schedule()
    assert not meets_limit(phase, LIMIT_S)


def test_inputs_are_unique_and_seeded():
    def inputs(seed):
        factory = InputFactory(np.random.default_rng(seed),
                               {"a": 6, "b": 10})
        first = factory.traffic(2000.0, 1.0)
        second = factory.traffic(2000.0, 1.0)
        return first.inputs + second.inputs

    xs = inputs(5)
    assert len({x.tobytes() for x in xs}) == len(xs)
    assert all(np.array_equal(a, b) for a, b in zip(xs, inputs(5)))
    assert not all(np.array_equal(a, b) for a, b in zip(xs, inputs(6)))


def test_nearest_rank_percentile_sorts_misses_last():
    values = [0.001] * 98 + [math.inf] * 2
    assert percentile(values, 98) == 0.001
    assert math.isinf(percentile(values, 99))


def test_declared_metrics_match_the_runner():
    from perfbench import run
    from perfbench.workloads import END_TO_END, WORKLOAD_NAMES, \
        per_layer_names
    spec = run.declared()
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer_names())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)


def test_report_fills_unexercised_layers_and_rejects_unknown_metrics():
    import pytest

    from perfbench import run
    spec = run.declared()
    rows = [{"attempted": 3}]
    out = run.report(spec, True, {"core.turbo_bails": 0.0}, rows, 0,
                     {"gate": True})
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert out["correct"] and out["attempted"] == 3
    assert not run.report(spec, True, {}, rows, 0, {"gate": False})[
        "correct"]
    with pytest.raises(RuntimeError):
        run.report(spec, True, {"no.such.metric": 1.0}, rows, 0, {})
    with pytest.raises(RuntimeError):
        run.report(spec, False, {"setup_s": 1.0}, rows, 0, {})
    e2e = {m["name"]: 1.0 for m in spec["end_to_end"]}
    e2e["p99_ms"] = math.inf
    out = run.report(spec, False, e2e, rows, 1, {})
    assert out["metrics"]["p99_ms"]["value"] == run.MISSED
    assert not out["correct"] and out["failed"] == 1


def test_resource_tracker_is_stopped_and_reaped():
    import os
    from multiprocessing import resource_tracker

    import pytest

    from perfbench import run
    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    run.stop_resource_tracker()
    # Reaped, not merely signalled: no such child is left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    run.stop_resource_tracker()
