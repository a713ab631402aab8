"""Open-loop load generation, phase statistics and the capacity search.

This module knows nothing about the program under test.  A *target* is
any callable ``submit(network, x) -> handle`` whose handle exposes the
settlement surface shared by :class:`repro.serve.engine.Request` and
:class:`repro.cluster.router.ClusterRequest`: ``status``,
``settled_at``, ``deadline``, ``output`` and ``wait(timeout)``.

Every request is timed from its *scheduled* arrival (``due``), not from
the moment the generator got round to submitting it, so a stall in the
generator or in anything sharing its interpreter shows up as latency on
every request it delays.  The generator records its own lateness and
the rate it actually offered; a probe whose generator fell behind its
schedule does not count as meeting the latency limit.

The clock and the sleep function are injectable so the tests can drive
the generator, the statistics and the search in virtual time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

DONE = "done"
FAILED = "failed"
#: Status of a request that never settled (counted as failed).
UNSETTLED = "unsettled"

#: A probe must offer at least this share of its scheduled rate.
MIN_OFFERED_SHARE = 0.95
#: Length of the due-time windows steal is judged over.
WINDOW_S = 0.25
#: How often the generator samples the host's CPU accounting.
HOST_SAMPLE_S = 0.05
#: A window is calm when other guests stole at most this share of the
#: host's CPU time during it.
CALM_STEAL = 0.02
#: Windows a phase is judged on however much of the host was stolen.
MIN_CALM_WINDOWS = 3
#: Inputs are drawn from ``[-AMPLITUDE, AMPLITUDE)`` (Q3.12: +-1.0).
AMPLITUDE = 4096
#: The first arrival of a phase is due this long after the phase starts.
LEAD_S = 0.002
#: How long the end of a phase waits for the target to settle and idle.
DRAIN_TIMEOUT_S = 5.0
#: Initial up/down factor of the capacity staircase.
SEARCH_STEP = 1.25


def host_cpu_ticks() -> tuple:
    """(steal, total) jiffies of all CPUs, or (0, 0) off Linux.

    Steal is time the hypervisor ran another guest while this one was
    runnable: the host-noise share of a phase, reported beside it.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (misses) sort last."""
    if len(values) == 0:
        return math.inf
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    expected = rate * duration
    gaps = rng.exponential(1.0 / rate, size=int(expected * 1.2 + 64))
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=len(gaps)))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < duration]


@dataclass
class Traffic:
    """The pre-generated arrivals of one phase (built outside timing)."""

    rate: float
    duration: float
    offsets: np.ndarray
    networks: list
    inputs: list
    #: Requests whose handles are kept for the correctness gate.
    keep: frozenset = frozenset()


class InputFactory:
    """Seeded inputs, unique per request across the whole run.

    The first two elements of every input encode a run-wide request
    counter, so no two requests carry the same vector and a later
    input-keyed cache cannot score on repeats.
    """

    def __init__(self, rng: np.random.Generator, input_sizes: dict):
        self.rng = rng
        self.input_sizes = dict(input_sizes)
        self.names = sorted(self.input_sizes)
        self.counter = 0

    def traffic(self, rate: float, duration: float,
                keep_per_network: int = 0) -> Traffic:
        offsets = poisson_offsets(self.rng, rate, duration)
        picks = self.rng.integers(0, len(self.names), size=len(offsets))
        networks = [self.names[i] for i in picks]
        inputs = [self.make(name) for name in networks]
        keep = set()
        for index in range(len(self.names)):
            members = np.flatnonzero(picks == index)
            size = min(keep_per_network, len(members))
            keep.update(int(i) for i in self.rng.choice(members, size,
                                                        replace=False))
        return Traffic(rate, duration, offsets, networks, inputs,
                       frozenset(keep))

    def make(self, name: str) -> np.ndarray:
        amp = AMPLITUDE
        x = self.rng.integers(-amp, amp, size=self.input_sizes[name],
                              dtype=np.int64)
        stamp = self.counter
        self.counter += 1
        x[0] = stamp % (2 * amp) - amp
        x[1] = (stamp // (2 * amp)) % (2 * amp) - amp
        return x


#: Request fields recorded, as float arrays, when a request settles.
FIELDS = ("id", "submit_time", "settled_at", "deadline", "batch_size",
          "latency", "service_latency")


@dataclass
class Phase:
    """Per-request record of one open-loop phase.

    Each request is reduced to its status string and the numeric
    :data:`FIELDS` as soon as it settles, and its handle is dropped,
    so the benchmark never holds more than the in-flight requests plus
    the few in ``kept`` (handle and input, for the correctness gate).
    A harness that kept every handle would make the program's garbage
    collections walk tens of thousands of dead requests and add that
    pause to every latency it measures.
    """

    name: str
    rate: float
    duration: float
    start: float
    due: np.ndarray
    sent: np.ndarray
    submit_s: np.ndarray
    networks: list
    status: list
    fields: dict
    kept: dict
    generator_cpu_s: float
    process_cpu_s: float
    wall_s: float
    drained: bool
    #: ``(time, steal, total)`` host CPU samples taken during the phase.
    host: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    #: Indices of requests whose sampled output disagreed with the
    #: golden model (filled in by the correctness gate).
    mismatched: set = field(default_factory=set)
    checked: int = 0

    def done_mask(self) -> np.ndarray:
        """DONE and not found incorrect."""
        mask = np.array([s == DONE for s in self.status], dtype=bool)
        if self.mismatched:
            mask[list(self.mismatched)] = False
        return mask

    # ------------------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """Seconds from scheduled arrival to settle; ``inf`` = missed.

        Refused, timed-out, failed and incorrect requests all miss.
        """
        settled = self.fields["settled_at"]
        return np.where(self.done_mask(), settled - self.due, math.inf)

    def ok_mask(self) -> np.ndarray:
        """DONE, not found incorrect, and settled within the deadline."""
        deadline = self.fields["deadline"]
        in_time = np.isnan(deadline) | (self.fields["settled_at"]
                                        <= deadline)
        return self.done_mask() & in_time

    @property
    def attempted(self) -> int:
        return len(self.due)

    def counts(self) -> dict:
        statuses: dict = {}
        for status in self.status:
            statuses[status] = statuses.get(status, 0) + 1
        failed = (statuses.get(FAILED, 0) + statuses.get(UNSETTLED, 0)
                  + len(self.mismatched))
        return {"attempted": self.attempted,
                "succeeded": int(self.ok_mask().sum()),
                "failed": failed, "statuses": statuses,
                "golden_checked": self.checked,
                "mismatched": len(self.mismatched)}

    def lag(self) -> np.ndarray:
        return self.sent - self.due

    def offered_rps(self) -> float:
        """Rate the generator really offered (submits per second)."""
        if self.attempted == 0:
            return 0.0
        span = max(self.sent[-1] - self.start, 1e-9)
        return self.attempted / span

    def scheduled_rps(self) -> float:
        if self.attempted == 0:
            return 0.0
        return self.attempted / max(self.due[-1] - self.start, 1e-9)

    def kept_schedule(self) -> bool:
        return bool(self.attempted > 0 and self.offered_rps()
                    >= MIN_OFFERED_SHARE * self.scheduled_rps())

    def steal_frac(self, lo: float | None = None,
                   hi: float | None = None) -> float:
        """Share of host CPU time stolen by other guests in ``[lo, hi)``
        (the whole phase by default), from the generator's samples."""
        if len(self.host) < 2:
            return 0.0
        t, steal, total = self.host.T
        lo = t[0] if lo is None else lo
        hi = t[-1] if hi is None else hi
        d_steal = np.interp(hi, t, steal) - np.interp(lo, t, steal)
        d_total = np.interp(hi, t, total) - np.interp(lo, t, total)
        return float(d_steal / d_total) if d_total > 0 else 0.0

    def calm_latencies(self) -> np.ndarray:
        """Latencies of the requests due in calm windows of the phase.

        The phase is cut into due-time windows of about
        :data:`WINDOW_S`.  Windows in which other guests stole more than
        :data:`CALM_STEAL` of the host are left out, except that the
        :data:`MIN_CALM_WINDOWS` least-stolen windows (or a tenth of
        them, if more) are always kept: steal is time the hypervisor
        gave the CPUs to someone else, which no change to the program
        controls.  The latencies of every kept window are pooled, so a
        pause the program causes counts wherever it falls.  On a quiet
        host every window is calm and this is every latency.
        """
        lat = self.latencies()
        windows = max(1, round(self.duration / WINDOW_S))
        edges = np.linspace(self.start, self.start + self.duration,
                            windows + 1)
        stolen = np.array([self.steal_frac(lo, hi)
                           for lo, hi in zip(edges[:-1], edges[1:])])
        keep = min(windows, max(MIN_CALM_WINDOWS, windows // 10))
        floor = np.sort(stolen)[keep - 1]
        calm = stolen <= max(CALM_STEAL, floor)
        window = np.clip(np.searchsorted(edges, self.due, side="right") - 1,
                         0, windows - 1)
        return lat[calm[window]]

    def calm_percentile(self, q: float) -> float:
        """The ``q`` percentile of :meth:`calm_latencies`."""
        return percentile(self.calm_latencies(), q)

    def summary(self, limit_s: float) -> dict:
        lat = self.latencies()
        lag = self.lag()
        row = {"phase": self.name, "rate_rps": round(self.rate, 3),
               "duration_s": self.duration}
        row.update(self.counts())
        row.update({
            "p50_ms": _ms(percentile(lat, 50)),
            "p99_ms": _ms(percentile(lat, 99)),
            "calm_p99_ms": _ms(self.calm_percentile(99)),
            "lag_p99_ms": _ms(percentile(lag, 99)) if len(lag) else 0.0,
            "offered_rps": round(self.offered_rps(), 3),
            "kept_schedule": self.kept_schedule(),
            "drained": self.drained,
            "host_steal_frac": round(self.steal_frac(), 4),
            "meets_limit": meets_limit(self, limit_s),
        })
        return row


def _ms(seconds: float) -> float | None:
    return None if math.isinf(seconds) else seconds * 1e3


def meets_limit(phase: Phase, limit_s: float) -> bool:
    """The capacity criterion for one probe.

    The generator kept its schedule, every request settled, and the p99
    latency from scheduled arrival over the probe's calm windows
    (misses count as infinite) is within ``limit_s``.  A growing
    backlog, a target that sheds or fails work, and a pause of the
    program's own that delays more than 1% of the requests all fail it.
    """
    if not (phase.drained and phase.kept_schedule()):
        return False
    return bool(phase.calm_percentile(99) <= limit_s)


class OpenLoop:
    """Single-threaded open-loop generator.

    ``submit(network, x)`` is called at each scheduled arrival (or as
    soon after it as the generator can manage); ``idle()`` returns True
    once the target holds no queued work and is used to drain between
    phases.
    """

    def __init__(self, submit, idle=None, clock=time.monotonic,
                 sleep=time.sleep, thread_time=time.thread_time,
                 process_time=time.process_time,
                 host_ticks=host_cpu_ticks):
        self.submit = submit
        self.idle = idle
        self.host_ticks = host_ticks
        self.clock = clock
        self.sleep = sleep
        self.thread_time = thread_time
        self.process_time = process_time

    def run(self, name: str, traffic: Traffic) -> Phase:
        clock, sleep, submit = self.clock, self.sleep, self.submit
        n = len(traffic.offsets)
        due = np.empty(n)
        sent = np.empty(n)
        submit_s = np.empty(n)
        ledger = _Ledger(n, traffic)
        networks, inputs = traffic.networks, traffic.inputs
        cpu0 = self.thread_time()
        proc0 = self.process_time()
        host = [(clock(), *self.host_ticks())]
        next_sample = host[0][0] + HOST_SAMPLE_S
        start = clock() + LEAD_S
        for i in range(n):
            when = start + traffic.offsets[i]
            now = clock()
            if now >= next_sample:
                host.append((now, *self.host_ticks()))
                next_sample = now + HOST_SAMPLE_S
            if when > now:
                ledger.harvest(i)
                now = clock()
                if when > now:
                    sleep(when - now)
                    now = clock()
            elif i % 256 == 0:
                ledger.harvest(i)
            ledger.handles[i] = submit(networks[i], inputs[i])
            after = clock()
            due[i] = when
            sent[i] = now
            submit_s[i] = after - now
        host.append((clock(), *self.host_ticks()))
        drained = self._drain(ledger)
        wall = clock() - start
        return Phase(name=name, rate=traffic.rate,
                     duration=traffic.duration, start=start, due=due,
                     sent=sent, submit_s=submit_s,
                     networks=list(networks), status=ledger.status,
                     fields=ledger.fields, kept=ledger.kept,
                     generator_cpu_s=self.thread_time() - cpu0,
                     process_cpu_s=self.process_time() - proc0,
                     wall_s=wall, drained=drained,
                     host=np.array(host, dtype=np.float64))

    def _drain(self, ledger: "_Ledger") -> bool:
        """Wait for every request to settle and the target to go idle."""
        deadline = self.clock() + DRAIN_TIMEOUT_S
        settled = True
        for i in range(ledger.next, len(ledger.handles)):
            remaining = deadline - self.clock()
            if remaining <= 0 or not ledger.handles[i].wait(remaining):
                settled = False
                break
        ledger.harvest(len(ledger.handles), limit=None)
        if not settled:
            return False
        while self.idle is not None and not self.idle():
            if self.clock() > deadline:
                return False
            self.sleep(0.001)
        return True


class _Ledger:
    """Records settled requests in submit order and drops their handles."""

    def __init__(self, n: int, traffic: Traffic):
        self.handles = [None] * n
        self.status = [UNSETTLED] * n
        self.fields = {name: np.full(n, math.nan) for name in FIELDS}
        self.keep = traffic.keep
        self.inputs = traffic.inputs
        #: index -> (handle, input) for the correctness gate.
        self.kept: dict = {}
        self.next = 0

    def harvest(self, upto: int, limit: int | None = 64) -> None:
        """Record the settled prefix of requests ``[next, upto)``.

        With ``limit=None`` (the end of a phase) every settled request
        up to ``upto`` is recorded, even behind an unsettled one.
        """
        handles, fields = self.handles, self.fields
        i = self.next
        stop = upto if limit is None else min(upto, i + limit)
        while i < stop:
            handle = handles[i]
            if handle is None or handle.settled_at is None:
                if limit is None:
                    i += 1
                    continue
                break
            self.status[i] = handle.status
            for name in FIELDS:
                value = getattr(handle, name, None)
                if value is not None:
                    fields[name][i] = value
            if i in self.keep:
                self.kept[i] = (handle, self.inputs[i])
            handles[i] = None
            i += 1
        self.next = i


@dataclass
class SearchResult:
    capacity_rps: float
    probes: list


def find_capacity(probe, start_rps: float, max_probes: int) \
        -> SearchResult:
    """Pass/fail staircase with shrinking steps.

    ``probe(rate) -> bool`` runs one open-loop probe.  Each pass moves
    the rate up by :data:`SEARCH_STEP`, each fail moves it down, and
    the log-step halves at every reversal, so the rates close in on the
    knee from whichever side ``start_rps`` lies (a program several
    times faster or slower is still found).  One unlucky probe moves
    the rate one step instead of fencing off the rest of the range,
    which is what makes this steadier than bisection on a noisy host.
    Returns the rate the staircase would probe next, i.e. its estimate
    of the rate at which a probe passes half the time; 0.0 if no probe
    passed.
    """
    probes = []
    rate = start_rps
    log_step = math.log(SEARCH_STEP)
    last = None
    for _ in range(max_probes):
        ok = probe(rate)
        probes.append((rate, ok))
        if last is not None and ok != last:
            log_step /= 2.0
        last = ok
        rate *= math.exp(log_step if ok else -log_step)
    passed = any(ok for _, ok in probes)
    return SearchResult(capacity_rps=rate if passed else 0.0,
                        probes=probes)
