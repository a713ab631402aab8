"""In-memory spans for the traced run, written out when the run ends.

Spans are recorded from the benchmark's own code, around calls into
each layer's public functions; the program itself is not instrumented.
The recorder is the benchmark's own rather than ``repro.obs.spans``,
so a change to the program's tracer cannot move what tracing costs
here (``bench.trace_overhead_frac``) or how the layers are timed.
Spans of one request share its id (``rid``) wherever the public
surface exposes one.  The file is Chrome trace-event JSON, so it opens
in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import threading
import time


class SpanRecorder:
    """Append-only span log; ``list.append`` is atomic under the GIL,
    so engine worker threads and the generator may record at once."""

    def __init__(self):
        self.spans: list = []

    def add(self, name: str, layer: str, start: float, end: float,
            rid=None, **args) -> None:
        self.spans.append((name, layer, start, end, rid,
                           threading.get_ident(), args))

    def write(self, path: str) -> None:
        events = []
        for name, layer, start, end, rid, tid, args in self.spans:
            fields = dict(args)
            if rid is not None:
                fields["rid"] = rid
            events.append({"name": name, "cat": layer, "ph": "X",
                           "ts": start * 1e6, "dur": (end - start) * 1e6,
                           "pid": os.getpid(), "tid": tid,
                           "args": fields})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle,
                      separators=(",", ":"))


class TimedModel:
    """Forwarding timer around ``ModelEntry.model``.

    ``infer`` is timed into an ``aot.infer`` span; every other
    attribute (``reload_params``, ``cycles_per_request``, ...) goes
    straight to the wrapped model, so the engine's repair and
    bookkeeping paths behave exactly as without the wrapper.
    """

    def __init__(self, model, recorder: SpanRecorder, network: str):
        self._model = model
        self._recorder = recorder
        self._network = network

    def infer(self, x_batch):
        start = time.monotonic()
        out = self._model.infer(x_batch)
        self._recorder.add("aot.infer", "repro.serve.aot", start,
                           time.monotonic(),
                           network=self._network, batch=len(x_batch))
        return out

    def __getattr__(self, name):
        return getattr(self._model, name)
