"""Spans and counters recorded around the benchmark's calls into treeinv.

A span has an id, a name (the layer entered, or "request"), start and
end (perf_counter seconds), the id of the request span that caused it,
the request id, whether the call raised, and the index of the
machine-speed timing before it (see speed.py).  Spans stay in memory
and are written out once, when the run ends.  A disabled tracer keeps
only the per-run state the requests need (which tree strata were
already walked) and the speed timings, which it takes between calls
whether or not it records spans, so traced and untraced requests pause
alike.  A request span's wall time includes those pauses; a call's
never does.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter

from speed import Speedometer

# Layers the requests open spans for; each yields <layer>_s, .calls, .failed.
LAYERS = (
    "mapfile.parse",
    "inversion.fixed_point",
    "inversion.verify",
    "inversion.poly_degree",
    "numeric.theorem1",
    "trees.labeled_cold",
    "trees.labeled_warm",
    "trees.grouped",
    "jacobian.analyze",
    "jacobian.chain",
    "jacobian.loop",
    "partition.report",
    "partition.z_identity",
    "partition.self_norm",
)
COUNTERS = ("inversion.coeffs_out", "numeric.points", "trees.trees_walked")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    failed: bool
    mark: int


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.strata_seen: set[tuple[int, int]] = set()
        self.speed = Speedometer()
        self._request = 0
        self._parent: int | None = None

    @contextmanager
    def _record(self, name: str, parent: int | None):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        mark = self.speed.mark()
        start = perf_counter()
        failed = True
        try:
            yield span_id
            failed = False
        finally:
            self.spans[span_id] = Span(span_id, name, start, perf_counter(), parent, self._request, failed, mark)

    @contextmanager
    def request(self, request_id: int, enabled: bool):
        """Scope one request; it and its calls get spans only when enabled."""
        self.enabled = enabled
        self._request = request_id
        self.speed.begin(request_id)
        try:
            if not enabled:
                yield
                return
            with self._record("request", None) as span_id:
                self._parent = span_id
                yield
        finally:
            self.speed.end()

    def span(self, name: str):
        self.speed.tick()
        if not self.enabled:
            return nullcontext()
        return self._record(name, self._parent)

    def count(self, name: str, value: int) -> None:
        if self.enabled:
            self.counters[name] += value

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the traced requests: {name: (value, unit)}.

        <layer>_s is the mean reference seconds per call (see speed.py), <layer>.calls and
        <layer>.failed count calls and calls that raised; the counters
        are totals; a layer the workload never enters reads 0.
        """
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            spans = [s for s in self.spans if s.name == layer]
            busy = sum((s.end - s.start) * self.speed.scale(s.mark) for s in spans)
            out[f"{layer}_s"] = (busy / len(spans) if spans else 0.0, "s")
            out[f"{layer}.calls"] = (len(spans), "count")
            out[f"{layer}.failed"] = (sum(s.failed for s in spans), "count")
        out["inversion.fixed_point_calls"] = out["inversion.fixed_point.calls"]
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        labeled = out["trees.labeled_cold.calls"][0] + out["trees.labeled_warm.calls"][0]
        warm = out["trees.labeled_warm.calls"][0]
        out["trees.census_reuse_ratio"] = (warm / labeled if labeled else 0.0, "ratio")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
