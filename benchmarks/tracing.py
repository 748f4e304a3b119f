"""In-memory spans around the public functions of each ppm_sdp module.

`instrument` swaps each listed function for a wrapper that records a span
(name, start, end, parent) and restores the originals on exit.  Spans stay in
memory until `Tracer.dump` writes them out.  The wrappers live here, so the
program itself carries no tracing code.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.paused = False  # while True, wrapped calls record nothing
        self.replays: dict = {}  # span name -> (record, fn, args, kwargs) of its first call

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name=name, start=time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def root(self, index: int) -> Span:
        while self.spans[index].parent is not None:
            index = self.spans[index].parent
        return self.spans[index]

    def select(self, name: str, fallback_root: str) -> list[Span]:
        """Spans called `name` outside the `fallback_root` tree, or, when
        there are none, the ones inside it."""
        own, fallback = [], []
        for k, s in enumerate(self.spans):
            if s.name == name:
                (fallback if self.root(k).name == fallback_root else own).append(s)
        return own or fallback

    def measure_peaks(self) -> None:
        """Replay the first call of each peak-measured function under
        tracemalloc and store its peak allocation on that call's span.

        tracemalloc slows every allocation, so it never runs inside a timed
        span; the replay is untimed and records no spans.
        """
        self.paused = True
        try:
            for record, fn, args, kwargs in self.replays.values():
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    record.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        finally:
            self.paused = False
            self.replays.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)


def median(values) -> float:
    return float(statistics.median(values))


def _wrap(tracer: Tracer, fn, name: str, measure_peak: bool, describe):
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if describe is not None:
            record.attrs.update(describe(args, result))
        if measure_peak:
            tracer.replays.setdefault(name, (record, fn, args, kwargs))
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, describe_adversary):
    """Record a span around every call of the timed public functions.

    Functions imported by name into another module are patched there too,
    since the caller looks them up in its own namespace.
    """
    from ppm_sdp import certificate, cli, graph_model, harness, sdp

    def iterations(args, sol):
        return {"iterations": sol.iterations}

    # (span name, measure peak allocation, describe(args, result), owners)
    targets = [
        ("graph_model.sample", False, None, [(graph_model, "sample_ppm"), (harness, "sample_ppm"), (cli, "sample_ppm")]),
        ("graph_model.read_graph", False, None, [(graph_model, "read_graph"), (cli, "read_graph")]),
        ("graph_model.adjacency", False, None, [(graph_model.Graph, "adjacency")]),
        ("graph_model.apply_adversary", False, describe_adversary,
         [(graph_model, "apply_adversary"), (harness, "apply_adversary"), (cli, "apply_adversary")]),
        ("sdp.build", False, None, [(sdp, "build_unknown_sizes"), (sdp, "build_known_sizes")]),
        ("sdp.solve", True, iterations, [(sdp, "solve")]),
        ("sdp.round", False, None, [(sdp, "round_to_partition")]),
        ("certificate.build", True, None, [(certificate, "build_certificate")]),
        ("certificate.verify", True, None, [(certificate, "verify_certificate")]),
        ("harness.trial", False, None, [(harness, "run_trial")]),
    ]
    saved = []
    try:
        for name, peak, describe, owners in targets:
            for owner, attr in owners:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, original, name, peak, describe))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
