"""Per-layer spans and counts for the traced mode (``--trace 1``).

Imported only by traced runs, so untraced runs never load these wrappers.
:func:`install` replaces each layer's public functions with wrappers from
outside the program, patching the name where the caller looks it up
(``fedsust.cli.load_scenario``, ``fedsust.fedsim.sample_clients``, ...).
Spans ``(name, start, end, parent)`` and counts stay in memory; the caller
writes them out when the run ends. A span's self time is its duration
minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.covered: list[float] = []  # time covered by direct children, per span
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self.gc_collections = 0
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self.gc_collections += 1

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self.covered.append(0.0)
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            # a tuple of atomic values drops out of the collector's tracking,
            # so a long trace does not slow every later collection
            self.spans[index] = (name, start, end, parent)
            if parent >= 0:
                self.covered[parent] += end - start

    def mark(self) -> tuple[int, dict, int]:
        """Position to summarize from, for per-operation figures."""
        return len(self.spans), dict(self.counts), self.gc_collections

    def summary(self, since: tuple[int, dict, int]) -> dict:
        """Per-name ``.ms``, ``.self_ms`` and ``.calls``, plus counters, since a mark."""
        first, counts_before, gc_before = since
        out: dict[str, float] = defaultdict(float)
        for index in range(first, len(self.spans)):
            name, start, end, _ = self.spans[index]
            out[name + ".ms"] += (end - start) * 1e3
            out[name + ".self_ms"] += (end - start - self.covered[index]) * 1e3
            out[name + ".calls"] += 1
        for key, value in self.counts.items():
            out[key] += value - counts_before.get(key, 0)
        out["py.gc.collections"] = self.gc_collections - gc_before
        return dict(out)


def _spanned(tracer: Tracer, name: str, fn, extra=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if extra is not None:
            key, amount = extra(args, result)
            tracer.counts[key] += amount
        return result

    return traced


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts
    key = name + ".calls"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return traced


def _result_bytes(args, result):
    return "report.render_report.bytes", len(result)


def _written_bytes(args, result):
    return "report.write_atomic.bytes", len(args[1])


def _csv_rows(args, result):
    return "emissions.rows", result.count(b"\n") - 1


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function at the place its caller looks it up."""
    from fedsust import cli, emissions, fedsim, refdata, report

    spans = [
        (cli, "load_scenario", "config.load_scenario", None),
        (cli, "assess_carbon", "sustainability.assess", None),
        (cli, "assess_hardware", "sustainability.assess", None),
        (cli, "assess_complexity", "sustainability.assess", None),
        (cli, "build_sustainability_node", "sustainability.assess", None),
        (cli, "aggregate", "scoring.aggregate", None),
        (cli, "apply_weights", "scoring.apply_weights", None),
        (cli, "trust_score", "scoring.trust_score", None),
        (report, "trust_score", "scoring.trust_score", None),
        (cli, "build_trust_report", "report.build_trust_report", None),
        (cli, "emissions_summary", "report.emissions_summary", None),
        (cli, "populate_factsheet", "report.populate_factsheet", None),
        (cli, "render_report", "report.render_report", _result_bytes),
        (cli, "write_atomic", "report.write_atomic", _written_bytes),
        (report, "write_atomic", "report.write_atomic", _written_bytes),
        (cli, "run_federation", "fedsim.run_federation", None),
        (fedsim, "sample_clients", "fedsim.sample_clients", None),
        (fedsim, "client_class_counts", "fedsim.client_class_counts", None),
        (fedsim, "aggregate_model", "fedsim.aggregate_model", None),
        (fedsim, "track_phase", "emissions.track_phase", None),
        (emissions.EmissionsLog, "sorted_records", "emissions.sorted_records", None),
        (emissions.EmissionsLog, "to_csv_bytes", "emissions.to_csv_bytes", _csv_rows),
    ]
    for owner, attr, name, extra in spans:
        setattr(owner, attr, _spanned(tracer, name, getattr(owner, attr), extra))
    for owner, attr in ((fedsim, "hash_label"), (fedsim, "hash_client_id"), (report, "hash_client_id")):
        setattr(owner, attr, _counted(tracer, f"fedsim.{attr}", getattr(owner, attr)))

    load = refdata.ReferenceTables.__dict__["load"].__func__
    refdata.ReferenceTables.load = classmethod(
        functools.wraps(load)(lambda cls, *a, **k: tracer.call("refdata.load", load, cls, *a, **k))
    )
