"""Span tracer that wraps tunneltda's public functions from outside the package.

Each wrapped function is replaced at the module attribute its callers look it
up through (``lssvm.train_regressor``, ``pipeline.detect_warning``, ...), so
calls made inside the package are traced too. Spans live in flat arrays while
the run lasts and are written out once, when it ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from array import array
from collections import Counter, defaultdict

from tunneltda import cli, dataio, features, lssvm, pipeline, topology

COUNT_SPAN = "trace.count"  # tracer bookkeeping, kept out of every layer's self time


def _count_filtration(counts, args, result):
    counts["topology.simplices"] += len(result)
    counts["topology.triangles"] += sum(1 for s in result.simplices if len(s.vertices) == 3)


def _count_bars(counts, args, result):
    for p in result.pairs:
        counts[f"topology.bars_h{p.dim}"] += 1


def _count_train(counts, args, result):
    counts["lssvm.train_calls"] += 1


def _count_write(counts, args, result):
    counts["dataio.files_written"] += 1
    counts["dataio.bytes_written"] += os.path.getsize(args[-1])


def _count_read(counts, args, result):
    counts["dataio.bytes_read"] += os.path.getsize(args[0])


# (module, attribute, span name, counter run after the call)
WRAPPED = (
    (topology, "compute_distance_matrix", "topology.distance", None),
    (topology, "build_vr_filtration", "topology.filtration", _count_filtration),
    (topology, "compute_persistence", "topology.reduction", _count_bars),
    (features, "extract_features", "features.extract", None),
    (features, "feature_series", "features.extract", None),
    (features, "feature_matrix", "features.extract", None),
    (lssvm, "select_hyperparameters", "lssvm.select", None),
    (lssvm, "loo_squared_errors", "lssvm.select", None),
    (lssvm, "train_regressor", "lssvm.train", _count_train),
    (lssvm, "predict", "lssvm.predict", None),
    (lssvm, "predict_batch", "lssvm.predict", None),
    (pipeline, "run_all", "pipeline.run_all", None),
    (pipeline, "run_feature_experiment", "pipeline.experiment", None),
    (pipeline, "run_table6_experiment", "pipeline.experiment", None),
    (pipeline, "detect_warning", "pipeline.warn", None),
    (dataio, "write_barcode", "dataio.write", _count_write),
    (dataio, "write_features", "dataio.write", _count_write),
    (dataio, "write_model", "dataio.write", _count_write),
    (dataio, "load_snapshot", "dataio.read", _count_read),
    (dataio, "load_sequence", "dataio.read", _count_read),
    (dataio, "read_barcode", "dataio.read", _count_read),
    (dataio, "read_features", "dataio.read", _count_read),
    (dataio, "fixtures", "dataio.read", None),
    (cli, "main", "cli", None),
)


class Tracer:
    """Records (name, start, end, parent) spans and counts at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                c = self.open(COUNT_SPAN)
                count(self.counts, args, result)
                self.close(c)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, count in WRAPPED:
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def self_times(self, root: str) -> dict[str, float]:
        """Summed self time per span name over spans below roots named root.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        root_of = [0] * n
        totals: dict[str, float] = defaultdict(float)
        root_id = self._name_ids.get(root)
        for i in range(n):
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
            if self.name_id[root_of[i]] == root_id:
                totals[self.names[self.name_id[i]]] += (
                    self.end[i] - self.start[i] - child_time[i])
        return dict(totals)

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: run metadata, then [name, start, end, parent] per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_id[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")
