"""Traced in-process run of the CLI stages, for the per-layer metrics.

Each stage runs ``electrend.cli.main`` in this process on the workload's own
files, with the layer functions wrapped where the CLI looks them up (``HOOKS``),
so the spans follow whatever the program does: if ``ingest`` stops decoding
every line twice, ``ingest.parse_record`` shows half the calls. ``classify``
runs with ``--workers 1`` so that its calls stay in this process.

A span's time is exclusive: what a call spends outside the other spans it
makes, so ``sweep_t0`` calling ``trend_cumulative`` is not counted twice.
Spans are kept per stage, one per layer function, in memory and written out
at the end with call counts and per-call microseconds.
"""

from __future__ import annotations

import gc
import importlib
import json
import logging
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

_perf = time.perf_counter

# (where the CLI looks the function up, attribute, span, ``Spans`` method that
# wraps it). The owner is a module or class under ``electrend``.
HOOKS = (
    ("cli", "iter_lines", "ingest.read_lines", "wrap_iter"),
    ("cli", "parse_record", "ingest.parse_record", "wrap"),
    ("cli", "matches_query", "ingest.matches_query", "wrap"),
    ("cli", "effective_date", "ingest.assign_day", "wrap"),
    ("cli", "assign_day", "ingest.assign_day", "wrap"),
    ("cli", "record_to_json", "ingest.record_to_json", "wrap"),
    ("cli", "_atomic_text", "cli.write", "wrap_cm"),
    ("manifest", "write_json_atomic", "cli.write", "wrap"),
    ("stance.LexiconModel", "save", "cli.write", "wrap"),
    ("botfilter.ActivityTracker", "add", "botfilter.track", "wrap"),
    ("botfilter.ActivityTracker", "profiles", "botfilter.score", "wrap_profiles"),
    ("botfilter", "score_user", "botfilter.score", "wrap"),
    ("stance", "train_from_seeds", "stance.train", "wrap"),
    ("stance", "classify_tweet", "stance.classify_tweet", "wrap"),
    ("trend.CounterTable", "from_labeled", "trend.counter_build", "wrap"),
    ("trend.CounterTable", "_freeze", "trend.freeze", "wrap_freeze"),
    ("trend", "trend_instant", "trend.series_instant", "wrap"),
    ("trend", "trend_cumulative", "trend.series_cumulative", "wrap"),
    ("trend", "sweep_t0", "trend.sweep", "wrap"),
    ("trend.CounterTable", "categories_by_user", "trend.reweight", "wrap"),
    ("trend", "apply_demographic_weights", "trend.reweight", "wrap"),
    ("trend", "write_trend_csv", "trend.write_csv", "wrap"),
    ("manifest.RunManifest", "add_input", "manifest.sha256", "wrap_hashed"),
)


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Spans:
    """Exclusive time and calls per stage and span: stage -> span -> [seconds, calls]."""

    def __init__(self):
        self.stages: dict[str, dict[str, list]] = {}
        self.sizes: Counter = Counter()  # bytes hashed by the manifest layer
        self.peaks: dict[str, float] = {}  # largest value seen, for memory figures
        self.missing: list[str] = []  # hooks the program no longer has
        self._stage = ""
        self._stage_rss = 0.0
        self._inner: list[float] = []  # time spent in child spans, one entry per open span

    def begin(self, stage: str) -> None:
        self._stage = stage
        self.stages[stage] = {}
        self._stage_rss = rss_mb()

    def _stat(self, name: str) -> list:
        return self.stages[self._stage].setdefault(name, [0.0, 0])

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def wrap(self, name: str, fn):
        """``fn`` with every call added to the span ``name`` of the current stage."""
        stat = self._stat(name)
        inner = self._inner

        def timed(*args, **kwargs):
            inner.append(0.0)
            t = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t
                stat[0] += elapsed - inner.pop()
                stat[1] += 1
                if inner:
                    inner[-1] += elapsed

        return timed

    def wrap_iter(self, name: str, fn):
        """``fn`` returning an iterator, with each step added to the span ``name``."""
        step = self.wrap(name, next)

        def timed(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return timed

    def wrap_cm(self, name: str, fn):
        """``fn`` returning a context manager, with its whole ``with`` block added to the span ``name``."""
        stat = self._stat(name)
        inner = self._inner

        @contextmanager
        def timed(*args, **kwargs):
            inner.append(0.0)
            t = _perf()
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                elapsed = _perf() - t
                stat[0] += elapsed - inner.pop()
                stat[1] += 1
                if inner:
                    inner[-1] += elapsed

        return timed

    def wrap_freeze(self, name: str, fn):
        """``CounterTable._freeze``, with the RSS growth of the call that builds the planes."""
        timed = self.wrap(name, fn)

        def measured(table):
            if getattr(table, "_frozen", True) is not None:
                return timed(table)
            before = rss_mb()
            try:
                return timed(table)
            finally:
                self.peak("trend.plane_mb", rss_mb() - before)

        return measured

    def wrap_profiles(self, name: str, fn):
        """``ActivityTracker.profiles``, with the RSS growth of the stage up to bot scoring."""
        timed = self.wrap(name, fn)

        def measured(tracker):
            self.peak("botfilter.track_rss_mb", rss_mb() - self._stage_rss)
            return timed(tracker)

        return measured

    def wrap_hashed(self, name: str, fn):
        """``RunManifest.add_input``, with the size of every file it hashes."""
        timed = self.wrap(name, fn)

        def measured(run, label, path):
            self.sizes[name] += os.path.getsize(path)
            return timed(run, label, path)

        return measured


def _owner(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"electrend.{module}")
    return getattr(obj, cls, None) if cls else obj


def install(sp: Spans) -> list[tuple]:
    """Wrap every hook for the current stage; returns what ``uninstall`` needs."""
    saved = []
    for path, attr, name, method in HOOKS:
        owner = _owner(path)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            if f"{path}.{attr}" not in sp.missing:
                sp.missing.append(f"{path}.{attr}")
            continue
        wrapper = getattr(sp, method)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrapper(name, original.__func__))
        else:
            wrapped = wrapper(name, original)
        setattr(owner, attr, wrapped)
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def trace_stage(sp: Spans, stage: str, argv: list[str], wdir: Path, log_path: Path) -> tuple[int, float]:
    """Run ``electrend.cli.main(argv)`` in ``wdir`` with every hook wrapped.

    Returns the exit code and the in-process wall time.
    """
    from electrend import cli

    root = logging.getLogger()
    handler = logging.FileHandler(log_path, mode="a", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    gc.collect()
    sp.begin(stage)
    saved = install(sp)
    cwd = os.getcwd()
    os.chdir(wdir)
    t = _perf()
    try:
        rc = cli.main(argv)
    finally:
        wall = _perf() - t
        os.chdir(cwd)
        uninstall(saved)
        root.removeHandler(handler)
        handler.close()
    return rc, wall


def write_trace(path: Path, sp: Spans, cli_walls: dict[str, float], traced_walls: dict[str, float]) -> None:
    """The spans of every stage, with counts and per-call microseconds."""
    stages = []
    for stage, spans in sp.stages.items():
        stages.append({
            "stage": stage,
            "cli_wall_s": cli_walls[stage],
            "traced_wall_s": traced_walls[stage],
            "spans": {
                name: {"parent": stage, "exclusive_s": s, "calls": n, "us_per_call": 1e6 * s / n}
                for name, (s, n) in sorted(spans.items()) if n
            },
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"stages": stages, "sizes": dict(sp.sizes), "peaks": sp.peaks, "missing": sp.missing}, fh, indent=1)
