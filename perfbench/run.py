"""The electrend benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload pipeline-50k --seed 17 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn, default seeds

It uses the ``src/`` beside this directory and works in ``.perfbench-work/``
beside it.

``--trace 0`` sets the workload up three times (set-up time is the median),
then runs its timed CLI stages, one process at a time, in passes until
``--seconds`` have elapsed. End-to-end metrics are medians over the passes.
Outputs are checked after the last pass, and every pass must write the same
bytes.

``--trace 1`` sets the workload up once, runs the whole CLI chain once, then
runs every stage again in this process with spans around each layer function
(``tracer.py``) and reports the per-layer metrics.

The last line of standard output is the result as one JSON object; the
lines before it name every metric with its unit and sample count, the
checks, and a record of the run. Exit code 0 with a result, 1 when the
workload cannot be set up, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from checks import check_pinned, check_stages, output_counts
from workloads import (
    CHAIN, LOGS, ROOT, SRC, WORK, WORKLOADS, BenchError, Expected, StageRun, Workload,
    digest_tree, log_tail, producer, remove_outputs, run_cli, set_up, stage_argv,
)

SETUP_REPS = 3
DEADLINE_S = 170.0  # a run may take 180 s
CHECK_RESERVE_S = 35.0  # time kept for the output checks after the last pass
PINNED = Path(__file__).resolve().parent / "pinned_digests.json"

END_TO_END = {
    "pipeline_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics of the traced run: name -> (unit, which direction is better).
LAYER_METRICS = {
    "cli.startup_s": ("s", "lower"),
    **{f"cli.{stage}_s": ("s", "lower") for stage in CHAIN},
    **{f"cli.{stage}_rss_mb": ("MB", "lower") for stage in CHAIN},
    "cli.write_s": ("s", "lower"),
    "ingest.read_lines_s": ("s", "lower"),
    "ingest.parse_record_s": ("s", "lower"),
    "ingest.parse_record_calls": ("count", "lower"),
    "ingest.parse_record_us": ("us", "lower"),
    "ingest.matches_query_s": ("s", "lower"),
    "ingest.matches_query_calls": ("count", "lower"),
    "ingest.query_in": ("count", "higher"),
    "ingest.query_out": ("count", "higher"),
    "ingest.parse_rejects": ("count", "higher"),
    "ingest.assign_day_s": ("s", "lower"),
    "ingest.record_to_json_s": ("s", "lower"),
    "ingest.record_to_json_calls": ("count", "lower"),
    "botfilter.track_s": ("s", "lower"),
    "botfilter.score_s": ("s", "lower"),
    "botfilter.users": ("count", "higher"),
    "botfilter.flagged": ("count", "higher"),
    "botfilter.track_rss_mb": ("MB", "lower"),
    "stance.train_s": ("s", "lower"),
    "stance.classify_tweet_s": ("s", "lower"),
    "stance.classify_tweet_us": ("us", "lower"),
    "stance.seed_decided_share": ("share", "higher"),
    "trend.counter_build_s": ("s", "lower"),
    "trend.freeze_s": ("s", "lower"),
    "trend.plane_mb": ("MB", "lower"),
    "trend.series_instant_s": ("s", "lower"),
    "trend.series_cumulative_s": ("s", "lower"),
    "trend.reweight_s": ("s", "lower"),
    "trend.sweep_s": ("s", "lower"),
    "trend.points": ("count", "higher"),
    "trend.null_points": ("count", "lower"),
    "trend.write_csv_s": ("s", "lower"),
    "manifest.sha256_s": ("s", "lower"),
    "manifest.sha256_mb": ("MB", "lower"),
    **{f"trace.coverage.{stage}": ("share", "higher") for stage in CHAIN},
}


def _timeout(deadline: float) -> float:
    """Time a process may take so the run ends by ``deadline`` (a ``perf_counter`` value)."""
    return max(5.0, deadline - time.perf_counter())


def load_pins(w: Workload, seed: int) -> dict[str, str] | None:
    """Digests pinned for the workload's default seed; None for any other seed."""
    if seed != w.default_seed:
        return None
    with open(PINNED, encoding="utf-8") as fh:
        return json.load(fh)[w.name]


def run_record(w: Workload, seed: int) -> dict:
    """Informational: what ran, where."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    src_lines = 0
    for path in SRC.rglob("*.py"):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "workload": w.name,
        "seed": seed,
        "default_seed": w.default_seed,
        "src_lines": src_lines,
    }


def describe(name: str, values: list[float], unit: str, higher_is_better: bool = False) -> str:
    """Median plus the highest percentile the sample supports, with the count.

    That is the percentile with at least ten samples beyond it; with fewer
    than twenty samples, the worst sample.
    """
    n = len(values)
    worst_last = sorted(values, reverse=higher_is_better)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        tail = f"p{pct}={worst_last[n * pct // 100]:.6g}"
    else:
        tail = f"worst={worst_last[-1]:.6g}"
    return f"{name:<28} median={statistics.median(values):.6g} {tail} n={n} unit={unit}"


class Verdicts:
    """Problems found, by the stage whose output shows them ("setup" for inputs)."""

    def __init__(self):
        self.by_stage: dict[str, list[str]] = {}

    def add(self, stage: str, problems: list[str]) -> None:
        if problems:
            self.by_stage.setdefault(stage, []).extend(problems)

    def failed(self, stage: str) -> bool:
        return bool(self.by_stage.get(stage))

    def report(self, stages) -> list[str]:
        lines = []
        for stage in stages:
            problems = self.by_stage.get(stage, [])
            lines.append(f"check {stage:<17} {'FAIL' if problems else 'PASS'}" + "".join(f"; {p}" for p in problems[:3]))
        return lines


def _diff(tree: dict[str, str], reference: dict[str, str]) -> dict[str, list[str]]:
    """Files that differ from ``reference``, grouped by the stage that writes them."""
    found: dict[str, list[str]] = {}
    for rel in sorted(set(tree) | set(reference)):
        if tree.get(rel) != reference.get(rel):
            found.setdefault(producer(rel), []).append(rel)
    return found


def check_outputs(w: Workload, wdir: Path, expected: Expected, setup_stages, stages, tree, seed: int) -> Verdicts:
    """Output checks and pinned digests; problems of set-up stages count against "setup"."""
    verdicts = Verdicts()

    def owner(stage: str) -> str:
        return "setup" if stage == "setup" or stage in setup_stages else stage

    for stage, problems in check_stages(w, wdir, expected, (*setup_stages, *stages)).items():
        verdicts.add(owner(stage), problems)
    for rel in check_pinned(tree, load_pins(w, seed)):
        verdicts.add(owner(producer(rel)), [f"{rel} differs from its pinned digest"])
    return verdicts


# -- timed run -----------------------------------------------------------------


def timed_run(w: Workload, seed: int, seconds: int, wdir: Path, deadline: float):
    setup_times, setup_trees = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        expected = set_up(w, seed, wdir, timeout=_timeout(deadline))
        setup_times.append(time.perf_counter() - t)
        setup_trees.append(digest_tree(wdir))

    passes: list[tuple[list[StageRun], dict[str, str]]] = []
    start = time.perf_counter()
    while True:
        for stage in w.timed:
            remove_outputs(wdir, stage)
        t = time.perf_counter()
        runs = [run_cli(stage_argv(w, s, wdir), wdir, s, timeout=_timeout(deadline)) for s in w.timed]
        pass_wall = time.perf_counter() - t
        passes.append((runs, digest_tree(wdir)))
        if time.perf_counter() - start >= seconds or deadline - time.perf_counter() - pass_wall < CHECK_RESERVE_S:
            break

    final = passes[-1][1]
    verdicts = check_outputs(w, wdir, expected, w.setup_stages, w.timed, final, seed)
    for tree in setup_trees[1:]:
        for files in _diff(tree, setup_trees[0]).values():
            verdicts.add("setup", [f"set-up repetitions wrote different {', '.join(files[:3])}"])
    touched = [rel for rel, digest in setup_trees[0].items() if final.get(rel) != digest]
    if touched:
        verdicts.add("setup", [f"timed stages changed set-up files {', '.join(touched[:3])}"])

    # Output checks ran on the last pass; every pass must have written the same bytes.
    bad_outputs = {stage for stage in w.timed if verdicts.failed(stage)}
    attempted = failed = 0
    for runs, tree in passes:
        changed = _diff(tree, final)
        for r in runs:
            problems = [f"exit code {r.rc}: {log_tail(wdir, r.stage)}"] if r.rc != 0 else []
            if r.stage in changed:
                problems.append(f"passes wrote different {', '.join(changed[r.stage][:3])}")
            verdicts.add(r.stage, problems)
            attempted += 1
            failed += bool(problems) or r.stage in bad_outputs

    sums = [sum(r.wall_s for r in runs) for runs, _ in passes]
    records_in = expected.input_lines if w.timed[0] == "ingest" else expected.accepted
    rates = [records_in / s for s in sums]
    peaks = [max(r.rss_mb for r in runs) for runs, _ in passes]
    values = {"pipeline_s": sums, "records_per_s": rates, "peak_rss_mb": peaks, "setup_s": setup_times}

    lines = [describe(name, v, END_TO_END[name], name == "records_per_s") for name, v in values.items()]
    lines.append(f"{'failed_ops':<28} value={failed / attempted:.6g} ({failed} of {attempted} stage runs) n={attempted} unit=share")
    for i, stage in enumerate(w.timed):
        lines.append(describe(f"stage.{stage}_s", [runs[i].wall_s for runs, _ in passes], "s"))
        lines.append(describe(f"stage.{stage}_rss_mb", [runs[i].rss_mb for runs, _ in passes], "MB"))
    lines.append(f"input records of the first timed stage: {records_in}")
    lines += verdicts.report(("setup", *w.timed))
    metrics = {name: (statistics.median(v), END_TO_END[name]) for name, v in values.items()}
    correct = failed == 0 and not verdicts.failed("setup")
    return metrics, lines, correct, attempted, failed


# -- traced run ----------------------------------------------------------------


def traced_run(w: Workload, seed: int, wdir: Path, deadline: float):
    expected = set_up(w, seed, wdir, run_setup_stages=False, timeout=_timeout(deadline))
    startup = [run_cli(["--help"], wdir, "startup", timeout=_timeout(deadline)).wall_s for _ in range(3)]
    runs: dict[str, StageRun] = {}
    for stage in CHAIN:
        try:
            argv = stage_argv(w, stage, wdir)
        except (OSError, ValueError, KeyError):
            runs[stage] = StageRun(stage, 0.0, 0.0, -1)
            continue
        runs[stage] = run_cli(argv, wdir, stage, timeout=_timeout(deadline))
    tree = digest_tree(wdir)
    verdicts = check_outputs(w, wdir, expected, (), CHAIN, tree, seed)
    for stage, r in runs.items():
        if r.rc != 0:
            verdicts.add(stage, [f"exit code {r.rc}: {log_tail(wdir, stage)}"])

    try:
        counts = output_counts(wdir)
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        counts = {}  # the checks above name the missing or broken output

    # The same chain again in this process, traced, over the same files; it
    # must write the same bytes.
    sys.path.insert(0, str(SRC))
    from tracer import Spans, trace_stage, write_trace

    sp = Spans()
    traced_walls = {}
    for stage in CHAIN:
        traced_walls[stage] = 0.0
        try:
            rc, traced_walls[stage] = trace_stage(
                sp, stage, stage_argv(w, stage, wdir, serial=True), wdir, wdir / LOGS / "traced.log")
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            verdicts.add(stage, [f"traced run raised {type(exc).__name__}: {exc} ({where.name}:{where.lineno})"])
            continue
        if rc != 0:
            verdicts.add(stage, [f"traced run exited {rc}"])
    for stage, files in _diff(digest_tree(wdir), tree).items():
        verdicts.add(stage, [f"traced run wrote different {', '.join(files[:3])}"])
    write_trace(wdir / LOGS / "trace.json", sp, {s: r.wall_s for s, r in runs.items()}, traced_walls)

    metrics = layer_metrics(sp, runs, startup, counts)
    lines = [f"{name:<34} value={value:.6g} n=1 unit={unit}" for name, (value, unit) in metrics.items()]
    for stage, spans in sp.stages.items():
        lines.append(f"stage {stage:<16} cli_wall_s={runs[stage].wall_s:.4f} traced_wall_s={traced_walls[stage]:.4f}")
        for name, (s, n) in sorted(spans.items(), key=lambda kv: -kv[1][0]):
            if n:
                lines.append(f"span {stage:<17} {name:<26} s={s:.4f} calls={n} us/call={1e6 * s / n:.2f}")
    lines += [f"untraced: the program has no {hook}" for hook in sp.missing]
    lines += verdicts.report(("setup", *CHAIN))
    failed = sum(1 for stage in CHAIN if verdicts.failed(stage))
    return metrics, lines, failed == 0 and not verdicts.failed("setup"), len(CHAIN), failed


def layer_metrics(sp, runs: dict[str, StageRun], startup: list[float], counts: dict[str, float]):
    """Per-layer metrics from the spans (exclusive seconds summed over stages) and the output counts.

    ``trend.sweep_s`` is the sweep stage's ``sweep_t0`` and the cumulative
    series it computes; ``trend.series_cumulative_s`` is that series in the
    other stages.
    """
    total: dict[str, list] = {}
    for spans in sp.stages.values():
        for name, (s, n) in spans.items():
            acc = total.setdefault(name, [0.0, 0])
            acc[0] += s
            acc[1] += n

    def secs(name: str) -> float:
        return total.get(name, [0.0, 0])[0]

    def calls(name: str) -> int:
        return total.get(name, [0.0, 0])[1]

    def per_call_us(name: str) -> float:
        return 1e6 * secs(name) / calls(name) if calls(name) else 0.0

    sweep = sp.stages.get("sweep", {})
    sweep_series = sweep.get("trend.series_cumulative", [0.0, 0])[0]
    values = {
        "cli.startup_s": statistics.median(startup),
        **{f"cli.{s}_s": runs[s].wall_s for s in CHAIN},
        **{f"cli.{s}_rss_mb": runs[s].rss_mb for s in CHAIN},
        "cli.write_s": secs("cli.write"),
        "ingest.read_lines_s": secs("ingest.read_lines"),
        "ingest.parse_record_s": secs("ingest.parse_record"),
        "ingest.parse_record_calls": calls("ingest.parse_record"),
        "ingest.parse_record_us": per_call_us("ingest.parse_record"),
        "ingest.matches_query_s": secs("ingest.matches_query"),
        "ingest.matches_query_calls": calls("ingest.matches_query"),
        "ingest.assign_day_s": secs("ingest.assign_day"),
        "ingest.record_to_json_s": secs("ingest.record_to_json"),
        "ingest.record_to_json_calls": calls("ingest.record_to_json"),
        "botfilter.track_s": secs("botfilter.track"),
        "botfilter.score_s": secs("botfilter.score"),
        "botfilter.track_rss_mb": sp.peaks.get("botfilter.track_rss_mb", 0.0),
        "stance.train_s": secs("stance.train"),
        "stance.classify_tweet_s": secs("stance.classify_tweet"),
        "stance.classify_tweet_us": per_call_us("stance.classify_tweet"),
        "trend.counter_build_s": secs("trend.counter_build"),
        "trend.freeze_s": secs("trend.freeze"),
        "trend.plane_mb": sp.peaks.get("trend.plane_mb", 0.0),
        "trend.series_instant_s": secs("trend.series_instant"),
        "trend.series_cumulative_s": secs("trend.series_cumulative") - sweep_series,
        "trend.reweight_s": secs("trend.reweight"),
        "trend.sweep_s": sweep.get("trend.sweep", [0.0, 0])[0] + sweep_series,
        "trend.write_csv_s": secs("trend.write_csv"),
        "manifest.sha256_s": secs("manifest.sha256"),
        "manifest.sha256_mb": sp.sizes["manifest.sha256"] / 2**20,
        **counts,
    }
    for stage in CHAIN:
        spanned = sum(s for s, _ in sp.stages.get(stage, {}).values())
        values[f"trace.coverage.{stage}"] = spanned / runs[stage].wall_s if runs[stage].wall_s else 0.0
    return {name: (values.get(name, 0.0), unit) for name, (unit, _) in LAYER_METRICS.items()}


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> int:
    """Run one workload and print its report; the last line is the JSON result."""
    wdir = WORK / w.name
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if trace:
            metrics, lines, correct, attempted, failed = traced_run(w, seed, wdir, deadline)
        else:
            metrics, lines, correct, attempted, failed = timed_run(w, seed, seconds, wdir, deadline)
    except BenchError as exc:
        print(f"error: {w.name}: {exc}", file=sys.stderr)
        return 1

    record = run_record(w, seed)
    with open(wdir / LOGS / "run.json", "w", encoding="utf-8") as fh:
        json.dump({"run": record, "lines": lines}, fh, indent=1)
    print("run " + json.dumps(record))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=20, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "electrend" / "__init__.py").is_file():
        print(f"error: no electrend sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        w = WORKLOADS[name]
        seed = w.default_seed if args.seed is None else args.seed
        status = max(status, run_workload(w, seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
