"""Acceptance gate.

Each test checks one pinned behavioral criterion at its stated tolerance
and prints a single PASS/FAIL line (written past pytest's capture so the
lines survive a plain ``pytest -v`` run). Expensive corpora are built once
per module and shared.
"""

import itertools
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import electrend
from electrend.cli import main
from electrend.hashtags import TagCounts, partition_graph
from electrend.ingest import assign_day
from electrend.stance import DEFAULT_SEEDS, Stance, classify_tweet, train_from_seeds
from electrend.synth import (
    ElectorateSpec,
    generate_planted_tag_corpus,
    ground_truth,
    iter_records,
    oracle_categories,
    recovery_report,
    write_corpus,
)
from electrend.trend import (
    CounterTable,
    SweepFinals,
    UserCategory,
    series,
    sweep_columns,
)
from conftest import dated, day_ts, rec, screen


_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_past_capture(capsys):
    # the gate lines must show up in a plain ``pytest -v`` run
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def pipeline_table(spec: ElectorateSpec) -> CounterTable:
    """Generate, train, classify and count a synthetic corpus in-process."""
    model = train_from_seeds(iter_records(spec))
    return CounterTable(
        (r.user_id, assign_day(r, spec.start_date), classify_tweet(r, model)) for r in iter_records(spec)
    )


# -- shared corpora -----------------------------------------------------


@pytest.fixture(scope="module")
def random_counters():
    """1,000 users x 180 days of random sparse counters, dual-tracked."""
    rng = np.random.default_rng(20190811)
    tweets = []
    counts = {}
    for i in range(1000):
        user = f"r{i:04d}"
        n_active = int(rng.integers(0, 25))
        picks = rng.choice(180, size=n_active, replace=False)
        per_day = {}
        for day in sorted(int(p) + 1 for p in picks):
            triple = tuple(int(x) for x in rng.integers(0, 4, 3))
            per_day[day] = triple
            for stance, n in zip((Stance.PRO_MP, Stance.PRO_FF, Stance.PRO_THIRD), triple):
                tweets += [(user, day, stance)] * n
        counts[user] = per_day
    return counts, CounterTable(tweets)


@pytest.fixture(scope="module")
def stationary():
    """10k users x 120 days at the stationary mix, run through the pipeline."""
    spec = ElectorateSpec(n_users=10_000, n_days=120, crosstalk=0.05, rng_seed=20190811)
    start = time.perf_counter()
    table = pipeline_table(spec)
    cumulative = series(table, "cumulative", start_day=1, origin_date=spec.start_date)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        spec=spec, truth=ground_truth(spec), table=table, cumulative=cumulative, elapsed=elapsed
    )


@pytest.fixture(scope="module")
def origin_sweep(stationary):
    finals, by_origin = SweepFinals(), []
    for t0, columns in sweep_columns(stationary.table, [1, 31, 61], origin_date=stationary.spec.start_date):
        finals.add(t0, columns)
        by_origin.append(columns)
    return SimpleNamespace(
        series=by_origin, spread_pct_ff=finals.spread("pct_ff"), spread_pct_mp=finals.spread("pct_mp")
    )


@pytest.fixture(scope="module")
def drift_run():
    """Mix flip at day 60: FF-led electorate turns MP-led."""
    spec = ElectorateSpec(
        n_users=4000,
        n_days=90,
        crosstalk=0.05,
        rng_seed=20190811,
        drift=((60, (0.309, 0.475, 0.216)),),
    )
    table = pipeline_table(spec)
    return SimpleNamespace(
        instant=series(table, "instant", window=14, origin_date=spec.start_date),
        cumulative=series(table, "cumulative", start_day=1, origin_date=spec.start_date),
    )


# -- criteria -----------------------------------------------------------


def test_oracle_equivalence(random_counters):
    counts, table = random_counters
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    bad = []
    for _ in range(20):
        day = int(rng.integers(1, 181))
        window = int(rng.integers(1, 200))
        cfg = dict(mode="instant", day=day, window=window)
        if table.categories(**cfg) != oracle_categories(counts, **cfg):
            bad.append(("instant", day, window))
    for _ in range(20):
        day = int(rng.integers(1, 181))
        t0 = int(rng.integers(1, day + 1))
        cfg = dict(mode="cumulative", day=day, start_day=t0)
        if table.categories(**cfg) != oracle_categories(counts, **cfg):
            bad.append(("cumulative", day, t0))
    elapsed = time.perf_counter() - start
    report(
        "oracle-equivalence",
        not bad and elapsed < 60.0,
        f"40 random configs exact in {elapsed:.1f}s" + (f", mismatches {bad}" if bad else ""),
    )


def test_window_cumulative_coincidence(random_counters):
    counts, table = random_counters
    mismatches = 0
    cases = 0
    for window in (1, 3, 7, 14, 30, 60):
        for day in range(1, window + 1):
            inst = table.categories("instant", day, window=window)
            cum = table.categories("cumulative", day, start_day=1)
            decided = {u: c for u, c in cum.items() if c is not UserCategory.UNCLASSIFIED}
            cases += 1
            mismatches += inst != decided
    report(
        "window-cumulative-coincidence",
        mismatches == 0,
        f"{cases} (window, day) pairs with day <= window, memberships identical",
    )


def test_ground_truth_recovery(stationary):
    rep = recovery_report(stationary.cumulative, stationary.truth)
    ok = (
        rep.final_error_ff is not None
        and rep.final_error_ff <= 1.0
        and rep.final_error_mp <= 1.0
        and stationary.elapsed < 120.0
    )
    report(
        "ground-truth-recovery",
        ok,
        f"final errors ff={rep.final_error_ff:.2f}pp mp={rep.final_error_mp:.2f}pp "
        f"(limit 1.0), pipeline {stationary.elapsed:.0f}s (limit 120)",
    )


def test_origin_sweep_stability(origin_sweep):
    report(
        "origin-sweep-stability",
        origin_sweep.spread_pct_ff <= 2.0,
        f"final-day spread over t0 in {{1, 31, 61}}: ff={origin_sweep.spread_pct_ff:.2f}pp "
        f"(limit 2.0), mp={origin_sweep.spread_pct_mp:.2f}pp",
    )


def test_drift_sensitivity(drift_run):
    instant, cumulative = drift_run.instant, drift_run.cumulative
    crossing = None
    for day, pct_ff, pct_mp in zip(instant.T, instant.pct_ff, instant.pct_mp):
        if day >= 60 and pct_mp is not None and pct_mp > pct_ff:
            crossing = day
            break
    last_day, last_ff, last_mp = cumulative.T[-1], cumulative.pct_ff[-1], cumulative.pct_mp[-1]
    ok = crossing is not None and crossing <= 77 and last_ff > last_mp
    report(
        "drift-sensitivity",
        ok,
        f"instant series crosses at day {crossing} (limit 77); cumulative at day {last_day} "
        f"still ff={last_ff:.1f} vs mp={last_mp:.1f}",
    )


def test_classifier_bootstrap():
    spec = ElectorateSpec(
        n_users=2000,
        n_days=10,
        mix=(0.5, 0.5, 0.0),
        crosstalk=0.0,
        seed_rate=0.5,
        mean_rate=1.0,
        rng_seed=13,
    )
    seeds = {tag: camp for tag, camp in DEFAULT_SEEDS.items() if camp != "third"}
    records = list(iter_records(spec))
    model = train_from_seeds(records, seeds)
    expected = {"ff": Stance.PRO_FF, "mp": Stance.PRO_MP}
    dominated = seeded = held_right = held = 0
    for r in records:
        got = classify_tweet(r, model)
        if r.hashtags:
            seeded += 1
            dominated += got is expected[seeds[r.hashtags[0]]]
        else:
            held += 1
            held_right += got is expected["ff" if "ffword" in r.text else "mp"]
    accuracy = held_right / held
    report(
        "classifier-bootstrap",
        dominated == seeded and accuracy >= 0.95,
        f"held-out accuracy {100 * accuracy:.1f}% on {held} unseeded tweets (floor 95%); "
        f"seed dominance {dominated}/{seeded}",
    )


def test_planted_partition():
    records, planted = generate_planted_tag_corpus()
    partition = partition_graph(TagCounts(records).graph(3))
    members = {}
    for tag, camp in partition.camp_of.items():
        members.setdefault(camp, []).append(tag)
    correct = sum(
        Counter(planted[t] for t in tags).most_common(1)[0][1] for tags in members.values()
    )
    purity = correct / len(partition.camp_of)

    tweets = [["a", "b", "c"], ["a", "b"], ["b", "c", "d"], ["d"], ["a", "d"]]
    g = TagCounts([rec(text=" ".join(f"#{t}" for t in ts), tags=ts) for ts in tweets]).graph(1)
    expected = Counter()
    for ts in tweets:
        expected.update(itertools.combinations(sorted(set(ts)), 2))
    exact = {(a, b): w for a, b, w in g.edges} == dict(expected)

    report(
        "planted-partition",
        purity >= 0.95 and exact,
        f"3-block purity {100 * purity:.1f}% over {len(partition.camp_of)} tags (floor 95%); "
        f"5-tweet pair counts exact: {exact}",
    )


def test_closure_and_permutation(stationary, origin_sweep, drift_run, tmp_path):
    all_series = [stationary.cumulative, drift_run.instant, drift_run.cumulative, *origin_sweep.series]
    worst = 0.0
    n_points = 0
    for columns in all_series:
        for pct_ff, pct_mp, pct_others in zip(columns.pct_ff, columns.pct_mp, columns.pct_others):
            if pct_ff is None:
                continue
            others = pct_others if pct_others is not None else 0.0
            worst = max(worst, abs(pct_ff + pct_mp + others - 100.0))
            n_points += 1

    spec = ElectorateSpec(n_users=250, n_days=8, mean_rate=1.5, bot_fraction=0.04, rng_seed=31)
    ordered = tmp_path / "ordered.jsonl"
    with open(ordered, "w", encoding="utf-8") as fh:
        write_corpus(spec, fh)
    lines = ordered.read_text().splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines))

    outputs = {}
    for name, raw in (("ordered", ordered), ("shuffled", shuffled)):
        d = tmp_path / name
        d.mkdir()
        clean, model, labeled, curve = (
            d / "clean.jsonl", d / "model.json", d / "labeled.jsonl", d / "trend.csv",
        )
        assert main(["ingest", str(raw), "-o", str(clean)]) == 0
        assert main(["train", str(clean), "-o", str(model)]) == 0
        assert main([
            "classify", str(clean), "-o", str(labeled),
            "--model", str(model), "--workers", "1",
        ]) == 0
        assert main(["trend", str(labeled), "-o", str(curve), "--mode", "cumulative", "--t0", "1"]) == 0
        bots = d / "clean.jsonl.bots.csv"
        outputs[name] = (model.read_bytes(), bots.read_bytes(), curve.read_bytes())
    identical = outputs["ordered"] == outputs["shuffled"]

    report(
        "closure-and-permutation",
        worst <= 0.01 and identical,
        f"max closure deviation {worst:.2e} over {n_points} points (limit 0.01); "
        f"model/bot-report/trend byte-identical under input shuffle: {identical}",
    )


def test_bot_filter_fixture():
    records = []
    for h in range(8):
        for day in range(1, 6):
            for k in range(3):
                records.append(
                    rec(
                        user=f"h{h}",
                        text=f"h{h} opina sobre macri {day}-{k}",
                        ts=day_ts(day, second=7200 * (k + 1) + 60 * h),
                    )
                )
    # 120 tweets in 30 minutes: rate and burst rules fire
    for i in range(120):
        records.append(rec(user="spambot", text=f"spam {i}", ts=day_ts(2, second=43200 + 15 * i)))
    # 90 evenly spaced copies of one text: rate and duplication rules fire
    for i in range(90):
        records.append(rec(user="copybot", text="compra ya", ts=day_ts(3, second=960 * i)))

    kept, result = screen(records)
    flagged = {v.user_id for v in result.verdicts if v.is_bot}
    survivors = dated([r for r in records if r.user_id not in {"spambot", "copybot"}])
    kept_again, result_again = screen(kept)
    idempotent = kept_again == kept and not any(v.is_bot for v in result_again.verdicts)
    report(
        "bot-filter-fixture",
        flagged == {"spambot", "copybot"} and kept == survivors and idempotent,
        f"flagged {sorted(flagged)} out of 10 users; "
        f"human records intact: {kept == survivors}; idempotent: {idempotent}",
    )


@pytest.mark.slow
def test_throughput_one_million(tmp_path):
    raw = tmp_path / "raw.jsonl"
    clean = tmp_path / "clean.jsonl"
    model = tmp_path / "model.json"
    labeled = tmp_path / "labeled.jsonl"
    curve = tmp_path / "trend.csv"

    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))

    def run(args):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "electrend", *args], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return time.perf_counter() - start

    # corpus construction is setup, not part of the timed pipeline
    run([
        "synth", "-o", str(raw),
        "--users", "20000", "--days", "60", "--mean-rate", "0.87", "--seed", "17",
    ])
    with open(raw, "rb") as fh:
        n_records = sum(1 for _ in fh)

    timings = {
        "ingest": run(["ingest", str(raw), "-o", str(clean)]),
        "train": run(["train", str(clean), "-o", str(model)]),
        "classify": run([
            "classify", str(clean), "-o", str(labeled),
            "--model", str(model), "--workers", "1",
        ]),
        "trend": run(["trend", str(labeled), "-o", str(curve), "--mode", "cumulative", "--t0", "1"]),
    }
    total = sum(timings.values())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ok = n_records >= 1_000_000 and total < 300.0 and peak_kb < 2 * 1024 * 1024
    steps = " ".join(f"{k}={v:.0f}s" for k, v in timings.items())
    report(
        "throughput-1m",
        ok,
        f"{n_records} records, pipeline {total:.0f}s of 300 ({steps}), "
        f"peak child rss {peak_kb / 1024:.0f} MB of 2048",
    )
    for path in (raw, clean, labeled):
        path.unlink(missing_ok=True)
