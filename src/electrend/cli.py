"""Command-line pipeline: ingest, train, classify, trend, sweep, hashtags, synth, validate.

Exit codes: 0 success, 1 validation check failed, 2 usage error,
3 input not readable or output not writable, 4 data error (empty or
malformed corpus, bad model or spec). Logs go to standard error with a
``LEVEL name:`` prefix; every run writes a JSON manifest beside its
primary output recording inputs (with digests), effective parameters and
argv, so runs can be reproduced and audited. Output files are written to a temp name and renamed into
place.

Dates on the command line are calendar dates; they are converted to
integer day indices against the corpus origin date, which ``ingest``
records in a ``<output>.meta.json`` sidecar and the downstream
subcommands read back.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from array import array
from collections import Counter
from contextlib import ExitStack
from datetime import date
from typing import Sequence

from . import botfilter, hashtags, manifest, stance, synth, trend
from .ingest import (
    BeforeOriginError,
    ParseError,
    QuerySet,
    TweetRecord,
    assign_day,
    atomic_text,
    day_to_date,
    effective_date,
    iter_lines,
    matches_query,
    parse_record,
    record_to_json,
)

__all__ = ["main"]

log = logging.getLogger("electrend")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DATA = 4

META_FORMAT_VERSION = 1


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- small IO helpers ---------------------------------------------------


def _meta_path(corpus_path: str) -> str:
    return corpus_path + ".meta.json"


def _load_meta(corpus_path: str) -> dict | None:
    try:
        with open(_meta_path(corpus_path), encoding="utf-8") as fh:
            return json.load(fh)
    except OSError:
        return None


def _read_corpus(path: str, what: str = "corpus") -> list[TweetRecord]:
    """Load a pipeline-internal corpus; any malformed line is a data error."""
    records = []
    try:
        for line_no, line in iter_lines(path):
            try:
                records.append(parse_record(line, line_no))
            except ParseError as exc:
                raise CliError(EXIT_DATA, f"{path}:{line_no}: {exc.reason}") from None
    except OSError as exc:
        raise CliError(EXIT_INPUT, f"cannot read {what} {path}: {exc}") from None
    if not records:
        raise CliError(EXIT_DATA, f"{what} {path} contains no records")
    return records


def _ensure_days(records: list[TweetRecord], origin: date | None, offset: float) -> date | None:
    """Make sure every record carries a day index; returns the origin used."""
    if all(r.day is not None for r in records):
        return origin
    if origin is None:
        origin = min(effective_date(r, offset) for r in records)
        log.info("derived origin date %s from corpus", origin.isoformat())
    for i, r in enumerate(records):
        if r.day is None:
            records[i] = r.with_day(assign_day(r, origin, offset))
    return origin


def _resolve_origin(explicit: str | None, corpus_path: str) -> date | None:
    if explicit:
        return date.fromisoformat(explicit)
    meta = _load_meta(corpus_path)
    if meta and meta.get("origin_date"):
        return date.fromisoformat(meta["origin_date"])
    return None


def _t0_to_day(token: str, origin: date | None, n_days: int, flag: str = "--t0") -> int:
    """A ``flag`` value is a calendar date or a plain 1-based day index within the corpus."""
    try:
        day = int(token)
    except ValueError:
        try:
            t0_date = date.fromisoformat(token)
        except ValueError:
            raise CliError(EXIT_USAGE, f"{flag} value {token!r} is neither a date nor a day index") from None
        if origin is None:
            raise CliError(
                EXIT_USAGE,
                f"{flag} {token} is a calendar date but no origin date is known; "
                "pass --origin-date or ingest first",
            )
        day = (t0_date - origin).days + 1
    if day < 1:
        raise CliError(EXIT_USAGE, f"{flag} {token} resolves to day {day}, before the corpus origin")
    if day > n_days:
        raise CliError(EXIT_USAGE, f"{flag} {token} resolves to day {day} beyond the corpus ({n_days} days)")
    return day


def _load_pairs(path: str, header: tuple[str, str]) -> dict[str, str]:
    """Two-column CSV as a dict; blank and '#' lines and a header row are skipped."""
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if line_no == 1 and tuple(parts[:2]) == header:
                continue
            if len(parts) != 2:
                raise CliError(EXIT_DATA, f"{path}:{line_no}: expected '{header[0]},{header[1]}'")
            pairs[parts[0]] = parts[1]
    return pairs


def _load_weights_file(path: str) -> dict[str, float]:
    weights = {}
    for stratum, weight in _load_pairs(path, ("stratum", "weight")).items():
        try:
            weights[stratum] = float(weight)
        except ValueError:
            raise CliError(EXIT_DATA, f"{path}: bad weight {weight!r} for stratum {stratum!r}") from None
    return weights


def _load_spec(path: str) -> synth.ElectorateSpec:
    try:
        return synth.ElectorateSpec.load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_DATA, f"bad spec file: {exc}") from None


def _new_manifest(args: argparse.Namespace, skip: Sequence[str] = ()) -> manifest.RunManifest:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "argv", *skip)
    }
    return manifest.RunManifest(
        subcommand=args.subcommand, argv=list(args.argv), parameters=params
    )


# -- ingest -------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    queries = QuerySet.default()
    if args.queries_file:
        with open(args.queries_file, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        try:
            queries = QuerySet.from_strings(lines)
        except ValueError as exc:
            raise CliError(EXIT_DATA, f"bad queries file {args.queries_file}: {exc}") from None
    use_queries = not args.no_query_filter
    use_bots = not args.no_bot_filter
    bot_config = botfilter.BotConfig(
        rate_cap=args.bot_rate_cap,
        dup_cap=args.bot_dup_cap,
        gap_floor=args.bot_gap_floor,
        threshold=args.bot_threshold,
    )
    offset = args.day_offset_hours
    rejects_path = args.input + ".rejects.txt"
    reject_counts: Counter = Counter()
    tracker = botfilter.ActivityTracker()
    kept = array("q")  # line numbers that pass the parse, retweet and query rules
    n_lines = 0
    min_date: date | None = None

    # Pass 1 decides the per-line rules, profiles users and finds the origin;
    # pass 2 re-reads only the kept lines and applies the per-user bot rule
    # and the origin. Rejects are logged in that order.
    with atomic_text(rejects_path) as rejects:

        def reject(line_no: int, reason: str) -> None:
            reject_counts[reason.partition(":")[0]] += 1
            rejects.write(f"{line_no}\t{reason}\n")

        for line_no, line in iter_lines(args.input):
            n_lines += 1
            try:
                record = parse_record(line, line_no)
            except ParseError as exc:
                reject(line_no, f"parse: {exc.reason}")
                continue
            if args.drop_retweets and record.text.startswith("RT @"):
                reject(line_no, "retweet")
                continue
            if use_queries and not matches_query(record, queries):
                reject(line_no, "no-query-match")
                continue
            kept.append(line_no)
            day = effective_date(record, offset)
            if min_date is None or day < min_date:
                min_date = day
            if use_bots:
                tracker.add(record, day)

        if n_lines == 0:
            raise CliError(EXIT_DATA, f"{args.input} contains no records")
        if min_date is None:
            raise CliError(EXIT_DATA, "no record passed the parse and query filters")
        origin = date.fromisoformat(args.origin_date) if args.origin_date else min_date
        verdicts, bots = botfilter.flag_bots(tracker, bot_config) if use_bots else ([], set())

        accepted = 0
        max_day = 0
        wanted = iter(kept)
        next_kept = next(wanted)
        with atomic_text(args.output) as out:
            for line_no, line in iter_lines(args.input):
                if line_no != next_kept:
                    continue
                next_kept = next(wanted, 0)
                record = parse_record(line, line_no)
                if record.user_id in bots:
                    reject(line_no, "bot-user")
                    continue
                try:
                    day = assign_day(record, origin, offset)
                except BeforeOriginError:
                    reject(line_no, "before-origin")
                    continue
                out.write(record_to_json(record.with_day(day)))
                out.write("\n")
                accepted += 1
                max_day = max(max_day, day)

    rejected = sum(reject_counts.values())
    if accepted + rejected != n_lines:
        raise AssertionError(
            f"accounting violated: {accepted} accepted + {rejected} rejected != {n_lines} lines"
        )

    report_path = args.bot_report or (args.output + ".bots.csv")
    if use_bots:
        with atomic_text(report_path, newline="") as fh:
            botfilter.write_report_csv(verdicts, fh)

    meta = {
        "meta_version": META_FORMAT_VERSION,
        "origin_date": origin.isoformat(),
        "day_offset_hours": offset,
        "n_days": max_day,
        "records": accepted,
        "input_lines": n_lines,
        "rejects": dict(sorted(reject_counts.items())),
    }
    manifest.write_json_atomic(meta, _meta_path(args.output))

    run = _new_manifest(args)
    run.parameters["origin_date"] = origin.isoformat()
    run.parameters["queries"] = [" AND ".join(q) for q in queries.queries] if use_queries else []
    run.add_input("corpus", args.input)
    run.add_output("clean_corpus", args.output)
    run.add_output("rejects", rejects_path)
    run.add_output("meta", _meta_path(args.output))
    if use_bots:
        run.add_output("bot_report", report_path)
    run.write(args.output + ".manifest.json")

    log.info(
        "ingest: %d lines, %d accepted, %d rejected (%s), %d users flagged as bots, origin %s, %d days",
        n_lines,
        accepted,
        rejected,
        ", ".join(f"{k}={v}" for k, v in sorted(reject_counts.items())) or "none",
        len(bots),
        origin.isoformat(),
        max_day,
    )
    if accepted == 0:
        raise CliError(EXIT_DATA, "no records accepted; see rejects sidecar")
    return EXIT_OK


# -- train / classify ---------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    records = _read_corpus(args.input)
    seeds = None
    if args.seeds:
        try:
            seeds = stance.load_seeds_file(args.seeds)
        except OSError as exc:
            raise CliError(EXIT_INPUT, f"cannot read seeds file: {exc}") from None
        except ValueError as exc:
            raise CliError(EXIT_DATA, str(exc)) from None
    try:
        model = stance.train_from_seeds(
            records, seeds, smoothing=args.smoothing, decision_margin=args.margin
        )
    except stance.TrainingError as exc:
        raise CliError(EXIT_DATA, f"training failed: {exc}") from None
    model.save(args.output)

    run = _new_manifest(args)
    run.add_input("corpus", args.input)
    if args.seeds:
        run.add_input("seeds", args.seeds)
    run.add_output("model", args.output)
    run.write(args.output + ".manifest.json")
    log.info(
        "train: %d records, %d camps, %d vocabulary terms",
        len(records),
        len(model.camps),
        len(model.term_weights),
    )
    return EXIT_OK


# The model _classify_line uses, loaded by _classify_init in this process
# and in every pool worker.
_WORKER_MODEL: stance.LexiconModel | None = None


def _classify_init(model_path: str) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = stance.LexiconModel.load(model_path)


def _classify_line(item: tuple[int, str]) -> tuple[str, str]:
    line_no, line = item
    record = parse_record(line, line_no)
    label = stance.classify_tweet(record, _WORKER_MODEL)
    record.stance = label.value
    return label.value, record_to_json(record)


def cmd_classify(args: argparse.Namespace) -> int:
    try:
        _classify_init(args.model)
    except (ValueError, KeyError) as exc:
        raise CliError(EXIT_DATA, f"bad model file: {exc}") from None

    workers = args.workers or os.cpu_count() or 1
    counts: Counter = Counter()
    try:
        with atomic_text(args.output) as out, ExitStack() as stack:
            lines = iter_lines(args.input)
            if workers > 1:
                import multiprocessing

                pool = stack.enter_context(
                    multiprocessing.Pool(workers, initializer=_classify_init, initargs=(args.model,))
                )
                results = pool.imap(_classify_line, lines, chunksize=512)
            else:
                results = map(_classify_line, lines)
            for value, line in results:
                counts[value] += 1
                out.write(line)
                out.write("\n")
    except ParseError as exc:
        raise CliError(EXIT_DATA, f"{args.input}:{exc.line_no}: {exc.reason}") from None
    n = sum(counts.values())
    if n == 0:
        raise CliError(EXIT_DATA, f"{args.input} contains no records")

    meta = _load_meta(args.input)
    if meta is not None:
        manifest.write_json_atomic(meta, _meta_path(args.output))

    run = _new_manifest(args)
    run.parameters["workers"] = workers
    run.add_input("corpus", args.input)
    run.add_input("model", args.model)
    run.add_output("labeled_corpus", args.output)
    run.write(args.output + ".manifest.json")
    log.info(
        "classify: %d records; %s",
        n,
        ", ".join(f"{k}={v}" for k, v in sorted(counts.items())),
    )
    return EXIT_OK


# -- trend / sweep ------------------------------------------------------


def _load_table(args: argparse.Namespace) -> tuple[trend.CounterTable, date | None]:
    records = _read_corpus(args.input)
    origin = _resolve_origin(args.origin_date, args.input)
    offset = getattr(args, "day_offset_hours", 0.0)
    origin = _ensure_days(records, origin, offset)
    try:
        table = trend.CounterTable.from_labeled(records)
    except ValueError as exc:
        raise CliError(
            EXIT_DATA, f"{args.input}: {exc}; run the classify subcommand first"
        ) from None
    return table, origin


def cmd_trend(args: argparse.Namespace) -> int:
    if bool(args.weights_file) != bool(args.strata_file):
        raise CliError(EXIT_USAGE, "--weights-file and --strata-file go together")
    table, origin = _load_table(args)
    weights = None
    if args.weights_file:
        strata = _load_pairs(args.strata_file, ("user_id", "stratum"))
        try:
            weights = trend.user_weights(table.users, _load_weights_file(args.weights_file), strata)
        except ValueError as exc:
            raise CliError(EXIT_DATA, f"{args.weights_file}: {exc}") from None
    if args.mode == "instant":
        points = trend.trend_instant(
            table, args.window, origin_date=origin, weights=weights,
            include_undecided=not args.exclude_undecided,
        )
    else:
        start_day = _t0_to_day(args.t0, origin, table.n_days) if args.t0 else 1
        points = trend.trend_cumulative(table, start_day, origin_date=origin, weights=weights)

    with atomic_text(args.output, newline="") as fh:
        trend.write_trend_csv(points, fh)

    run = _new_manifest(args)
    if origin is not None:
        run.parameters["origin_date"] = origin.isoformat()
    run.add_input("corpus", args.input)
    if args.weights_file:
        run.add_input("weights", args.weights_file)
        run.add_input("strata", args.strata_file)
    run.add_output("trend_csv", args.output)
    run.write(args.output + ".manifest.json")

    last = points[-1]
    log.info(
        "trend: %s series over %d days; final pct_ff=%s pct_mp=%s pct_others=%s",
        args.mode,
        len(points),
        f"{last.pct_ff:.2f}" if last.pct_ff is not None else "n/a",
        f"{last.pct_mp:.2f}" if last.pct_mp is not None else "n/a",
        f"{last.pct_others:.2f}" if last.pct_others is not None else "n/a",
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    table, origin = _load_table(args)
    tokens = [t.strip() for t in args.t0_list.split(",") if t.strip()]
    if not tokens:
        raise CliError(EXIT_USAGE, "--t0-list is empty")
    start_days = [_t0_to_day(t, origin, table.n_days, "--t0-list entry") for t in tokens]

    result = trend.sweep_t0(table, start_days, origin_date=origin)
    os.makedirs(args.output, exist_ok=True)
    per_t0_paths = {}
    for t0, series in sorted(result.series.items()):
        token = day_to_date(t0, origin).isoformat() if origin else f"day{t0:03d}"
        path = os.path.join(args.output, f"trend_t0_{token}.csv")
        with atomic_text(path, newline="") as fh:
            trend.write_trend_csv(series, fh)
        per_t0_paths[t0] = path

    summary_path = os.path.join(args.output, "sweep_summary.csv")
    with atomic_text(summary_path, newline="") as fh:
        fh.write("t0,start_day,final_day,n_mp,n_ff,n_undecided,n_unclassified,"
                 "pct_ff,pct_mp,pct_others,denominator\n")
        for t0, series in sorted(result.series.items()):
            p = series[-1]
            token = day_to_date(t0, origin).isoformat() if origin else str(t0)
            pf = f"{p.pct_ff:.4f}" if p.pct_ff is not None else ""
            pm = f"{p.pct_mp:.4f}" if p.pct_mp is not None else ""
            po = f"{p.pct_others:.4f}" if p.pct_others is not None else ""
            fh.write(
                f"{token},{t0},{p.day},{p.n_mp:g},{p.n_ff:g},{p.n_undecided:g},"
                f"{p.n_unclassified:g},{pf},{pm},{po},{p.denominator:g}\n"
            )

    run = _new_manifest(args)
    if origin is not None:
        run.parameters["origin_date"] = origin.isoformat()
    run.parameters["spread_pct_ff"] = result.spread_pct_ff
    run.parameters["spread_pct_mp"] = result.spread_pct_mp
    run.add_input("corpus", args.input)
    run.add_output("summary", summary_path)
    for t0, path in per_t0_paths.items():
        run.add_output(f"t0_day{t0:03d}", path)
    run.write(os.path.join(args.output, "sweep.manifest.json"))

    log.info(
        "sweep: %d origins, final day %d, spread pct_ff=%.3f pct_mp=%.3f",
        len(result.series),
        result.final_day,
        result.spread_pct_ff,
        result.spread_pct_mp,
    )
    return EXIT_OK


# -- hashtags -----------------------------------------------------------


def cmd_hashtags(args: argparse.Namespace) -> int:
    records = _read_corpus(args.input)
    graph = hashtags.build_graph(
        records, min_count=args.min_count, dedup_users=args.dedup_users
    )
    partition = None
    if graph.nodes:
        partition = hashtags.partition_graph(graph)

    graphml_path = args.graphml or (args.output + ".graphml")
    dot_path = args.dot or (args.output + ".dot")
    with atomic_text(graphml_path) as fh:
        hashtags.write_graphml(graph, fh, partition)
    with atomic_text(dot_path) as fh:
        hashtags.write_dot(graph, fh, partition)

    clouds_path = None
    labeled = [(r, r.stance) for r in records if r.stance is not None]
    if labeled:
        clouds = hashtags.camp_clouds(labeled)
        clouds_path = args.clouds or (args.output + ".clouds.csv")
        with atomic_text(clouds_path, newline="") as fh:
            hashtags.write_clouds_csv(clouds, fh, top_k=args.top_k)
    else:
        log.warning("no stance labels in corpus; skipping camp clouds")

    run = _new_manifest(args)
    run.add_input("corpus", args.input)
    run.add_output("graphml", graphml_path)
    run.add_output("dot", dot_path)
    if clouds_path:
        run.add_output("clouds", clouds_path)
    run.write(args.output + ".manifest.json")

    log.info(
        "hashtags: %d nodes, %d edges, %s camps",
        len(graph.nodes),
        len(graph.edges),
        len(partition.camps) if partition else 0,
    )
    return EXIT_OK


# -- synth --------------------------------------------------------------


def _parse_mix(token: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in token.split(",")]
    if len(parts) != 3:
        raise CliError(EXIT_USAGE, f"mix {token!r} must be three comma-separated numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_USAGE, f"mix {token!r} must be numeric") from None


def _spec_from_args(args: argparse.Namespace) -> synth.ElectorateSpec:
    if args.spec:
        return _load_spec(args.spec)
    if args.users is None or args.days is None:
        raise CliError(EXIT_USAGE, "need either --spec or both --users and --days")
    drift = []
    if args.drift:
        for part in args.drift.split(";"):
            part = part.strip()
            if not part:
                continue
            day_token, _, mix_token = part.partition(":")
            try:
                drift.append((int(day_token), _parse_mix(mix_token)))
            except ValueError:
                raise CliError(EXIT_USAGE, f"bad drift entry {part!r}") from None
    try:
        return synth.ElectorateSpec(
            n_users=args.users,
            n_days=args.days,
            mix=_parse_mix(args.mix),
            mean_rate=args.mean_rate,
            rate_shape=args.rate_shape,
            crosstalk=args.crosstalk,
            seed_rate=args.seed_rate,
            bot_fraction=args.bot_fraction,
            bot_rate=args.bot_rate,
            drift=tuple(drift),
            start_date=date.fromisoformat(args.start_date),
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"invalid electorate spec: {exc}") from None


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    truth_path = args.truth or (args.output + ".truth.csv")
    n = synth.write_corpus(spec, args.output, truth_path)
    spec_echo = args.output + ".spec.json"
    spec.save(spec_echo)

    run = _new_manifest(args)
    run.parameters["run_id"] = spec.run_id
    if args.spec:
        run.add_input("spec", args.spec)
    run.add_output("corpus", args.output)
    run.add_output("truth", truth_path)
    run.add_output("spec_echo", spec_echo)
    run.write(args.output + ".manifest.json")
    log.info(
        "synth: run %s, %d users (%d bots), %d days, %d records",
        spec.run_id,
        spec.n_users,
        spec.n_bots,
        spec.n_days,
        n,
    )
    return EXIT_OK


# -- validate -----------------------------------------------------------

_VALIDATE_SPEC = synth.ElectorateSpec(
    n_users=6000,
    n_days=40,
    mix=(0.475, 0.309, 0.216),
    mean_rate=0.5,
    crosstalk=0.05,
    rng_seed=20190811,
)


def _oracle_mismatch_days(
    csv_path: str, sparse: dict, n_days: int, mode: str, **config: int
) -> list[int]:
    """Days 1..n_days missing from a trend CSV or whose counts differ from the oracle's tally."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = {row["T"]: row for row in trend.read_trend_csv(fh)}
    fields = ("n_mp", "n_ff", "n_undecided", "n_unclassified")
    bad = []
    for day in range(1, n_days + 1):
        tally = Counter(synth.oracle_categories(sparse, mode, day=day, **config).values())
        if day not in rows or [rows[day][f] for f in fields] != [tally[c] for c in trend.UserCategory]:
            bad.append(day)
    return bad


def cmd_validate(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec) if args.spec else _VALIDATE_SPEC

    workdir = args.workdir or tempfile.mkdtemp(prefix="electrend-validate-")
    os.makedirs(workdir, exist_ok=True)
    corpus = os.path.join(workdir, "corpus.jsonl")
    clean = os.path.join(workdir, "clean.jsonl")
    model_path = os.path.join(workdir, "model.json")
    labeled = os.path.join(workdir, "labeled.jsonl")
    trend_csv = os.path.join(workdir, "trend.csv")
    instant_csv = os.path.join(workdir, "instant.csv")

    spec_path = os.path.join(workdir, "electorate.spec.json")
    spec.save(spec_path)
    steps = [
        ["synth", "--spec", spec_path, "-o", corpus],
        ["ingest", corpus, "-o", clean],
        ["train", clean, "-o", model_path],
        ["classify", clean, "-o", labeled, "--model", model_path, "--workers", "1"],
        ["trend", labeled, "-o", trend_csv, "--mode", "cumulative", "--t0", "1"],
        ["trend", labeled, "-o", instant_csv, "--mode", "instant", "--window", "14"],
    ]
    for step in steps:
        rc = main(step)
        if rc != EXIT_OK:
            print(f"FAIL pipeline step {step[0]}: exit code {rc}")
            return EXIT_CHECK_FAILED

    checks: list[tuple[str, bool, str]] = []

    records = _read_corpus(labeled)
    table = trend.CounterTable.from_labeled(records)
    sparse = table.to_sparse()
    final = table.n_days

    codes = table.categorize_all_instant(trend.WindowConfig(day=final, window=14))
    fast = table.categories_by_user(codes)
    oracle = synth.oracle_categories(sparse, "instant", day=final, window=14)
    bad_days = _oracle_mismatch_days(instant_csv, sparse, final, "instant", window=14)
    checks.append(
        (
            "oracle-equivalence-instant",
            fast == oracle and not bad_days,
            f"{len(fast)} categorized users on day {final}, window 14; "
            f"days of {instant_csv} off the oracle: {bad_days or 'none'}",
        )
    )

    codes = table.categorize_all_cumulative(trend.CumulativeConfig(day=final, start_day=1))
    fast_cum = table.categories_by_user(codes)
    oracle_cum = synth.oracle_categories(sparse, "cumulative", day=final, start_day=1)
    bad_days = _oracle_mismatch_days(trend_csv, sparse, final, "cumulative", start_day=1)
    checks.append(
        (
            "oracle-equivalence-cumulative",
            fast_cum == oracle_cum and not bad_days,
            f"{len(fast_cum)} categorized users on day {final}; "
            f"days of {trend_csv} off the oracle: {bad_days or 'none'}",
        )
    )

    early = min(14, final)
    inst = table.categories_by_user(
        table.categorize_all_instant(trend.WindowConfig(day=early, window=14))
    )
    cum = table.categories_by_user(
        table.categorize_all_cumulative(trend.CumulativeConfig(day=early, start_day=1))
    )
    decided = {trend.UserCategory.MP, trend.UserCategory.FF, trend.UserCategory.UNDECIDED}
    same = {u: c for u, c in inst.items() if c in decided} == {
        u: c for u, c in cum.items() if c in decided
    }
    checks.append(("window-cumulative-coincidence", same, f"day {early} <= window 14"))

    truth = synth.ground_truth(spec)
    points = trend.trend_cumulative(table, start_day=1)
    report = synth.recovery_report(points, truth)
    ok = (
        report.final_error_ff is not None
        and report.final_error_ff <= args.tolerance
        and report.final_error_mp <= args.tolerance
    )
    detail = (
        f"final |err| ff={report.final_error_ff:.3f} mp={report.final_error_mp:.3f} "
        f"(tolerance {args.tolerance})"
        if report.final_error_ff is not None
        else "no evaluable days"
    )
    checks.append(("ground-truth-recovery", ok, detail))

    failed = 0
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed (workdir {workdir})")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


# -- parser -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="electrend",
        description="Election-trend indicators from an archived tweet corpus.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("ingest", cmd_ingest, "parse, query-filter and bot-filter a raw corpus")
    p.add_argument("input", help="raw JSONL corpus (gzipped if the path ends in .gz)")
    p.add_argument("-o", "--output", required=True, help="clean corpus to write")
    p.add_argument("--origin-date", default=None, help="day 1 date (default: earliest record)")
    p.add_argument(
        "--day-offset-hours",
        type=float,
        default=0.0,
        help="shift day boundaries by this many hours (e.g. -3 for Argentina)",
    )
    p.add_argument("--queries-file", default=None, help="one query per line, terms joined by ' AND '")
    p.add_argument("--no-query-filter", action="store_true", help="keep records matching no query")
    p.add_argument("--drop-retweets", action="store_true", help="reject lines whose text starts with 'RT @'")
    p.add_argument("--no-bot-filter", action="store_true", help="skip bot scoring and removal")
    p.add_argument("--bot-threshold", type=float, default=0.5, help="flag users with score >= this")
    p.add_argument("--bot-rate-cap", type=float, default=72, help="max tweets in one day before the rate rule fires")
    p.add_argument("--bot-dup-cap", type=float, default=0.8, help="duplicate-text ratio above which the duplication rule fires")
    p.add_argument("--bot-gap-floor", type=float, default=30.0, help="mean seconds between tweets below which the burst rule fires")
    p.add_argument("--bot-report", default=None, help="bot report CSV (default <output>.bots.csv)")

    p = add("train", cmd_train, "fit the stance lexicon from seed hashtags")
    p.add_argument("input", help="clean corpus from ingest")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--seeds", default=None, help="seeds file, 'camp tag' per line (default: builtin list)")
    p.add_argument("--smoothing", type=float, default=1.0, help="additive smoothing for token weights")
    p.add_argument("--margin", type=float, default=0.0, help="score margin under which a tweet is Neutral")

    p = add("classify", cmd_classify, "label every record with a stance")
    p.add_argument("input", help="clean corpus from ingest")
    p.add_argument("-o", "--output", required=True, help="labeled corpus to write")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--workers", type=int, default=None, help="worker processes (default: all cores)")

    p = add("trend", cmd_trend, "aggregate a labeled corpus into a trend series")
    p.add_argument("input", help="labeled corpus from classify")
    p.add_argument("-o", "--output", required=True, help="trend CSV to write")
    p.add_argument("--mode", choices=("instant", "cumulative"), default="instant")
    p.add_argument("--window", type=int, default=14, help="trailing window length for instant mode")
    p.add_argument("--t0", default=None, help="cumulative start: a date or a day index (default: day 1)")
    p.add_argument("--origin-date", default=None, help="date of day 1 (default: from the corpus meta sidecar)")
    p.add_argument("--day-offset-hours", type=float, default=0.0, help="day-boundary shift if days must be recomputed")
    p.add_argument("--exclude-undecided", action="store_true", help="drop Undecided users from the instant denominator")
    p.add_argument("--weights-file", default=None, help="stratum,weight CSV for demographic reweighting")
    p.add_argument("--strata-file", default=None, help="user_id,stratum CSV assigning users to strata")

    p = add("sweep", cmd_sweep, "recompute the cumulative series from several start days")
    p.add_argument("input", help="labeled corpus from classify")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--t0-list", required=True, help="comma-separated dates or day indices")
    p.add_argument("--origin-date", default=None, help="date of day 1 (default: from the corpus meta sidecar)")
    p.add_argument("--day-offset-hours", type=float, default=0.0, help="day-boundary shift if days must be recomputed")

    p = add("hashtags", cmd_hashtags, "co-occurrence graph, camp partition and tag clouds")
    p.add_argument("input", help="corpus (labeled input enables camp clouds)")
    p.add_argument("-o", "--output", required=True, help="output base path")
    p.add_argument("--min-count", type=int, default=5, help="drop tags and edges seen fewer times")
    p.add_argument("--top-k", type=int, default=25, help="tags per camp in the cloud CSV")
    p.add_argument("--dedup-users", action="store_true", help="count each user at most once per tag and pair")
    p.add_argument("--graphml", default=None, help="GraphML path (default <output>.graphml)")
    p.add_argument("--dot", default=None, help="DOT path (default <output>.dot)")
    p.add_argument("--clouds", default=None, help="clouds CSV path (default <output>.clouds.csv)")

    p = add("synth", cmd_synth, "generate a synthetic electorate corpus with ground truth")
    p.add_argument("-o", "--output", required=True, help="corpus JSONL to write (.gz to compress)")
    p.add_argument("--spec", default=None, help="electorate spec JSON (overrides the flags below)")
    p.add_argument("--truth", default=None, help="truth CSV path (default <output>.truth.csv)")
    p.add_argument("--users", type=int, default=None, help="number of users")
    p.add_argument("--days", type=int, default=None, help="number of days")
    p.add_argument("--mix", default="0.475,0.309,0.216", help="p_ff,p_mp,p_third")
    p.add_argument("--mean-rate", type=float, default=0.5, help="mean tweets per user-day")
    p.add_argument("--rate-shape", type=float, default=2.0, help="gamma shape of per-user rates")
    p.add_argument("--crosstalk", type=float, default=0.05, help="per-tweet against-type probability")
    p.add_argument("--seed-rate", type=float, default=0.6, help="probability a tweet carries a seed hashtag")
    p.add_argument("--bot-fraction", type=float, default=0.0, help="fraction of users generated as bots")
    p.add_argument("--bot-rate", type=int, default=150, help="bot tweets per day")
    p.add_argument("--drift", default=None, help="mix overrides 'day:ff,mp,third;day:...'")
    p.add_argument("--start-date", default="2019-03-01", help="calendar date of day 1")
    p.add_argument("--seed", type=int, default=20190811, help="generator seed")

    p = add("validate", cmd_validate, "synth + full pipeline + oracle and recovery checks")
    p.add_argument("--spec", default=None, help="electorate spec JSON (default: builtin 6k-user spec)")
    p.add_argument("--workdir", default=None, help="working directory (default: a fresh temp dir)")
    p.add_argument("--tolerance", type=float, default=1.5, help="max final-day recovery error in points")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return args.func(args)
    except CliError as exc:
        log.error("%s", exc)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_INPUT
