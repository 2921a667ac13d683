"""Command-line pipeline: ingest, train, classify, trend, sweep, hashtags, synth, validate.

Each subcommand adapts its flags to the library, which holds the rules
(``ingest`` runs :func:`electrend.ingest.ingest_lines`), and writes files.

Exit codes (the README lists the cases of each):

- 0: success;
- 1: a validation check failed;
- 2: usage error;
- 3: an input cannot be read or an output cannot be written;
- 4: data error.

Every file a stage reads (the corpus, its meta sidecar, and each file a
flag names) is read under one rule, :func:`_reading`, which reports a
fault with the input's manifest label and path.

Logs go to standard error with a ``LEVEL name:`` prefix; every run
writes a JSON manifest beside its primary output recording inputs (with
digests), effective parameters, argv and ``metrics``, what the run found,
which its one INFO line shows. A run's outputs are written to temp names
and renamed into place together, the manifest last, once the run has
succeeded (see ``_stage``).

Dates on the command line are calendar dates; they are converted to
integer day indices against the corpus origin date, which ``ingest``
records in a ``<output>.meta.json`` sidecar and the downstream
subcommands read back.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
import zlib
from collections import Counter
from contextlib import closing, contextmanager, suppress
from datetime import date
from itertools import chain
from typing import Callable, Iterator, Sequence

# numpy and the trend, synth and hashtags modules are imported by the
# subcommands that use them, so ingest, train and classify start fast.
from . import botfilter, manifest, stance
from .ingest import (
    MAX_DAY,
    AtomicFiles,
    IngestConfig,
    NoRecordsError,
    ParseError,
    QuerySet,
    ingest_lines,
    iter_lines,
    iter_text_lines,
    map_chunks,
    parse_label,
    parse_record,
    usable_cpus,
    with_stance,
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


@contextmanager
def _reading(label: str, path: str) -> Iterator[None]:
    """The one rule for a fault in reading input ``label`` (as the manifest lists it) from ``path``.

    A read error (a damaged gzip stream too) is an input error, a malformed
    line a data error naming ``path:line``, a ``KeyError`` a data error
    naming the missing key, and any other ``ValueError``, ``TypeError`` or
    ``RecursionError`` (JSON nested too deeply) a data error naming the
    input. Only reading and parsing go inside: a write raises ``OSError`` too.
    """
    try:
        yield
    except ParseError as exc:
        raise CliError(EXIT_DATA, f"{path}:{exc.line_no}: {exc.reason}") from None
    except (OSError, EOFError, zlib.error) as exc:
        raise CliError(EXIT_INPUT, f"cannot read {label} {path}: {exc}") from None
    except KeyError as exc:
        raise CliError(EXIT_DATA, f"bad {label} {path}: missing key {exc}") from None
    except (ValueError, TypeError, RecursionError) as exc:
        raise CliError(EXIT_DATA, f"bad {label} {path}: {exc}") from None


def _load_meta(corpus_path: str, run: manifest.RunManifest | None = None) -> dict | None:
    """The meta sidecar of a corpus, None if there is none; ``run`` lists it as input ``meta``."""
    path = corpus_path + ".meta.json"
    if not os.path.exists(path):
        return None
    with _reading("meta", path), open(path, encoding="utf-8") as fh:
        meta = manifest.json_document(json.load(fh), "meta_version", META_FORMAT_VERSION)
        if meta.get("origin_date"):
            date.fromisoformat(meta["origin_date"])  # else a TypeError or ValueError
    if run is not None:
        run.add_input("meta", path)
    return meta


class _Corpus:
    """The lines of a pipeline-internal corpus, read under :func:`_reading` as ``corpus``.

    A corpus without records is a data error once the read ends. ``records``
    counts the lines read so far.
    """

    def __init__(self, path: str):
        self.path = path
        self.records = 0

    def chunks(self, fn: Callable[[list], object], workers: int = 1) -> Iterator:
        """``fn`` of each chunk of ``(line_no, line)`` pairs, in line order, on ``workers`` processes (see ``map_chunks``).

        ``fn`` raises :class:`ParseError` for a malformed line.
        """

        def counted() -> Iterator[tuple[int, str]]:
            for item in iter_lines(self.path):
                self.records += 1
                yield item

        with _reading("corpus", self.path), closing(map_chunks(fn, counted(), workers)) as results:
            yield from results
        if not self.records:
            raise CliError(EXIT_DATA, f"corpus {self.path} contains no records")


def _iso_date(token: str) -> date:
    """``--origin-date`` and ``--start-date`` value: a calendar date, else a usage error."""
    try:
        return date.fromisoformat(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{token!r} is not a calendar date (YYYY-MM-DD)") from None


def _number(what: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """A float flag's converter: a finite number that is ``ok``, else a usage error saying it is not ``what``."""

    def convert(token: str) -> float:
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and ok(value):
            return value
        raise argparse.ArgumentTypeError(f"{token!r} is not {what}")

    return convert


_offset_hours = _number("a number of hours in [-24, 24]", lambda x: -24 <= x <= 24)
_non_negative = _number("a finite number >= 0", lambda x: x >= 0)
_positive = _number("a finite number > 0", lambda x: x > 0)


def _integer(what: str, least: int) -> Callable[[str], int]:
    """An int flag's converter: an integer of at least ``least``, else a usage error saying it is not ``what``."""

    def convert(token: str) -> int:
        try:
            if int(token) >= least:
                return int(token)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{token!r} is not {what}")

    return convert


_positive_int = _integer("a positive integer", 1)  # --window, --top-k and --workers
_non_negative_int = _integer("a non-negative integer", 0)  # --min-count


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
    """Two-column CSV as a dict, skipping blank and '#' lines and a first other line equal to ``header``; no key twice."""
    pairs = {}
    for i, (line_no, line) in enumerate(iter_text_lines(path)):
        parts = [p.strip() for p in line.split(",")]
        if i == 0 and tuple(parts[:2]) == header:
            continue
        if len(parts) != 2:
            raise ParseError(f"expected '{header[0]},{header[1]}'", line_no)
        if parts[0] in pairs:
            raise ParseError(f"{header[0]} {parts[0]!r} named twice", line_no)
        pairs[parts[0]] = parts[1]
    return pairs


# The flags that name a file a stage reads, and the label the manifest lists each under.
_INPUT_FLAGS = {
    "input": "corpus", "queries_file": "queries", "seeds": "seeds", "model": "model",
    "weights_file": "weights", "strata_file": "strata", "spec": "spec",
}

# The files each stage may write: label -> default path, from -o or the corpus, its manifest last.
# A flag named as a label moves that output. ``{output}/name`` is a file in the directory -o
# names, which the stage makes; sweep's per-origin trend CSVs go there too.
_OUTPUTS = {
    "ingest": {"rejects": "{input}.rejects.txt", "clean_corpus": "{output}", "bot_report": "{output}.bots.csv",
               "meta": "{output}.meta.json", "manifest": "{output}.manifest.json"},
    "train": {"model": "{output}", "manifest": "{output}.manifest.json"},
    "classify": {"labeled_corpus": "{output}", "meta": "{output}.meta.json", "manifest": "{output}.manifest.json"},
    "trend": {"trend_csv": "{output}", "manifest": "{output}.manifest.json"},
    "sweep": {"summary": "{output}/sweep_summary.csv", "manifest": "{output}/sweep.manifest.json"},
    "hashtags": {"graphml": "{output}.graphml", "dot": "{output}.dot", "clouds": "{output}.clouds.csv",
                 "manifest": "{output}.manifest.json"},
    "synth": {"corpus": "{output}", "truth": "{output}.truth.csv", "spec_echo": "{output}.spec.json",
              "manifest": "{output}.manifest.json"},
}


def _output_paths(args: argparse.Namespace) -> dict[str, str]:
    """The path of each of the subcommand's :data:`_OUTPUTS`; two outputs on one path are a usage error."""
    paths, labels = {}, {}  # label -> path, and absolute path -> the first label on it
    for label, template in _OUTPUTS[args.subcommand].items():
        base, _, name = template.partition("/")
        base = base.format(output=args.output, input=getattr(args, "input", None))
        path = paths[label] = getattr(args, label, None) or (os.path.join(base, name) if name else base)
        if (other := labels.setdefault(os.path.abspath(path), label)) != label:
            raise CliError(EXIT_USAGE, f"outputs {other} and {label} share the path {path}")
    return paths


def _shown(value) -> str:
    """A metric as the log line shows it: a float to two places, None as n/a, a dict as ``k:v,…`` (none if empty)."""
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, dict):
        return ",".join(f"{k}:{_shown(v)}" for k, v in sorted(value.items())) or "none"
    return "n/a" if value is None else str(value)


@contextmanager
def _stage(args: argparse.Namespace) -> Iterator[manifest.RunManifest]:
    """The frame of a subcommand that writes files: its run manifest, every file it writes, and its log line.

    Before the body, a missing corpus, then an output of :func:`_output_paths`
    in a missing directory, even one the run would not write, is an input
    error naming it. ``sweep``'s -o is checked at its parent, made here and
    removed if the stage fails. The body writes its outputs by label through
    the manifest (``run.open``, ``run.write_json``), which lists each one, and
    puts what the run found in ``run.metrics``. Then every file a flag of
    :data:`_INPUT_FLAGS` names is hashed and the manifest written, and every
    file appears at once, or none if the body, a hash or the manifest fails.
    Once they have, the stage logs ``<subcommand>: key=value …``, its
    metrics in key order.
    """
    params = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "argv")}
    params = {k: v.isoformat() if isinstance(v, date) else v for k, v in params.items()}
    run = manifest.RunManifest(args.subcommand, list(args.argv), params, paths=_output_paths(args))
    if getattr(args, "input", None) and not os.path.exists(args.input):
        raise CliError(EXIT_INPUT, f"cannot read corpus {args.input}: not found")
    made = args.subcommand == "sweep" and not os.path.isdir(args.output)
    for label, path in ({"output": args.output} if made else run.paths).items():
        if not os.path.isdir(os.path.dirname(os.path.normpath(path)) or os.curdir):
            raise CliError(EXIT_INPUT, f"cannot write {label}: No such file or directory: {path!r}")
    if made:
        os.mkdir(args.output)
    try:
        with run.files:
            yield run
            for flag, label in _INPUT_FLAGS.items():
                if params.get(flag):
                    run.add_input(label, params[flag])
            run.write()
    except BaseException:
        if made:  # the failed stage left it empty
            with suppress(OSError):
                os.rmdir(args.output)
        raise
    log.info("%s: %s", args.subcommand, " ".join(f"{k}={_shown(v)}" for k, v in sorted(run.metrics.items())))


# -- ingest -------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    with _stage(args) as run:
        queries = QuerySet.default()
        if args.queries_file:
            with _reading("queries", args.queries_file):
                queries = QuerySet.from_strings([line for _, line in iter_text_lines(args.queries_file)])
        bots = botfilter.BotConfig(
            args.bot_rate_cap, args.bot_dup_cap, args.bot_gap_floor, threshold=args.bot_threshold
        )
        config = IngestConfig(
            queries=None if args.no_query_filter else queries,
            bots=None if args.no_bot_filter else bots,
            drop_retweets=args.drop_retweets, origin_date=args.origin_date, day_offset_hours=args.day_offset_hours,
        )
        spool_dir = os.path.dirname(os.path.abspath(args.output))  # the disk the output needs anyway
        try:
            with run.open("rejects") as rejects, run.open("clean_corpus") as out:
                result = ingest_lines(iter_lines(args.input), config, out, rejects, spool_dir)
        except NoRecordsError as exc:
            raise CliError(EXIT_DATA, f"{args.input}: {exc}") from None
        if config.bots:
            with run.open("bot_report", newline="") as fh:
                botfilter.write_report_csv(result.verdicts, fh)
        origin = result.origin.isoformat()
        accounting = {
            "input_lines": result.input_lines, "records": result.accepted,
            "rejects": result.rejects, "n_days": result.n_days,
        }
        run.write_json("meta", {
            "meta_version": META_FORMAT_VERSION, "origin_date": origin,
            "day_offset_hours": config.day_offset_hours, **accounting,
        })
        run.parameters["origin_date"] = origin
        run.parameters["queries"] = [" AND ".join(q) for q in config.queries.queries] if config.queries else []
        run.metrics = {**accounting, "bots": sum(v.is_bot for v in result.verdicts)}
    return EXIT_OK


# -- train / classify ---------------------------------------------------


def _records(lines: list) -> list:
    """The records of a chunk of ``(line_no, line)`` pairs."""
    return [parse_record(line, line_no) for line_no, line in lines]


def cmd_train(args: argparse.Namespace) -> int:
    def count(lines: list) -> stance.SeedCounts:
        return stance.count_seeded(_records(lines), seeds)

    with _stage(args) as run:
        seeds = stance.DEFAULT_SEEDS
        if args.seeds:
            with _reading("seeds", args.seeds):
                seeds = stance.load_seeds_file(args.seeds)
        corpus = _Corpus(args.input)
        counts = stance.SeedCounts()
        for part in corpus.chunks(count, usable_cpus()):
            counts.update(part)
        try:
            model = stance.fit(counts, seeds, smoothing=args.smoothing, decision_margin=args.margin)
        except stance.TrainingError as exc:
            raise CliError(EXIT_DATA, f"training failed: {exc}") from None
        with run.open("model") as fh:
            model.save(fh)
        run.metrics = {"records": corpus.records, "camps": len(model.camps), "terms": len(model.term_weights)}
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    def label(lines: list) -> tuple[Counter, str]:
        """The stance tally of a chunk and its labeled lines: each line with its stance."""
        values = [stance.classify_tweet(parse_record(line, line_no), model).value for line_no, line in lines]
        return Counter(values), "".join(with_stance(line, value) + "\n" for (_, line), value in zip(lines, values))

    workers = args.workers or usable_cpus()
    counts: Counter = Counter()
    with _stage(args) as run:
        with _reading("model", args.model):
            model = stance.LexiconModel.load(args.model)
        meta = _load_meta(args.input, run)
        with run.open("labeled_corpus") as out:
            for tally, text in _Corpus(args.input).chunks(label, workers):
                counts.update(tally)
                out.write(text)
        if meta is not None:
            run.write_json("meta", meta)
        run.parameters["workers"] = workers
        run.metrics = {"records": sum(counts.values()), "stances": dict(counts)}
    return EXIT_OK


# -- trend / sweep ------------------------------------------------------


def _load_table(path: str, origin_date: date | None = None, run: manifest.RunManifest | None = None):
    """The counter table of a labeled corpus and the origin date of its day 1.

    Each line is decoded into its user, the day index ``t`` that ingest wrote
    and its stance, nothing more. The origin is ``origin_date``, else the
    corpus meta sidecar's, else unknown (None); it only dates the output rows.
    The sidecar is read only without ``origin_date``.
    ``run`` records a sidecar read as input ``meta``, a known origin as ``origin_date``.
    """
    from . import trend

    meta = None if origin_date else _load_meta(path, run)
    origin = date.fromisoformat(meta["origin_date"]) if meta and meta.get("origin_date") else origin_date
    if run is not None and origin is not None:
        run.parameters["origin_date"] = origin.isoformat()
    last_day = MAX_DAY - origin.toordinal() + 1 if origin else MAX_DAY  # the largest t a date can have
    stances = {s.value for s in stance.Stance}

    def decode(lines: list) -> list[tuple[str, int, str]]:
        tweets = []
        for line_no, line in lines:
            user, day, stance = parse_label(line, line_no)
            if stance is None:
                raise ParseError("no stance label; run the classify subcommand first", line_no)
            if stance not in stances:
                raise ParseError(f"unknown stance {stance!r}", line_no)
            if day is None:
                raise ParseError("no day index 't'; run the ingest subcommand first", line_no)
            if day < 1:
                raise ParseError(f"day index must be >= 1, got {day}", line_no)
            if day > last_day:
                raise ParseError(f"day index must be <= {last_day}, got {day}", line_no)
            tweets.append((user, day, stance))
        return tweets

    return trend.CounterTable(chain.from_iterable(_Corpus(path).chunks(decode))), origin


def cmd_trend(args: argparse.Namespace) -> int:
    from . import trend

    if bool(args.weights_file) != bool(args.strata_file):
        raise CliError(EXIT_USAGE, "--weights-file and --strata-file go together")
    with _stage(args) as run:
        table, origin = _load_table(args.input, args.origin_date, run)
        weights = None
        if args.weights_file:
            with _reading("strata", args.strata_file):
                strata = _load_pairs(args.strata_file, ("user_id", "stratum"))
            with _reading("weights", args.weights_file):
                pairs = _load_pairs(args.weights_file, ("stratum", "weight"))
                weights = trend.user_weights(table.users, {s: float(w) for s, w in pairs.items()}, strata)
        start_day = _t0_to_day(args.t0, origin, table.n_days) if args.t0 and args.mode == "cumulative" else 1
        columns = trend.series(table, args.mode, args.window, start_day, origin, weights, not args.exclude_undecided)
        with run.open("trend_csv", newline="") as fh:
            trend.write_trend_csv(columns, fh)
        run.metrics = {
            "days": len(columns.T), "pct_ff": columns.pct_ff[-1], "pct_mp": columns.pct_mp[-1],
            "pct_others": columns.pct_others[-1],
        }
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import trend

    tokens = [t.strip() for t in args.t0_list.split(",") if t.strip()]
    if not tokens:
        raise CliError(EXIT_USAGE, "--t0-list is empty")
    finals = trend.SweepFinals()
    with _stage(args) as run:
        table, origin = _load_table(args.input, args.origin_date, run)
        start_days = [_t0_to_day(t, origin, table.n_days, "--t0-list entry") for t in tokens]
        for t0, columns in trend.sweep_columns(table, start_days, origin):  # one origin's rows at a time
            token = columns.date[0].isoformat() if columns.date[0] else f"day{t0:03d}"
            with run.open(f"t0_day{t0:03d}", newline="", path=os.path.join(args.output, f"trend_t0_{token}.csv")) as fh:
                trend.write_trend_csv(columns, fh)
            finals.add(t0, columns)
        with run.open("summary", newline="") as fh:
            finals.write(fh)
        run.metrics = {
            "origins": len(finals.origins), "final_day": table.n_days,
            "spread_pct_ff": finals.spread("pct_ff"), "spread_pct_mp": finals.spread("pct_mp"),
        }
    return EXIT_OK


# -- hashtags -----------------------------------------------------------


def cmd_hashtags(args: argparse.Namespace) -> int:
    from . import hashtags

    with _stage(args) as run:
        counts = hashtags.TagCounts(chain.from_iterable(_Corpus(args.input).chunks(_records)), args.dedup_users)
        graph = counts.graph(args.min_count)
        partition = None
        if graph.nodes:
            partition = hashtags.partition_graph(graph)
        with run.open("graphml") as fh:
            hashtags.write_graphml(graph, fh, partition)
        with run.open("dot") as fh:
            hashtags.write_dot(graph, fh, partition)
        if counts.labeled:
            with run.open("clouds", newline="") as fh:
                hashtags.write_clouds_csv(counts.clouds(), fh, top_k=args.top_k)
        else:
            log.warning("no stance labels in corpus; skipping camp clouds")
        run.metrics = {"nodes": len(graph.nodes), "edges": len(graph.edges), "camps": len(partition.camps) if partition else 0}
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


def _spec_from_args(args: argparse.Namespace):
    from . import synth

    if args.spec:
        with _reading("spec", args.spec):
            return synth.ElectorateSpec.load(args.spec)
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
        start_date=args.start_date,
        rng_seed=args.seed,
    )


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth

    with _stage(args) as run:
        try:
            spec = _spec_from_args(args)
            truth = synth.ground_truth(spec)  # draws every user's rate, so one numpy cannot draw fails before any write
        except ValueError as exc:
            raise CliError(EXIT_DATA, f"invalid electorate spec: {exc}") from None
        if spec.n_users == 0:
            raise CliError(EXIT_DATA, "invalid electorate spec: need n_users >= 1")
        with run.open("corpus") as fh:
            n = synth.write_corpus(spec, fh)
        with run.open("truth", newline="") as fh:
            truth.write_csv(fh)
        with run.open("spec_echo") as fh:
            spec.save(fh)
        run.metrics = {"run_id": spec.run_id, "n_users": spec.n_users, "n_bots": spec.n_bots, "n_days": spec.n_days, "records": n}
    return EXIT_OK


# -- validate -----------------------------------------------------------

def _oracle_mismatch_days(
    csv_path: str, sparse: dict, n_days: int, mode: str, **config: int
) -> list[int]:
    """Days 1..n_days missing from a trend CSV or whose counts differ from the oracle's tally."""
    from . import synth, trend

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
    if args.workdir:
        os.makedirs(args.workdir, exist_ok=True)
        return _validate(args, args.workdir)
    with tempfile.TemporaryDirectory(prefix="electrend-validate-") as workdir:
        return _validate(args, workdir)


def _validate(args: argparse.Namespace, workdir: str) -> int:
    """The pipeline on a known electorate in ``workdir``, then the oracle and recovery checks."""
    from . import synth, trend

    if args.spec:
        with _reading("spec", args.spec):
            spec = synth.ElectorateSpec.load(args.spec)
    else:
        spec = synth.ElectorateSpec(n_users=6000, n_days=40)

    corpus = os.path.join(workdir, "corpus.jsonl")
    clean = os.path.join(workdir, "clean.jsonl")
    model_path = os.path.join(workdir, "model.json")
    labeled = os.path.join(workdir, "labeled.jsonl")
    trend_csv = os.path.join(workdir, "trend.csv")
    instant_csv = os.path.join(workdir, "instant.csv")

    spec_path = os.path.join(workdir, "electorate.spec.json")
    with AtomicFiles() as files, files.open(spec_path) as fh:
        spec.save(fh)
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
    table, _ = _load_table(labeled)
    sparse = table.to_sparse()
    final = table.n_days

    runs = (("instant", instant_csv, {"window": 14}), ("cumulative", trend_csv, {"start_day": 1}))
    for mode, csv_path, config in runs:
        fast = table.categories(mode, final, **config)
        bad_days = _oracle_mismatch_days(csv_path, sparse, final, mode, **config)
        note = f", window {config['window']}" if mode == "instant" else ""
        checks.append((
            f"oracle-equivalence-{mode}",
            fast == synth.oracle_categories(sparse, mode, final, **config) and not bad_days,
            f"{len(fast)} categorized users on day {final}{note}; "
            f"days of {csv_path} off the oracle: {bad_days or 'none'}",
        ))

    early = min(14, final)
    decided = {trend.UserCategory.MP, trend.UserCategory.FF, trend.UserCategory.UNDECIDED}
    inst, cum = ({u: c for u, c in table.categories(mode, early, **config).items() if c in decided}
                 for mode, _, config in runs)
    checks.append(("window-cumulative-coincidence", inst == cum, f"day {early} <= window 14"))

    truth = synth.ground_truth(spec)
    report = synth.recovery_report(trend.series(table, "cumulative", start_day=1), truth)
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
    kept = f" (workdir {workdir})" if args.workdir else ""
    print(f"{len(checks) - failed}/{len(checks)} checks passed{kept}")
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
    p.add_argument("--origin-date", type=_iso_date, default=None, help="day 1 date (default: earliest record)")
    p.add_argument(
        "--day-offset-hours",
        type=_offset_hours,
        default=0.0,
        help="shift day boundaries by this many hours, -24 to 24 (e.g. -3 for Argentina)",
    )
    p.add_argument("--queries-file", default=None, help="one query per line, terms joined by ' AND '")
    p.add_argument("--no-query-filter", action="store_true", help="keep records matching no query")
    p.add_argument("--drop-retweets", action="store_true", help="reject lines whose text starts with 'RT @'")
    p.add_argument("--no-bot-filter", action="store_true", help="skip bot scoring and removal")
    p.add_argument("--bot-threshold", type=_non_negative, default=0.5, help="flag users with score >= this")
    p.add_argument("--bot-rate-cap", type=_non_negative, default=72, help="max tweets in one day before the rate rule fires")
    p.add_argument("--bot-dup-cap", type=_non_negative, default=0.8, help="duplicate-text ratio above which the duplication rule fires")
    p.add_argument("--bot-gap-floor", type=_non_negative, default=30.0, help="mean seconds between tweets below which the burst rule fires")
    p.add_argument("--bot-report", default=None, help="bot report CSV (default <output>.bots.csv)")

    p = add("train", cmd_train, "fit the stance lexicon from seed hashtags")
    p.add_argument("input", help="clean corpus from ingest")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--seeds", default=None, help="seeds file, 'camp tag' per line (default: builtin list)")
    p.add_argument("--smoothing", type=_positive, default=1.0, help="additive smoothing for token weights")
    p.add_argument("--margin", type=_non_negative, default=0.0, help="score margin under which a tweet is Neutral")

    p = add("classify", cmd_classify, "label every record with a stance")
    p.add_argument("input", help="clean corpus from ingest")
    p.add_argument("-o", "--output", required=True, help="labeled corpus to write")
    p.add_argument("--model", required=True, help="model file from train")
    p.add_argument("--workers", type=_positive_int, default=None, help="worker processes (default: the CPUs this process may use)")

    p = add("trend", cmd_trend, "aggregate a labeled corpus into a trend series")
    p.add_argument("input", help="labeled corpus from classify")
    p.add_argument("-o", "--output", required=True, help="trend CSV to write")
    p.add_argument("--mode", choices=("instant", "cumulative"), default="instant")
    p.add_argument("--window", type=_positive_int, default=14, help="trailing window length for instant mode")
    p.add_argument("--t0", default=None, help="cumulative start: a date or a day index (default: day 1)")
    p.add_argument("--origin-date", type=_iso_date, default=None, help="date of day 1 (default: from the corpus meta sidecar)")
    p.add_argument("--exclude-undecided", action="store_true", help="drop Undecided users from the instant denominator")
    p.add_argument("--weights-file", default=None, help="stratum,weight CSV for demographic reweighting")
    p.add_argument("--strata-file", default=None, help="user_id,stratum CSV assigning users to strata")

    p = add("sweep", cmd_sweep, "recompute the cumulative series from several start days")
    p.add_argument("input", help="labeled corpus from classify")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--t0-list", required=True, help="comma-separated dates or day indices")
    p.add_argument("--origin-date", type=_iso_date, default=None, help="date of day 1 (default: from the corpus meta sidecar)")

    p = add("hashtags", cmd_hashtags, "co-occurrence graph, camp partition and tag clouds")
    p.add_argument("input", help="corpus (labeled input enables camp clouds)")
    p.add_argument("-o", "--output", required=True, help="output base path")
    p.add_argument("--min-count", type=_non_negative_int, default=5, help="drop tags and edges seen fewer times")
    p.add_argument("--top-k", type=_positive_int, default=25, help="tags per camp in the cloud CSV")
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
    p.add_argument("--start-date", type=_iso_date, default=date(2019, 3, 1), help="calendar date of day 1")
    p.add_argument("--seed", type=int, default=20190811, help="generator seed")

    p = add("validate", cmd_validate, "synth + full pipeline + oracle and recovery checks")
    p.add_argument("--spec", default=None, help="electorate spec JSON (default: builtin 6k-user spec)")
    p.add_argument("--workdir", default=None, help="keep the run's files here (default: a temp dir, removed at the end)")
    p.add_argument("--tolerance", type=_number("a finite number", lambda x: True), default=1.5, help="max final-day recovery error in points")

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
