"""Parsing, normalization and filtering of archived tweet corpora.

Input is newline-delimited JSON, one record per line, with required keys
``id`` and ``user`` (each a string, or an integer read as its decimal
text), ``ts`` (ISO-8601) and ``text``; an optional ``hashtags`` list is
trusted when present. Records are matched against candidate-name queries,
hashtags are extracted, timestamps are normalized to UTC and each record
is assigned an integer day index (day 1 = the corpus origin day);
:func:`ingest_lines` chains all of it for the library and the CLI.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import tempfile
import zlib
from collections import Counter, deque
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta, timezone
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

from .botfilter import ActivityTracker, BotConfig, BotVerdict, flag_bots

__all__ = [
    "TweetRecord",
    "QuerySet",
    "IngestConfig",
    "IngestResult",
    "ParseError",
    "BeforeOriginError",
    "NoRecordsError",
    "DEFAULT_QUERY_STRINGS",
    "parse_record",
    "parse_label",
    "record_to_json",
    "with_stance",
    "record_parts",
    "join_parts",
    "extract_hashtags",
    "MAX_DAY",
    "assign_day",
    "day_to_date",
    "open_text",
    "AtomicFiles",
    "iter_lines",
    "iter_text_lines",
    "usable_cpus",
    "map_chunks",
    "ingest_lines",
]

# Candidate-name queries for the 2019 Argentina presidential race.
# "AND" separates terms that must all appear; matching is case-insensitive
# substring, so e.g. "Macri" also matches "@mauriciomacri".
DEFAULT_QUERY_STRINGS = (
    "Alberto AND Fernandez",
    "alferdez",
    "CFK",
    "CFKArgentina",
    "Kirchner",
    "mauriciomacri",
    "Macri",
    "Pichetto",
    "MiguelPichetto",
    "Lavagna",
)

# '#' followed by word characters; \w with re.UNICODE covers accented
# letters common in Argentine tags.
_HASHTAG_RE = re.compile(r"#(\w+)", re.UNICODE)

_UTC = timezone.utc

# The largest day index a calendar can date: 9999-12-31 counted from 0001-01-01 as day 1.
MAX_DAY = date.max.toordinal()

# A timestamp that ``isoformat`` writes back unchanged: UTC, whole seconds.
_ISO_UTC = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\+00:00").fullmatch

# The C encoder json.dumps(obj, ensure_ascii=False) uses, built once:
# JSONEncoder.encode builds a new one, with its closures, on every call.
# Decoded JSON and records hold no cycles, so there are no markers to track.
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ": ", ", ", False, False, True
)
_encode_str = json.encoder.encode_basestring  # the string encoder of _ENCODE
# The keys of a corpus line before its day index, in the order it is written,
# and the line they make when no string needs an escape (see _written_as_read).
_LINE_KEYS = ("id", "user", "ts", "text", "hashtags")
_UNESCAPED = '{"%s": "%%s", "%s": "%%s", "%s": "%%s", "%s": "%%s", "%s": [%%s]}' % _LINE_KEYS
# The scanner json.loads calls after its BOM and whitespace handling, which
# a stripped line does not need.
_SCAN = json.JSONDecoder().scan_once


class ParseError(ValueError):
    """A malformed input line. Recoverable: the pipeline skips and counts it."""

    def __init__(self, reason: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {reason}" if line_no else reason)
        self.reason = reason
        self.line_no = line_no


class BeforeOriginError(ValueError):
    """Record timestamp predates the configured origin day."""


class NoRecordsError(ValueError):
    """An ingest input without lines, or without a line that the ingest rules accepted."""


@dataclass(slots=True)
class TweetRecord:
    """One ingested message, normalized to the corpus data model."""

    tweet_id: str
    user_id: str
    created_at: datetime  # tz-aware, UTC
    text: str
    hashtags: list[str]
    day: int | None = None  # assigned against the corpus origin date
    stance: str | None = None  # filled by the classifier


@dataclass(frozen=True)
class QuerySet:
    """OR of queries, each query an AND of case-insensitive substring terms.

    Terms are matched against the lowercased text, so a term that is not
    lowercase never matches. The single-term queries are compiled into one
    alternation, without any term that holds another (the shorter one
    matches wherever the longer one does); the multi-term queries are
    tested term by term.
    """

    queries: tuple[tuple[str, ...], ...]
    _any_single: re.Pattern | None = field(init=False, repr=False, compare=False)
    _conjunctions: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.queries:
            raise ValueError("query set must contain at least one query")
        for terms in self.queries:
            if not terms:
                raise ValueError("each query needs at least one term")
        singles = {terms[0] for terms in self.queries if len(terms) == 1}
        singles = sorted(t for t in singles if not any(s != t and s in t for s in singles))
        pattern = re.compile("|".join(map(re.escape, singles))) if singles else None
        object.__setattr__(self, "_any_single", pattern)
        object.__setattr__(self, "_conjunctions", tuple(t for t in self.queries if len(t) > 1))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "QuerySet":
        queries = []
        for s in strings:
            terms = tuple(t.strip().lower() for t in s.split(" AND ") if t.strip())
            queries.append(terms)
        return cls(tuple(queries))

    @classmethod
    def default(cls) -> "QuerySet":
        return cls.from_strings(DEFAULT_QUERY_STRINGS)

    def matches(self, text: str) -> bool:
        """True iff any query's terms all appear (case-insensitive) in ``text``."""
        lowered = text.lower()
        if self._any_single is not None and self._any_single.search(lowered):
            return True
        for terms in self._conjunctions:
            for term in terms:
                if term not in lowered:
                    break
            else:
                return True
        return False


def extract_hashtags(text: str) -> list[str]:
    """Lowercased tags in order of first appearance, deduplicated."""
    seen: dict[str, None] = {}
    for match in _HASHTAG_RE.finditer(text):
        seen.setdefault(match.group(1).lower())
    return list(seen)


def _hashtags(text: str, tags: list[str] | None) -> list[str]:
    """A record's hashtags: ``tags`` when present, normalized to the extraction convention, else the text's."""
    if tags is None:
        return extract_hashtags(text)
    normal = dict.fromkeys([tag.lstrip("#").lower() for tag in tags])
    normal.pop("", None)
    return list(normal)


def _parse_timestamp(raw: str, line_no: int) -> datetime:
    # Python 3.10 fromisoformat has no 'Z' support.
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ParseError(f"invalid timestamp {raw!r}", line_no) from None
    try:  # naive timestamps are taken as UTC
        ts = ts.replace(tzinfo=_UTC) if ts.tzinfo is None else ts.astimezone(_UTC)
    except OverflowError:
        ts = None
    # The calendar's first and last days are refused too, so no day offset of up to 24 hours leaves it.
    if ts is None or not date.min < ts.date() < date.max:
        raise ParseError(f"timestamp {raw!r} out of range", line_no)
    return ts


def _is_utf8(text: str) -> bool:
    """False when ``text`` holds lone surrogates, which have no UTF-8 form."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _load_json(line: str, line_no: int):
    """``json.loads(line)``, going straight to the scanner when the line is one whole value."""
    try:
        obj, end = _SCAN(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    # Blanks around the value, or not JSON: json.loads takes the blanks or says what is wrong.
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line_no) from None
    except ValueError:  # an integer of more digits than sys.get_int_max_str_digits() allows
        raise ParseError("invalid JSON (integer too long)", line_no) from None
    except RecursionError:
        raise ParseError("invalid JSON (nested too deeply)", line_no) from None


def _id_text(value, name: str, line_no: int) -> str:
    """An ``id`` or ``user`` as text: a string as it is, an integer as its decimal digits; anything else is malformed."""
    if type(value) is str or type(value) is int:  # bool is not an id
        return str(value)
    raise ParseError(f"field {name!r} is not a string or an integer", line_no)


def _decode(line: str, line_no: int) -> tuple:
    """``(id, user, ts as read, created_at, text, raw hashtags, day, stance)`` of one line, every field checked."""
    if not _is_utf8(line):
        raise ParseError("invalid UTF-8", line_no)
    obj = _load_json(line, line_no)
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line_no)
    try:
        tweet_id, user_id, raw_ts, text = obj["id"], obj["user"], obj["ts"], obj["text"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc.args[0]!r}", line_no) from None
    if type(tweet_id) is not str or type(user_id) is not str:
        tweet_id, user_id = _id_text(tweet_id, "id", line_no), _id_text(user_id, "user", line_no)
    if not isinstance(text, str):
        raise ParseError("field 'text' is not a string", line_no)
    raw_ts = str(raw_ts)
    created_at = _parse_timestamp(raw_ts, line_no)
    tags = obj.get("hashtags")
    if tags is not None and not (isinstance(tags, list) and all(map(isinstance, tags, repeat(str)))):
        raise ParseError("field 'hashtags' is not a list of strings", line_no)
    day = obj.get("t")
    if day is not None and type(day) is not int:  # bool and float are not day indices
        raise ParseError("field 't' is not an integer", line_no)
    # A JSON escape of an unpaired surrogate decodes to one; only a line
    # holding a \ud.. escape can carry it.
    if "\\" in line and ("\\ud" in line or "\\uD" in line) and not _is_utf8("".join(_ENCODE(obj, 0))):
        raise ParseError("unpaired surrogate escape", line_no)
    stance = obj.get("stance")
    return (
        tweet_id,
        user_id,
        raw_ts,
        created_at,
        text,
        tags,
        day,
        str(stance) if stance is not None else None,
    )


def parse_record(line: str, line_no: int = 0) -> TweetRecord:
    """Parse one serialized record.

    Raises :class:`ParseError` (carrying the line number) on malformed
    input; callers are expected to skip and count such lines, never abort.
    Bytes that were not UTF-8 reach here as lone surrogates (see
    :func:`iter_lines`) and make the line malformed.
    """
    tweet_id, user_id, _, created_at, text, tags, day, stance = _decode(line, line_no)
    return TweetRecord(tweet_id, user_id, created_at, text, _hashtags(text, tags), day, stance)


def parse_label(line: str, line_no: int = 0) -> tuple[str, int | None, str | None]:
    """The ``(user, day, stance)`` of one line: the fields the trend estimators read.

    Accepts and rejects exactly the lines :func:`parse_record` does, but
    keeps only these three fields.
    """
    _, user_id, _, _, _, _, day, stance = _decode(line, line_no)
    return user_id, day, stance


def record_parts(record: TweetRecord) -> tuple[str, str]:
    """A record's corpus line without its day index: the text before ``"t"`` and after it."""
    values = (record.tweet_id, record.user_id, record.created_at.isoformat(), record.text, record.hashtags)
    head = "".join(_ENCODE(dict(zip(_LINE_KEYS, values)), 0))
    if record.stance is None:
        return head[:-1], "}"
    return head[:-1], f', "stance": {"".join(_ENCODE(record.stance, 0))}}}'


def join_parts(head: str, day: int | None, tail: str) -> str:
    """The corpus line of :func:`record_parts` with day index ``day``."""
    return head + tail if day is None else f'{head}, "t": {day}{tail}'


def record_to_json(record: TweetRecord) -> str:
    """Serialize a record to the corpus line format (round-trips via parse_record)."""
    head, tail = record_parts(record)
    return join_parts(head, record.day, tail)


def with_stance(line: str, value: str) -> str:
    """A corpus line with stance ``value``: added before its closing brace, or the line encoded anew over a stance key it has."""
    if '"stance"' in line and "stance" in json.loads(line):
        return record_to_json(replace(parse_record(line), stance=value))
    return f'{line[:-1]}, "stance": "{value}"}}'


def _written_as_read(line: str, tweet_id: str, user_id: str, raw_ts: str, text: str, hashtags: list[str]) -> bool:
    """True when ``line`` is, byte for byte, the line :func:`record_parts` writes for these fields, without stance.

    A JSON line without a backslash holds no escape, so each of its strings
    decoded to the text between its quotes, with no character that the
    encoder escapes; and a timestamp of the ``_ISO_UTC`` form is its own
    ``isoformat``. So the line equals the encoding when it equals this
    skeleton of the decoded fields.
    """
    if "\\" in line or _ISO_UTC(raw_ts) is None:
        return False
    tags = '"' + '", "'.join(hashtags) + '"' if hashtags else ""
    return line == _UNESCAPED % (tweet_id, user_id, raw_ts, text, tags)


def effective_date(record: TweetRecord, day_offset_hours: float = 0) -> date:
    """Calendar date of a record once the day boundary is shifted."""
    shifted = record.created_at + timedelta(hours=day_offset_hours)
    return shifted.date()


def assign_day(record: TweetRecord, origin_date: date, day_offset_hours: float = 0) -> int:
    """Day index of a record: 1 + whole days since the origin date.

    Day boundaries are UTC calendar days; ``day_offset_hours`` shifts the
    boundary (e.g. -3 for Argentina local days). Records before the origin
    raise :class:`BeforeOriginError`.
    """
    delta = (effective_date(record, day_offset_hours) - origin_date).days
    if delta < 0:
        raise BeforeOriginError(
            f"record {record.tweet_id} at {record.created_at.isoformat()} "
            f"predates origin {origin_date.isoformat()}"
        )
    return delta + 1


def day_to_date(day: int, origin_date: date) -> date:
    return origin_date + timedelta(days=day - 1)


def _opener(path: str):
    return gzip.open if str(path).endswith(".gz") else open


def open_text(path: str) -> TextIO:
    """Open a text file for reading, transparently gunzipped when the path ends in .gz."""
    return _opener(path)(path, "rt", encoding="utf-8")


def _remove_dead_temps(path: str) -> None:
    """Delete every ``<path>.tmp<pid>`` left by a process that no longer exists."""
    directory, name = os.path.split(os.path.abspath(path))
    prefix = name + ".tmp"
    try:
        entries = os.listdir(directory)
    except OSError:  # the write itself reports a directory it cannot use
        return
    for entry in entries:
        pid = entry[len(prefix):]
        if not (entry.startswith(prefix) and pid.isascii() and pid.isdigit()):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            with suppress(FileNotFoundError):  # another writer removed it first
                os.unlink(os.path.join(directory, entry))
        except (OSError, OverflowError):  # alive but not ours to signal, or no pid at all
            pass


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """An ``OSError`` of the block, raised again naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


class _Output(io.FileIO):
    """A binary file written for ``output``: its ``name`` and its open, write and close errors name ``output``."""

    def __init__(self, file: str | int, mode: str, output: str, closefd: bool = True):
        with _naming(output):
            super().__init__(file, mode, closefd)
        self.name = output

    def write(self, data) -> int:
        with _naming(self.name):
            return super().write(data)

    def close(self) -> None:
        with _naming(self.name):
            super().close()


class AtomicFiles:
    """Text writers whose files appear together when the group's ``with`` block ends, or not at all.

    ``open(path)`` writes ``<path>.tmp<pid>`` beside ``path``, gzipped by .gz
    suffix with a header that names ``path`` and carries no time, so equal
    text gives equal bytes. The group renames the temp files in the order
    they were opened; a path opened again moves to the end and keeps the
    later text. An error opening or writing a temp file names its ``path``.
    If the block or a rename fails, every temp file not yet renamed is
    removed. A process killed outright cannot clean up, so each ``open``
    first removes the temp files of its path whose writer is gone.
    """

    def __init__(self):
        self._temps: dict[str, str] = {}  # path -> its temp file, in commit order

    def __enter__(self) -> "AtomicFiles":
        return self

    def __exit__(self, exc_type, *_) -> None:
        try:
            for path, tmp in list(self._temps.items()) if exc_type is None else ():
                os.replace(tmp, path)
                del self._temps[path]
        finally:
            for tmp in self._temps.values():
                with suppress(OSError):
                    os.unlink(tmp)
            self._temps.clear()

    @contextmanager
    def open(self, path: str, newline: str | None = None) -> Iterator[TextIO]:
        _remove_dead_temps(path)
        tmp = self._temps.pop(path, f"{path}.tmp{os.getpid()}")
        self._temps[path] = tmp
        with ExitStack() as stack:
            raw = stack.enter_context(io.BufferedWriter(_Output(tmp, "wb", path)))
            if str(path).endswith(".gz"):  # the header names the basename of ``path``
                raw = stack.enter_context(gzip.GzipFile(path, "wb", fileobj=raw, mtime=0))
            yield stack.enter_context(io.TextIOWrapper(raw, encoding="utf-8", newline=newline))


def iter_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (line_no, line) pairs, 1-based, skipping blank lines.

    A truncated or corrupt gzip stream raises :class:`OSError`, like any
    other read failure. Bytes that are not UTF-8 become lone surrogates,
    which :func:`parse_record` rejects, so one bad line does not end the
    read.
    """
    with _opener(path)(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped:
                    yield line_no, stripped
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise OSError(f"{path}: damaged gzip stream: {exc}") from None


# Lines per task of :func:`map_chunks`, and tasks in flight per worker process.
CHUNK_LINES = 512
_CHUNKS_PER_WORKER = 2
# Bytes of spool rows that pass 2 of :func:`ingest_lines` reads and writes at a time.
SPOOL_BLOCK = 1 << 16


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# The chunk function of the pool this process serves, set when the worker starts.
_CHUNK_FN: Callable | None = None


def _serve(fn: Callable) -> None:
    global _CHUNK_FN
    _CHUNK_FN = fn


def _call(chunk: list):
    return _CHUNK_FN(chunk)


def _fork_pool(workers: int, fn: Callable):
    """A pool of ``workers`` forked processes that run ``fn`` on the chunks they are sent."""
    from multiprocessing import get_context
    from multiprocessing.pool import Pool

    class QuietPool(Pool):
        # Pool's worker handler also waits on the result pipe, so it polls in a loop
        # until the result handler has read a large result: a fifth of the parent's
        # CPU in ingest. Worker exits and an emptied task cache still wake it.
        def _get_sentinels(self):
            return [self._change_notifier._reader]

    return QuietPool(workers, _serve, (fn,), context=get_context("fork"))


def map_chunks(fn: Callable[[list], object], lines: Iterable[tuple[int, str]], workers: int) -> Iterator:
    """``fn`` of each run of :data:`CHUNK_LINES` ``(line_no, line)`` pairs, in input order.

    With one worker, ``fn`` runs in this process on each chunk as it is
    read. With more, the first two chunks are read to decide: input that
    fits in one chunk runs here too, and other input on a pool of
    ``workers`` forked processes, with at most ``2 * workers`` chunks in
    flight; the workers inherit ``fn``, so it need not pickle, but its
    chunks and results do. An exception from ``fn`` is raised when its
    chunk's turn comes, so the first bad chunk in
    input order decides it. A read error (``OSError``) from ``lines`` is
    raised after the chunks read before it. The pool ends with the iterator,
    exhausted, failed or closed: its workers finish the chunks in flight
    and exit. Forking is safe only in a process that runs no other thread,
    as the CLI's do not.
    """
    read_error: list[OSError] = []

    def read() -> Iterator[tuple[int, str]]:
        try:
            yield from lines
        except OSError as exc:
            read_error.append(exc)

    it = read()
    chunks = iter(lambda: list(islice(it, CHUNK_LINES)), [])
    head = list(islice(chunks, 2 if workers > 1 else 0))
    pooled = workers > 1 and len(head) > 1
    chunks = chain(head, chunks)
    del head  # so that each chunk is freed once taken
    if not pooled:
        yield from map(fn, chunks)
    else:
        pool = _fork_pool(workers, fn)
        # A worker stopped by a signal while it sends a result keeps the result
        # pipe's lock, and Pool.terminate then waits on that lock for ever. So
        # the workers finish the chunks in flight and exit on their own, unless
        # an interrupt, which they may have taken too, ends the iterator.
        interrupted = True
        try:
            pending: deque = deque()
            for chunk in chunks:
                pending.append(pool.apply_async(_call, (chunk,)))
                if len(pending) == _CHUNKS_PER_WORKER * workers:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
            interrupted = False
        except (Exception, GeneratorExit):
            interrupted = False
            raise
        finally:
            if interrupted:
                pool.terminate()
            else:
                pool.close()
                pool.join()
    if read_error:
        raise read_error[0]


def iter_text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line_no, line) of a small text file, skipping blank and ``#`` comment lines.

    A line that is not UTF-8 raises :class:`ParseError`.
    """
    for line_no, line in iter_lines(path):
        if line.startswith("#"):
            continue
        if not _is_utf8(line):
            raise ParseError("invalid UTF-8", line_no)
        yield line_no, line


@dataclass(frozen=True)
class IngestConfig:
    """The rules of an ingest run, one field per ``ingest`` flag; ``None`` turns a rule off.

    ``origin_date=None`` makes the earliest effective date day 1.
    """

    queries: QuerySet | None = field(default_factory=QuerySet.default)
    bots: BotConfig | None = field(default_factory=BotConfig)
    drop_retweets: bool = False
    origin_date: date | None = None
    day_offset_hours: float = 0.0


@dataclass(frozen=True)
class IngestResult:
    """What an ingest run kept and dropped."""

    origin: date  # the date of day 1
    n_days: int  # the largest day index written
    input_lines: int
    accepted: int
    rejects: dict[str, int]  # lines dropped, by reason, sorted by reason
    verdicts: list[BotVerdict]  # every profiled user, sorted by id; empty when bots is None


def _pass_one(config: IngestConfig, chunk: list[tuple[int, str]]) -> tuple:
    """Pass 1 of :func:`ingest_lines` over one chunk of lines.

    Each line is decoded and checked once; the retweet and query rules read
    the decoded text before anything else is built. A kept line that is
    already what :func:`record_parts` writes (no stance, no day) is spooled
    as read; any other is encoded again. Returns the number of lines, their
    rejects sidecar text, the rejects by reason, their spool rows, the kept
    records' user profiles (None without the bot rules) and the earliest
    effective date's ordinal (None when no line is kept).
    """
    queries, drop_retweets = config.queries, config.drop_retweets
    shift = timedelta(hours=config.day_offset_hours)
    tracker = ActivityTracker() if config.bots is not None else None
    counts: Counter = Counter()
    rejects, rows = [], []
    first = None

    def reject(line_no: int, reason: str) -> None:
        counts[reason.partition(":")[0]] += 1
        rejects.append(f"{line_no}\t{reason}\n")

    for line_no, line in chunk:
        try:
            tweet_id, user_id, raw_ts, created_at, text, tags, _, stance = _decode(line, line_no)
        except ParseError as exc:
            reject(line_no, f"parse: {exc.reason}")
            continue
        if drop_retweets and text.startswith("RT @"):
            reject(line_no, "retweet")
            continue
        if queries is not None and not queries.matches(text):
            reject(line_no, "no-query-match")
            continue
        ordinal = (created_at + shift).date().toordinal()
        if first is None or ordinal < first:
            first = ordinal
        if tracker is not None:
            tracker.add_ordinal(user_id, created_at.timestamp(), text, ordinal)
        hashtags = _hashtags(text, tags)
        if stance is None and _written_as_read(line, tweet_id, user_id, raw_ts, text, hashtags):
            head, tail = line[:-1], "}"
        else:
            head, tail = record_parts(TweetRecord(tweet_id, user_id, created_at, text, hashtags, None, stance))
        # JSON text holds no raw tab or newline, so the fields split back cleanly.
        rows.append(f"{line_no}\t{ordinal}\t{_encode_str(user_id)}\t{head}\t{tail}\n")
    return len(chunk), "".join(rejects), counts, "".join(rows), tracker, first


def ingest_lines(
    lines: Iterable[tuple[int, str]], config: IngestConfig, out: TextIO, rejects: TextIO, spool_dir: str | None = None
) -> IngestResult:
    """Filter and date raw corpus lines, ``(line_no, line)`` pairs as :func:`iter_lines` yields them.

    Kept records go to ``out`` as dated corpus lines in input order, dropped
    lines to ``rejects`` as ``line_no<TAB>reason``. Pass 1 reads ``lines``
    once, in chunks that :func:`map_chunks` spreads over the usable CPUs:
    the parse, retweet and query rules, user profiles on effective dates,
    the origin, and a spool row "line_no, date ordinal, user as a JSON
    string, line head, line tail" per kept line in an anonymous temp file in
    ``spool_dir``, whose write errors name ``out``. A kept line already in
    the corpus encoding is spooled as read, any other is encoded again.
    Pass 2 reads the spool in blocks of about :data:`SPOOL_BLOCK` bytes and
    applies the bot and origin rules, keeping the input order. Raises
    :class:`NoRecordsError` when ``lines`` is empty, no line passes the
    parse and query filters, or no line is accepted.
    """
    bot_config = config.bots
    reject_counts: Counter = Counter()
    tracker = ActivityTracker()
    n_lines = 0
    min_ordinal = None

    staged = getattr(out, "name", "the clean corpus")  # what a spool write error names
    with tempfile.TemporaryFile(dir=spool_dir, buffering=0) as anonymous, io.TextIOWrapper(
        io.BufferedRandom(_Output(anonymous.fileno(), "r+", staged, closefd=False)), encoding="utf-8", newline="\n"
    ) as spool:
        with closing(map_chunks(partial(_pass_one, config), lines, usable_cpus())) as results:
            for n, rejected, counts, rows, part, first in results:
                n_lines += n
                rejects.write(rejected)
                reject_counts.update(counts)
                spool.write(rows)
                if part is not None:
                    tracker.merge(part)
                if first is not None and (min_ordinal is None or first < min_ordinal):
                    min_ordinal = first

        if n_lines == 0:
            raise NoRecordsError("no records")
        if min_ordinal is None:
            raise NoRecordsError("no record passed the parse and query filters")
        origin = config.origin_date or date.fromordinal(min_ordinal)
        verdicts, bots = flag_bots(tracker, bot_config) if bot_config is not None else ([], set())
        bot_users = {_encode_str(user) for user in bots}

        accepted = 0
        max_day = 0
        before_day_one = origin.toordinal() - 1
        spool.seek(0)
        # Each block's kept lines, and its rejects, are written as one string.
        for block in iter(partial(spool.readlines, SPOOL_BLOCK), []):
            kept, dropped = [], []
            for row in block:
                line_no, ordinal, user, head, tail = row.split("\t")
                if user in bot_users:
                    dropped.append((line_no, "bot-user"))
                    continue
                day = int(ordinal) - before_day_one
                if day < 1:
                    dropped.append((line_no, "before-origin"))
                    continue
                kept.append(join_parts(head, day, tail))  # the tail keeps the spool's newline
                if day > max_day:
                    max_day = day
            out.write("".join(kept))
            rejects.write("".join(f"{line_no}\t{reason}\n" for line_no, reason in dropped))
            reject_counts.update(reason for _, reason in dropped)
            accepted += len(kept)

    rejected = sum(reject_counts.values())
    if accepted + rejected != n_lines:
        raise AssertionError(
            f"accounting violated: {accepted} accepted + {rejected} rejected != {n_lines} lines"
        )
    counts = dict(sorted(reject_counts.items()))
    if not accepted:
        raise NoRecordsError(f"no record accepted ({', '.join(f'{k}={v}' for k, v in counts.items())})")
    return IngestResult(origin, max_day, n_lines, accepted, counts, verdicts)
