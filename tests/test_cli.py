"""Command-line surface: wiring, exit codes, sidecars and manifests."""

import gzip
import hashlib
import importlib
import io
import json
import os
import pkgutil
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from datetime import date, datetime, timedelta, timezone
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import electrend
from electrend import hashtags
from electrend.botfilter import write_report_csv
from electrend.cli import _load_table, main
from electrend.ingest import (
    IngestConfig,
    ingest_lines,
    iter_lines,
    parse_label,
    parse_record,
)
from electrend.manifest import rerun
from electrend.synth import ElectorateSpec, ground_truth
from electrend.trend import CounterTable, read_trend_csv

SUBCOMMANDS = [
    "ingest",
    "train",
    "classify",
    "trend",
    "sweep",
    "hashtags",
    "synth",
    "validate",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small end-to-end run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    p = SimpleNamespace(
        root=root,
        raw=str(root / "raw.jsonl"),
        clean=str(root / "clean.jsonl"),
        model=str(root / "model.json"),
        labeled=str(root / "labeled.jsonl"),
        trend=str(root / "trend.csv"),
    )
    assert main([
        "synth", "-o", p.raw,
        "--users", "80", "--days", "12",
        "--mean-rate", "1.2", "--bot-fraction", "0.05",
        "--start-date", "2019-04-01", "--seed", "5",
    ]) == 0
    assert main(["ingest", p.raw, "-o", p.clean]) == 0
    assert main(["train", p.clean, "-o", p.model]) == 0
    assert main(["classify", p.clean, "-o", p.labeled, "--model", p.model, "--workers", "1"]) == 0
    assert main(["trend", p.labeled, "-o", p.trend, "--mode", "cumulative", "--t0", "1"]) == 0
    return p


class TestHelpAndUsage:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert main([sub, "--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_output(self, tmp_path):
        assert main(["ingest", str(tmp_path / "x.jsonl")]) == 2

    def test_bad_t0_token(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "t.csv"),
            "--mode", "cumulative", "--t0", "noonish",
        ])
        assert code == 2


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        assert main(["ingest", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "o")]) == 3

    def test_empty_corpus_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["ingest", str(empty), "-o", str(tmp_path / "o")]) == 4

    def test_malformed_line_is_a_data_error(self, pipeline, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"user_id": "a"}\n')
        assert main(["train", str(bad), "-o", str(tmp_path / "m")]) == 4

    def test_unreadable_model(self, pipeline, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("{}")
        code = main([
            "classify", pipeline.clean, "-o", str(tmp_path / "out"),
            "--model", str(model), "--workers", "1",
        ])
        assert code == 4

    def test_seeds_without_a_camp(self, pipeline, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("ff yosigo\nmp mm2019\n")
        code = main([
            "train", pipeline.clean, "-o", str(tmp_path / "m"),
            "--seeds", str(seeds),
        ])
        assert code == 4

    def test_queries_file_without_queries(self, pipeline, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("# comments only\n")
        code = main(["ingest", pipeline.raw, "-o", str(tmp_path / "o"), "--queries-file", str(queries)])
        assert code == 4

    def test_bad_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"spec_version": 1, "n_users": -3, "n_days": 0}')
        assert main(["synth", "-o", str(tmp_path / "c"), "--spec", str(spec)]) == 4

    def test_bad_drift_flag(self, tmp_path):
        code = main([
            "synth", "-o", str(tmp_path / "c"),
            "--users", "5", "--days", "5", "--drift", "3:bogus",
        ])
        assert code == 2


def run_cli(argv, cwd, max_file_bytes=None):
    """``python -m electrend`` in a fresh process; ``max_file_bytes`` caps every file it writes."""

    def cap_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # an oversize write fails with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (max_file_bytes, max_file_bytes))

    src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "electrend", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_file_size if max_file_bytes else None,
    )


class TestFailedRuns:
    """A stage that fails part-way exits with its documented code and leaves nothing behind."""

    STAGES = ("ingest", "train", "classify", "trend")

    @staticmethod
    def stage_input(stage, pipeline):
        inputs = {"ingest": pipeline.raw, "train": pipeline.clean, "classify": pipeline.clean, "trend": pipeline.labeled}
        return inputs[stage]

    @staticmethod
    def stage_argv(stage, corpus, pipeline):
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "trend": ["--mode", "cumulative"]}
        return [stage, corpus, "-o", "out", *extra.get(stage, [])]

    @pytest.mark.parametrize("stage", STAGES)
    def test_output_write_fails_midway(self, stage, pipeline, tmp_path):
        shutil.copy(self.stage_input(stage, pipeline), tmp_path / "in.jsonl")
        result = run_cli(self.stage_argv(stage, "in.jsonl", pipeline), tmp_path, max_file_bytes=256)
        assert result.returncode == 3, result.stderr
        assert "File too large" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("stage", STAGES)
    def test_truncated_gzip_input(self, stage, pipeline, tmp_path):
        with open(self.stage_input(stage, pipeline), "rb") as fh:
            packed = gzip.compress(fh.read())
        assert len(packed) > 3000
        (tmp_path / "in.jsonl.gz").write_bytes(packed[:3000])
        result = run_cli(self.stage_argv(stage, "in.jsonl.gz", pipeline), tmp_path)
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl.gz"]

    def test_ingest_accepting_no_record(self, pipeline, tmp_path):
        shutil.copy(pipeline.raw, tmp_path / "raw.jsonl")
        result = run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl", "--origin-date", "2030-01-01"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        meta = json.load(open(pipeline.clean + ".meta.json"))
        rejects = {**meta["rejects"], "before-origin": meta["records"]}
        counts = ", ".join(f"{k}={v}" for k, v in sorted(rejects.items()))
        assert f"raw.jsonl: no record accepted ({counts})" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.jsonl"]

    @pytest.mark.parametrize("content", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
    def test_corpus_without_records(self, content, pipeline, tmp_path):
        (tmp_path / "in.jsonl").write_text(content)
        runs = [
            ["train"],
            ["classify", "--model", pipeline.model, "--workers", "1"],
            ["classify", "--model", pipeline.model, "--workers", "2"],
            ["trend", "--mode", "cumulative"],
        ]
        for stage, *extra in runs:
            result = run_cli([stage, "in.jsonl", "-o", "out", *extra], tmp_path)
            assert result.returncode == 4, (stage, extra, result.stderr)
            assert "Traceback" not in result.stderr
            assert "corpus in.jsonl contains no records" in result.stderr
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"], (stage, extra)


class TestBadCalendar:
    """A malformed date or day offset is a usage error and a damaged meta sidecar a data error; neither leaves output."""

    @pytest.mark.parametrize("stage", ("ingest", "trend", "sweep"))
    def test_malformed_origin_date_exits_2(self, stage, pipeline, tmp_path):
        shutil.copy(pipeline.raw if stage == "ingest" else pipeline.labeled, tmp_path / "in.jsonl")
        extra = ["--t0-list", "1"] if stage == "sweep" else []
        for bad in ("bogus", "2019-13-01"):
            result = run_cli([stage, "in.jsonl", "-o", "out", "--origin-date", bad, *extra], tmp_path)
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert f"--origin-date: {bad!r} is not a calendar date" in result.stderr
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    def test_malformed_start_date_exits_2(self, tmp_path):
        for bad in ("bogus", "2019-13-01"):
            result = run_cli(["synth", "-o", "c.jsonl", "--users", "5", "--days", "3", "--start-date", bad], tmp_path)
            assert result.returncode == 2, result.stderr
            assert "Traceback" not in result.stderr
            assert f"--start-date: {bad!r} is not a calendar date" in result.stderr
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e12", "-24.5", "x"])
    def test_bad_day_offset_exits_2(self, bad, pipeline, tmp_path):
        shutil.copy(pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli(["ingest", "in.jsonl", "-o", "out", f"--day-offset-hours={bad}"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"--day-offset-hours: {bad!r} is not a number of hours in [-24, 24]" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("stage", ("classify", "trend", "sweep"))
    @pytest.mark.parametrize(
        "sidecar", ["{bad", '["x"]', '{"origin_date": "2019-02-30"}'], ids=["not-json", "not-an-object", "bad-date"]
    )
    def test_damaged_meta_sidecar_exits_4(self, stage, sidecar, pipeline, tmp_path):
        shutil.copy(pipeline.clean if stage == "classify" else pipeline.labeled, tmp_path / "in.jsonl")
        (tmp_path / "in.jsonl.meta.json").write_text(sidecar)
        extra = {"classify": ["--model", pipeline.model, "--workers", "1"], "sweep": ["--t0-list", "1"]}
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "bad meta sidecar in.jsonl.meta.json" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "in.jsonl.meta.json"]


class TestNonPositiveCounts:
    """A --window, --top-k or --workers below 1 is a usage error that leaves no output."""

    STAGES = {"--window": ["trend", "--mode", "instant"], "--top-k": ["hashtags"], "--workers": ["classify", "--model", "m.json"]}

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--window", "0"), ("--window", "-3"), ("--window", "x"), ("--top-k", "-2"), ("--top-k", "0"),
            ("--workers", "-3"), ("--workers", "0"),
        ],
    )
    def test_exits_2(self, flag, bad, pipeline, tmp_path):
        shutil.copy(pipeline.labeled, tmp_path / "in.jsonl")
        stage = self.STAGES[flag]
        result = run_cli([stage[0], "in.jsonl", "-o", "out", *stage[1:], flag, bad], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"{flag}: {bad!r} is not a positive integer" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestBadFloatFlags:
    """A --bot-* or --margin value that is not a finite number >= 0, or a --smoothing not > 0, is a usage error."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--bot-threshold", "nan"), ("--bot-threshold", "-0.1"), ("--bot-rate-cap", "nan"),
            ("--bot-rate-cap", "inf"), ("--bot-dup-cap", "-1"), ("--bot-gap-floor", "x"),
            ("--smoothing", "0"), ("--smoothing", "-1"), ("--smoothing", "nan"), ("--smoothing", "inf"),
            ("--margin", "-1"), ("--margin", "nan"),
        ],
    )
    def test_exits_2(self, flag, bad, pipeline, tmp_path):
        stage = "train" if flag in ("--smoothing", "--margin") else "ingest"
        shutil.copy(pipeline.clean if stage == "train" else pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli([stage, "in.jsonl", "-o", "out", f"{flag}={bad}"], tmp_path)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        what = "a finite number > 0" if flag == "--smoothing" else "a finite number >= 0"
        assert f"{flag}: {bad!r} is not {what}" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestNonUtf8Input:
    """One undecodable byte: ingest rejects the line, every other stage exits 4."""

    STAGES = ("train", "classify", "trend", "sweep", "hashtags")

    @staticmethod
    def corrupt_third_line(src, dst):
        with open(src, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[2] = lines[2].replace(b'"text": "', b'"text": "caf\xe9 ', 1)
        assert b"\xe9" in lines[2]
        dst.write_bytes(b"\n".join(lines))

    def test_ingest_counts_a_parse_reject(self, pipeline, tmp_path):
        self.corrupt_third_line(pipeline.raw, tmp_path / "in.jsonl")
        result = run_cli(["ingest", "in.jsonl", "-o", "clean.jsonl"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        rejects = (tmp_path / "in.jsonl.rejects.txt").read_text().splitlines()
        assert "3\tparse: invalid UTF-8" in rejects
        meta = json.loads((tmp_path / "clean.jsonl.meta.json").read_text())
        assert meta["records"] + sum(meta["rejects"].values()) == meta["input_lines"]
        assert meta["rejects"]["parse"] == 1

    @pytest.mark.parametrize("stage", STAGES)
    def test_other_stages_exit_4_with_the_line(self, stage, pipeline, tmp_path):
        corpus = pipeline.clean if stage in ("train", "classify") else pipeline.labeled
        self.corrupt_third_line(corpus, tmp_path / "in.jsonl")
        extra = {
            "classify": ["--model", pipeline.model, "--workers", "1"],
            "trend": ["--mode", "cumulative"],
            "sweep": ["--t0-list", "1,3"],
        }
        result = run_cli([stage, "in.jsonl", "-o", "out", *extra.get(stage, [])], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:3: invalid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestMalformedFields:
    """Well-formed JSON with a bad field: ingest counts a parse reject, other stages exit 4."""

    CASES = {
        "lone-surrogate-escape": ("text", "macri \udce9"),
        "hashtags-number": ("hashtags", 5),
        "hashtags-string": ("hashtags", "abc"),
        "hashtags-null-element": ("hashtags", ["ok", None]),
        "t-string": ("t", "x"),
        "t-float": ("t", 1.7),
        "t-bool": ("t", True),
    }

    @staticmethod
    def corrupt_third_line(src, dst, key, value):
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[2])
        obj[key] = value
        lines[2] = json.dumps(obj)  # ASCII-only: a lone surrogate stays an escape
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_reject_or_exit_4(self, case, pipeline, tmp_path):
        key, value = self.CASES[case]
        self.corrupt_third_line(pipeline.raw, tmp_path / "raw.jsonl", key, value)
        result = run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl"], tmp_path)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert (tmp_path / "raw.jsonl.rejects.txt").read_text().splitlines()[0].startswith("3\tparse: ")

        self.corrupt_third_line(pipeline.labeled, tmp_path / "in.jsonl", key, value)
        for argv in (["train", "in.jsonl", "-o", "m.json"], ["trend", "in.jsonl", "-o", "t.csv"]):
            result = run_cli(argv, tmp_path)
            assert result.returncode == 4, result.stderr
            assert "in.jsonl:3: " in result.stderr
            assert "Traceback" not in result.stderr
            assert not (tmp_path / argv[3]).exists()


class TestLabeledLineChecks:
    """A labeled line the estimators cannot place is a data error naming its line."""

    CASES = {
        "t-zero": ({"t": 0}, "day index must be >= 1, got 0"),
        "t-negative": ({"t": -4}, "day index must be >= 1, got -4"),
        "no-stance": ({"stance": None}, "no stance label; run the classify subcommand first"),
        "no-t": ({"t": None}, "no day index 't'; run the ingest subcommand first"),
    }
    STAGES = {
        "trend-instant": ["trend", "in.jsonl", "-o", "out", "--mode", "instant"],
        "trend-cumulative": ["trend", "in.jsonl", "-o", "out", "--mode", "cumulative"],
        "sweep": ["sweep", "in.jsonl", "-o", "out", "--t0-list", "1,3"],
    }

    @staticmethod
    def change_third_line(src, dst, fields):
        with open(src, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[2])
        for key, value in fields.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        lines[2] = json.dumps(obj)
        dst.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("stage", sorted(STAGES))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_4_naming_the_line(self, stage, case, pipeline, tmp_path):
        fields, message = self.CASES[case]
        self.change_third_line(pipeline.labeled, tmp_path / "in.jsonl", fields)
        result = run_cli(self.STAGES[stage], tmp_path)
        assert result.returncode == 4, result.stderr
        assert f"in.jsonl:3: {message}" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]

    @pytest.mark.parametrize("t", [0, -4])
    def test_ingest_recomputes_such_t(self, t, pipeline, tmp_path):
        self.change_third_line(pipeline.raw, tmp_path / "raw.jsonl", {"t": t})
        assert run_cli(["ingest", "raw.jsonl", "-o", "clean.jsonl"], tmp_path).returncode == 0
        for produced, expected in (("clean.jsonl", pipeline.clean), ("raw.jsonl.rejects.txt", pipeline.raw + ".rejects.txt")):
            assert (tmp_path / produced).read_bytes() == open(expected, "rb").read()


@st.composite
def labeled_lines(draw):
    """Labeled corpus lines as classify writes them, with UTC offsets that move days across midnight."""
    lines = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        minutes = draw(st.integers(min_value=0, max_value=20 * 24 * 60))
        zone = draw(st.sampled_from(["Z", "+05:00", "-03:00"]))
        ts = (datetime(2019, 3, 10) + timedelta(minutes=minutes)).isoformat() + zone
        obj = {"id": str(i), "user": draw(st.sampled_from(["ana", "bo", "ü", "z9"])), "ts": ts, "text": "x"}
        obj["t"] = draw(st.integers(min_value=1, max_value=30))
        obj["stance"] = draw(st.sampled_from(["pro_mp", "pro_ff", "pro_third", "neutral"]))
        lines.append(json.dumps(obj, ensure_ascii=False))
    return lines


class TestCorpusReader:
    @settings(max_examples=150, deadline=None)
    @given(lines=labeled_lines(), flag=st.none() | st.dates(date(2019, 3, 1), date(2019, 3, 31)))
    def test_columns_equal_per_line_add(self, lines, flag):
        labels = [parse_label(line) for line in lines]
        expected = CounterTable(labels)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "labeled.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            table, origin = _load_table(path, flag)
        assert origin == flag  # no meta sidecar: only the flag dates the rows
        assert table.users == expected.users
        assert table.n_days == expected.n_days
        assert table.to_sparse() == expected.to_sparse()

    def test_train_on_an_empty_corpus(self, tmp_path):
        (tmp_path / "in.jsonl").write_text("\n\n")
        result = run_cli(["train", "in.jsonl", "-o", "m.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "corpus in.jsonl contains no records" in result.stderr
        assert "training failed" not in result.stderr
        assert not (tmp_path / "m.json").exists()

    def test_train_parse_error_after_seed_lines(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        seeded = sum('"mm2019"' in line or '"fuerzacristina"' in line for line in lines[:599])
        assert seeded > 10
        lines[599] = lines[599][:40]
        (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli(["train", "in.jsonl", "-o", "model.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:600: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestKilledRun:
    def test_rerun_after_sigkill_leaves_no_temp_file(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            (tmp_path / "in.jsonl").write_text(fh.read() * 30, encoding="utf-8")
        argv = ["classify", "in.jsonl", "-o", "out.jsonl", "--model", pipeline.model, "--workers", "1"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "electrend", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        temp = tmp_path / f"out.jsonl.tmp{proc.pid}"
        deadline = time.monotonic() + 60
        try:
            while not (temp.exists() and temp.stat().st_size > 0):
                assert proc.poll() is None, "classify ended before it could be killed"
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            proc.kill()
            proc.wait(timeout=60)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", temp.name]

        result = run_cli(argv, tmp_path)
        assert result.returncode == 0, result.stderr
        assert not list(tmp_path.glob("*.tmp*"))
        assert (tmp_path / "out.jsonl").stat().st_size > 0


class TestSideFiles:
    """A side file with a byte that is not UTF-8 is a data error naming its line."""

    @pytest.mark.parametrize("flag", ["--strata-file", "--weights-file", "--queries-file", "--seeds"])
    def test_non_utf8_side_file_exits_4(self, flag, pipeline, tmp_path):
        users = sorted({json.loads(line)["user"] for line in open(pipeline.labeled)})
        files = {
            "--strata-file": ("user_id,stratum\n" + "".join(f"{u},A\n" for u in users)).encode(),
            "--weights-file": b"stratum,weight\nA,1.0\n",
            "--queries-file": b"macri\nkirchner\n",
            "--seeds": b"ff fuerzacristina\nmp mm2019\n",
        }
        files[flag] = files[flag].split(b"\n")[0] + b"\ncaf\xe9\n"
        stage = {"--queries-file": ["ingest", pipeline.raw], "--seeds": ["train", pipeline.clean]}
        argv = [*stage.get(flag, ["trend", pipeline.labeled]), "-o", "out"]
        for name in (flag,) if flag in stage else ("--strata-file", "--weights-file"):
            (tmp_path / f"{name[2:]}.txt").write_bytes(files[name])
            argv += [name, f"{name[2:]}.txt"]
        result = run_cli(argv, tmp_path)
        assert result.returncode == 4, result.stderr
        assert f"{flag[2:]}.txt:2: invalid UTF-8" in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "out").exists()


class TestStartup:
    def test_ingest_train_classify_never_import_numpy(self, pipeline, tmp_path):
        script = (
            "import sys\n"
            "from electrend.cli import main\n"
            f"assert main(['ingest', {pipeline.raw!r}, '-o', 'clean.jsonl']) == 0\n"
            "assert main(['train', 'clean.jsonl', '-o', 'model.json']) == 0\n"
            "assert main(['classify', 'clean.jsonl', '-o', 'labeled.jsonl', '--model', 'model.json', '--workers', '1']) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "assert not loaded, loaded\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "labeled.jsonl").stat().st_size > 0

    def test_every_public_name_resolves(self):
        assert isinstance(electrend.__version__, str) and electrend.__version__
        modules = [m.name for m in pkgutil.iter_modules(electrend.__path__) if not m.name.startswith("_")]
        assert modules
        for module in modules:
            mod = importlib.import_module(f"electrend.{module}")
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, f"{module}.{name}"
        with pytest.raises(AttributeError):
            electrend.no_such_name


class TestClassifyWorkers:
    def test_parse_error_inside_a_worker(self, pipeline, tmp_path):
        with open(pipeline.clean, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[700] = lines[700][:30]
        (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = run_cli(["classify", "in.jsonl", "-o", "out.jsonl", "--model", pipeline.model, "--workers", "2"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "in.jsonl:701: invalid JSON" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


class TestIngestSidecars:
    def test_accounting_and_meta(self, pipeline):
        meta = json.load(open(pipeline.clean + ".meta.json"))
        assert meta["origin_date"] == "2019-04-01"
        assert meta["n_days"] == 12
        assert meta["records"] + sum(meta["rejects"].values()) == meta["input_lines"]
        n_clean = sum(1 for _ in open(pipeline.clean))
        assert n_clean == meta["records"]

    def test_rejects_sidecar_lists_bot_lines(self, pipeline):
        rejects = open(pipeline.raw + ".rejects.txt").read().splitlines()
        assert rejects, "the planted bots should have been rejected"
        line_no, reason = rejects[0].split("\t")
        assert line_no.isdigit()
        assert reason

    def test_bot_report_flags_the_planted_bots(self, pipeline):
        rows = open(pipeline.clean + ".bots.csv").read().splitlines()
        assert rows[0].startswith("user_id,")
        flagged = {r.split(",")[0] for r in rows[1:]}
        truth = ground_truth(
            ElectorateSpec(
                n_users=80, n_days=12, mean_rate=1.2, bot_fraction=0.05,
                start_date=__import__("datetime").date(2019, 4, 1), rng_seed=5,
            )
        )
        planted = {u for u, b in truth.is_bot.items() if b}
        assert planted <= flagged

    def test_manifest_records_argv_and_hashes(self, pipeline):
        man = json.load(open(pipeline.clean + ".manifest.json"))
        assert man["subcommand"] == "ingest"
        assert pipeline.raw in man["argv"]
        digest = hashlib.sha256(open(pipeline.raw, "rb").read()).hexdigest()
        assert man["inputs"]["corpus"]["sha256"] == digest
        assert any(o.endswith("clean.jsonl") for o in man["outputs"].values())

    def test_manifest_rerun_is_byte_identical(self, pipeline, monkeypatch):
        # rerun starts `python -m electrend`: let it import this checkout, as run_cli does
        monkeypatch.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(os.path.abspath(electrend.__file__))))
        before = open(pipeline.clean, "rb").read()
        assert rerun(pipeline.clean + ".manifest.json") == 0
        assert open(pipeline.clean, "rb").read() == before

    def test_bot_rate_rule_counts_pipeline_days(self, tmp_path):
        # 80 tweets 3 minutes apart from 22:00 UTC: 40 per UTC day, 80 in one day at UTC-3
        start = datetime(2019, 8, 10, 22, tzinfo=timezone.utc)
        raw = tmp_path / "night.jsonl"
        with raw.open("w") as fh:
            for i in range(80):
                ts = (start + timedelta(minutes=3 * i)).isoformat()
                fh.write(json.dumps({"id": str(i), "user": "owl", "ts": ts, "text": f"macri dato {i}"}) + "\n")
        clean = str(tmp_path / "clean.jsonl")

        def via_cli(offset):
            assert main(["ingest", str(raw), "-o", clean, "--day-offset-hours", str(offset)]) == 0
            return open(clean + ".bots.csv").read().splitlines()

        def via_library(offset):
            config = IngestConfig(day_offset_hours=offset)
            result = ingest_lines(iter_lines(str(raw)), config, io.StringIO(), io.StringIO())
            report = io.StringIO()
            write_report_csv(result.verdicts, report)
            return report.getvalue().splitlines()

        for run in (via_cli, via_library):
            for offset, rules in ((0, ""), (-3, "rate")):
                rows = run(offset)
                assert rows[1].split(",") == ["owl", "0.3333" if rules else "0.0000", "false", rules]


class TestClassifyAndTrend:
    def test_worker_count_does_not_change_output(self, pipeline, tmp_path):
        two = tmp_path / "labeled2.jsonl"
        code = main([
            "classify", pipeline.clean, "-o", str(two),
            "--model", pipeline.model, "--workers", "2",
        ])
        assert code == 0
        assert two.read_bytes() == open(pipeline.labeled, "rb").read()

    def test_meta_sidecar_travels_with_classify(self, pipeline):
        src = json.load(open(pipeline.clean + ".meta.json"))
        dst = json.load(open(pipeline.labeled + ".meta.json"))
        assert dst["origin_date"] == src["origin_date"]

    def test_t0_accepts_date_or_day_index(self, pipeline, tmp_path):
        by_date = tmp_path / "bydate.csv"
        code = main([
            "trend", pipeline.labeled, "-o", str(by_date),
            "--mode", "cumulative", "--t0", "2019-04-01",
        ])
        assert code == 0
        assert by_date.read_bytes() == open(pipeline.trend, "rb").read()

    def test_trend_csv_has_dates(self, pipeline):
        lines = open(pipeline.trend).read().splitlines()
        assert lines[0].split(",")[:3] == ["date", "T", "n_mp"]
        assert lines[1].split(",")[0] == "2019-04-01"
        assert len(lines) == 13

    def test_sweep_outputs(self, pipeline, tmp_path):
        outdir = tmp_path / "sweep"
        code = main([
            "sweep", pipeline.labeled, "-o", str(outdir), "--t0-list", "1,2019-04-05",
        ])
        assert code == 0
        per_t0 = sorted(f.name for f in outdir.glob("trend_t0_*.csv"))
        assert per_t0 == ["trend_t0_2019-04-01.csv", "trend_t0_2019-04-05.csv"]
        summary = (outdir / "sweep_summary.csv").read_text().splitlines()
        assert summary[0].startswith("t0,start_day,final_day")
        assert len(summary) == 3
        for line in summary[1:]:  # the final row of the origin's own CSV, from T on
            fields = line.split(",")
            final_row = (outdir / f"trend_t0_{fields[0]}.csv").read_text().splitlines()[-1]
            assert fields[2:] == final_row.split(",")[1:]
        man = json.load(open(outdir / "sweep.manifest.json"))
        assert "spread_pct_ff" in man["parameters"]

    def test_trend_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "t.csv"), "--mode", "cumulative", "--t0", "13",
        ])
        assert code == 2

    def write_strata(self, pipeline, tmp_path, weight="2.5"):
        users = sorted({json.loads(line)["user"] for line in open(pipeline.labeled)})
        strata = tmp_path / "users.csv"
        strata.write_text("user_id,stratum\n" + "".join(f"{u},{'A' if i % 3 else 'B'}\n" for i, u in enumerate(users)))
        weights = tmp_path / "strata.csv"
        weights.write_text(f"stratum,weight\nA,0.7\nB,{weight}\n")
        return ["--strata-file", str(strata), "--weights-file", str(weights)]

    def test_weighted_instant_honours_exclude_undecided(self, pipeline, tmp_path):
        out = tmp_path / "w.csv"
        code = main([
            "trend", pipeline.labeled, "-o", str(out), "--mode", "instant", "--window", "3",
            "--exclude-undecided", *self.write_strata(pipeline, tmp_path),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = read_trend_csv(fh)
        assert any(r["n_undecided"] > 0 for r in rows)
        for r in rows:
            assert r["pct_others"] is None
            assert r["denominator"] == pytest.approx(r["n_mp"] + r["n_ff"])

    def test_negative_weight_is_a_data_error(self, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "w.csv"), "--mode", "cumulative",
            *self.write_strata(pipeline, tmp_path, weight="-1"),
        ])
        assert code == 4
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_a_data_error(self, weight, pipeline, tmp_path):
        code = main([
            "trend", pipeline.labeled, "-o", str(tmp_path / "w.csv"), "--mode", "cumulative",
            *self.write_strata(pipeline, tmp_path, weight=weight),
        ])
        assert code == 4
        assert not (tmp_path / "w.csv").exists()

    def test_header_after_comments_and_blank_lines(self, pipeline, tmp_path):
        flags = self.write_strata(pipeline, tmp_path)
        argv = ["trend", pipeline.labeled, "--mode", "cumulative"]
        assert main([*argv, "-o", str(tmp_path / "plain.csv"), *flags]) == 0
        for path in flags[1::2]:
            with open(path, encoding="utf-8") as fh:
                body = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# exported 2019-08-11\n\n" + body)
        assert main([*argv, "-o", str(tmp_path / "commented.csv"), *flags]) == 0
        assert (tmp_path / "commented.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_sweep_t0_beyond_corpus_rejected(self, pipeline, tmp_path):
        code = main([
            "sweep", pipeline.labeled, "-o", str(tmp_path / "s"), "--t0-list", "1,400",
        ])
        assert code == 2


class TestHashtagsCommand:
    def test_labeled_input_gets_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        code = main([
            "hashtags", pipeline.labeled, "-o", base, "--min-count", "2",
        ])
        assert code == 0
        root = ET.parse(base + ".graphml").getroot()
        assert len(root.findall(".//{http://graphml.graphdrawing.org/xmlns}node")) > 0
        assert "graph hashtags {" in open(base + ".dot").read()
        clouds = open(base + ".clouds.csv").read().splitlines()
        assert clouds[0] == "camp,rank,tag,count"
        assert len(clouds) > 1

    @pytest.mark.parametrize("dedup", [False, True])
    def test_one_pass_equals_the_two_pass_library_result(self, dedup, pipeline, tmp_path):
        base = str(tmp_path / "net")
        flags = ["--dedup-users"] if dedup else []
        assert main(["hashtags", pipeline.labeled, "-o", base, "--min-count", "2", "--top-k", "5", *flags]) == 0
        with open(pipeline.labeled, encoding="utf-8") as fh:
            records = [parse_record(line) for line in fh]
        counts = hashtags.TagCounts(records, dedup)
        graph = counts.graph(2)
        partition = hashtags.partition_graph(graph)
        clouds = counts.clouds()
        for suffix, write in (
            (".graphml", lambda fh: hashtags.write_graphml(graph, fh, partition)),
            (".dot", lambda fh: hashtags.write_dot(graph, fh, partition)),
            (".clouds.csv", lambda fh: hashtags.write_clouds_csv(clouds, fh, top_k=5)),
        ):
            expected = io.StringIO()
            write(expected)
            with open(base + suffix, "rb") as fh:
                assert fh.read() == expected.getvalue().encode("utf-8"), suffix

    def test_unlabeled_input_skips_clouds(self, pipeline, tmp_path):
        base = str(tmp_path / "net")
        assert main(["hashtags", pipeline.clean, "-o", base, "--min-count", "2"]) == 0
        assert not (tmp_path / "net.clouds.csv").exists()


class TestSynthCommand:
    def test_spec_file_round_trip(self, tmp_path):
        spec = ElectorateSpec(n_users=12, n_days=4, rng_seed=77)
        spec_path = tmp_path / "in.spec.json"
        spec.save(str(spec_path))
        corpus = tmp_path / "c.jsonl"
        assert main(["synth", "-o", str(corpus), "--spec", str(spec_path)]) == 0
        echo = json.load(open(str(corpus) + ".spec.json"))
        assert ElectorateSpec.from_dict(echo) == spec
        truth_lines = open(str(corpus) + ".truth.csv").read().splitlines()
        assert len(truth_lines) == 13

    def test_inline_drift_flag(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        code = main([
            "synth", "-o", str(corpus),
            "--users", "6", "--days", "9",
            "--drift", "4:0.2,0.6,0.2;7:0.1,0.8,0.1",
        ])
        assert code == 0
        echo = json.load(open(str(corpus) + ".spec.json"))
        assert echo["drift"] == {"4": [0.2, 0.6, 0.2], "7": [0.1, 0.8, 0.1]}

    def test_gzip_output_matches_plain(self, tmp_path):
        plain = tmp_path / "a.jsonl"
        packed = tmp_path / "b.jsonl.gz"
        for path in (plain, packed):
            assert main([
                "synth", "-o", str(path), "--users", "15", "--days", "4", "--seed", "9",
            ]) == 0
        assert gzip.open(packed, "rb").read() == plain.read_bytes()

    def test_gzip_output_is_reproducible(self, tmp_path):
        digests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            result = run_cli(["synth", "-o", "s.jsonl.gz", "--users", "5", "--days", "3", "--seed", "1"], tmp_path / name)
            assert result.returncode == 0, result.stderr
            digests.append(hashlib.sha256((tmp_path / name / "s.jsonl.gz").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "flags",
        [["--users", "0"], ["--users", "5", "--mean-rate", "nan"], ["--users", "5", "--mean-rate", "inf"],
         ["--users", "5", "--rate-shape", "nan"], ["--users", "20", "--mix", "1,nan,0"],
         ["--users", "20", "--drift", "2:1,nan,0"], ["--users", "20", "--bot-fraction", "0.1", "--bot-rate", "-1"]],
        ids=["no-users", "nan-rate", "inf-rate", "nan-shape", "nan-mix", "nan-drift", "negative-bot-rate"],
    )
    def test_bad_spec_flags_exit_4(self, flags, tmp_path):
        result = run_cli(["synth", "-o", "c.jsonl", "--days", "3", *flags], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "invalid electorate spec: " in result.stderr
        assert not list(tmp_path.iterdir())

    def test_spec_file_without_users_exits_4(self, tmp_path):
        ElectorateSpec(n_users=0, n_days=3).save(str(tmp_path / "s.json"))
        result = run_cli(["synth", "-o", "c.jsonl", "--spec", "s.json"], tmp_path)
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert "invalid electorate spec: need n_users >= 1" in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_gzip_corpus_accepted_downstream(self, tmp_path):
        packed = tmp_path / "c.jsonl.gz"
        clean = tmp_path / "clean.jsonl.gz"
        assert main([
            "synth", "-o", str(packed), "--users", "30", "--days", "6", "--seed", "9",
        ]) == 0
        assert main(["ingest", str(packed), "-o", str(clean)]) == 0
        with gzip.open(clean, "rt") as fh:
            assert sum(1 for _ in fh) > 0


class TestValidateCommand:
    def test_small_spec_passes(self, tmp_path, capsys):
        spec = ElectorateSpec(n_users=2500, n_days=30, mean_rate=0.6, rng_seed=20190811)
        spec_path = tmp_path / "v.spec.json"
        spec.save(str(spec_path))
        code = main([
            "validate", "--spec", str(spec_path),
            "--workdir", str(tmp_path / "work"), "--tolerance", "4.0",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS oracle-equivalence-instant" in out
        assert "PASS ground-truth-recovery" in out
        assert "FAIL" not in out
