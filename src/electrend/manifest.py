"""Run manifests: what was run, on what inputs, producing what outputs.

Each CLI invocation writes a small JSON manifest next to its primary
output so a result can be traced back to the exact inputs and parameters
that produced it, and re-run from the recorded argv. A run writes its
outputs through its manifest, which lists each one and commits them all,
itself last, as one :class:`AtomicFiles` group.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import sha256

from .ingest import AtomicFiles

__all__ = ["RunManifest", "rerun"]

MANIFEST_FORMAT_VERSION = 1
_HASH_BUFFER = 1 << 16


def file_sha256(path: str) -> str:
    """The SHA-256 of a file, read into one reused buffer so that hashing adds nothing to the peak memory."""
    digest = sha256()
    buffer = memoryview(bytearray(_HASH_BUFFER))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(buffer[:n])
    return digest.hexdigest()


def _dump_json(obj: dict, fh) -> None:
    """``obj`` as indented, key-sorted JSON; a non-finite float raises ``ValueError``."""
    json.dump(obj, fh, indent=1, sort_keys=True, allow_nan=False)
    fh.write("\n")


@dataclass
class RunManifest:
    subcommand: str
    argv: list[str]
    parameters: dict = field(default_factory=dict)  # the effective flags and settings
    metrics: dict = field(default_factory=dict)  # what the run found: the facts of its log line
    inputs: dict = field(default_factory=dict)  # label -> {path, sha256}
    outputs: dict = field(default_factory=dict)  # label -> path
    files: AtomicFiles = field(default_factory=AtomicFiles, repr=False, compare=False)

    def add_input(self, label: str, path: str) -> None:
        self.inputs[label] = {"path": path, "sha256": file_sha256(path)}

    def open(self, label: str, path: str, newline: str | None = None):
        """A writer of ``path`` in the run's group of files, listed as output ``label``."""
        self.outputs[label] = path
        return self.files.open(path, newline)

    def write_json(self, label: str, obj: dict, path: str) -> None:
        """``obj`` as JSON to ``path``, listed as output ``label``."""
        with self.open(label, path) as fh:
            _dump_json(obj, fh)

    def to_dict(self) -> dict:
        from . import __version__

        return {
            "manifest_version": MANIFEST_FORMAT_VERSION,
            "tool": "electrend",
            "tool_version": __version__,
            "subcommand": self.subcommand,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "argv": self.argv,
            "parameters": self.parameters,
            "metrics": self.metrics,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    def write(self, path: str) -> None:
        """The manifest itself, to ``path`` in the run's group: the last file opened, so the last renamed."""
        with self.files.open(path) as fh:
            _dump_json(self.to_dict(), fh)


def rerun(manifest_path: str) -> int:
    """Re-invoke the recorded argv with the current interpreter."""
    import subprocess

    with open(manifest_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    version = obj.get("manifest_version")
    if version != MANIFEST_FORMAT_VERSION:
        raise ValueError(f"unsupported manifest version: {version!r}")
    argv = obj["argv"]
    command = [sys.executable, "-m", "electrend", *argv]
    return subprocess.call(command)
