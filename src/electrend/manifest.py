"""Run manifests: what was run, on what inputs, producing what outputs.

Each CLI invocation writes a small JSON manifest next to its primary
output so a result can be traced back to the exact inputs and parameters
that produced it, and re-run from the recorded argv.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from hashlib import sha256

from .ingest import atomic_text

__all__ = ["RunManifest", "write_json_atomic", "rerun"]

MANIFEST_FORMAT_VERSION = 1
_HASH_CHUNK = 1 << 20


def file_sha256(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def write_json_atomic(obj: dict, path: str) -> None:
    """Write ``obj`` as indented, key-sorted JSON through the atomic writer."""
    with atomic_text(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass
class RunManifest:
    subcommand: str
    argv: list[str]
    parameters: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # label -> {path, sha256}
    outputs: dict = field(default_factory=dict)  # label -> path

    def add_input(self, label: str, path: str) -> None:
        self.inputs[label] = {"path": path, "sha256": file_sha256(path)}

    def add_output(self, label: str, path: str) -> None:
        self.outputs[label] = path

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
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    def write(self, path: str) -> None:
        write_json_atomic(self.to_dict(), path)


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
