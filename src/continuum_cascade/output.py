"""CSV artifact emission and the run manifest.

All floating-point output uses 17 significant digits (%.17g) so artifacts
round-trip exactly and diff cleanly across platforms.  Every file a command
produces is recorded in manifest.json with its sha256 checksum; the manifest
itself contains no timestamps, so identical runs produce identical bytes.
A RunWriter removes any old manifest from its directory before writing, so
a run that fails part way never leaves a manifest vouching for its files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping

MANIFEST = "manifest.json"


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class RunWriter:
    """Collects artifacts for one command invocation and writes the manifest."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / MANIFEST).unlink(missing_ok=True)
        self.checksums: dict[str, str] = {}

    def write_csv(self, name: str, header: str, rows: Iterable[Iterable]) -> Path:
        path = self.out_dir / name
        with open(path, "w", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")
        self.checksums[name] = sha256_file(path)
        return path

    def write_manifest(self, command: str, parameters: Mapping, seed: int | None) -> Path:
        doc = {
            "command": command,
            "parameters": dict(sorted(parameters.items())),
            "seed": seed,
            "files": dict(sorted(self.checksums.items())),
        }
        path = self.out_dir / MANIFEST
        with open(path, "w", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()
