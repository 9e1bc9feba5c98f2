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


# rows a CSV writes and hashes at a time
_CHUNK_ROWS = 256


def _line_format(types: tuple[type, ...]) -> str:
    """The %-format of a CSV line whose values have these types, as fmt writes each."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\n"


class RunWriter:
    """Collects artifacts for one command invocation and writes the manifest."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / MANIFEST).unlink(missing_ok=True)
        self.checksums: dict[str, str] = {}

    def write_csv(self, name: str, header: str, rows: Iterable[Iterable]) -> Path:
        """Writes the header and one line per row, each value as fmt writes it.

        A line is one %-format call, its format chosen by the types of the
        row's values; the file is hashed as its chunks are written.
        """
        path = self.out_dir / name
        digest = hashlib.sha256()
        formats: dict[tuple[type, ...], str] = {}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            lines = [header + "\n"]
            for row in rows:
                row = tuple(row)
                types = tuple(map(type, row))
                line = formats.get(types)
                if line is None:
                    line = formats[types] = _line_format(types)
                lines.append(line % row)
                if len(lines) == _CHUNK_ROWS:
                    _write_hashed(fh, digest, lines)
                    lines = []
            _write_hashed(fh, digest, lines)
        self.checksums[name] = digest.hexdigest()
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


def _write_hashed(fh, digest, lines: list[str]) -> None:
    text = "".join(lines)
    digest.update(text.encode())
    fh.write(text)
