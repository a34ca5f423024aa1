"""Run manifests and deterministic CSV serialization.

Every dataset is reproducible from its manifest: the manifest core
(command, fully resolved parameters, preset, tool version) is hashed
canonically, the CSV carries that hash as its first line, and rerunning
the recorded command line yields byte-identical CSV.  Floats are
rendered with ``repr``, the shortest string that round-trips to the
same double.  Every CSV cell and every flag value of the recorded
command line is formatted through one table keyed by the value's exact
type (bool, float, int, str, None); a type outside it raises
``KeyError`` rather than render bytes no test pins.  ``render_csv``
takes the data a column at a time, formats each distinct value of a
column once, and joins all lines once.  Both the hashed payload and the
manifest file are strict JSON (RFC 8259), so a non-finite parameter is a
``ParameterError``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .core import ParameterError


_FORMATS = {
    bool: "01".__getitem__,  # False -> "0", True -> "1"
    float: float.__repr__,
    int: int.__repr__,
    str: str.__str__,
    type(None): lambda _: "",
}


def format_value(value) -> str:
    return _FORMATS[type(value)](value)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one dataset byte for byte.

    ``preset`` is a descriptive label for a recognized default
    parameter set; it is part of the hashed payload but carries no
    reproduction information beyond ``parameters``.
    """

    command: str
    parameters: dict
    preset: str | None = None

    def core_payload(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "preset": self.preset,
            # No dataset is random.  The null seed stays in the payload so
            # that every published manifest hash still holds.
            "seed": None,
            "version": __version__,
        }

    def checksum(self) -> str:
        try:
            canonical = json.dumps(
                self.core_payload(), sort_keys=True, separators=(",", ":"), allow_nan=False
            )
        except ValueError:
            bad = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.parameters.items())
                if isinstance(value, float) and not math.isfinite(value)
            )
            raise ParameterError(f"a manifest records finite parameters only (got {bad})") from None
        return hashlib.sha256(canonical.encode()).hexdigest()

    def command_line(self) -> str:
        parts = ["ramsq", self.command]
        for key in sorted(self.parameters):
            flag = "--" + key.replace("_", "-")
            parts.append(f"{flag} {format_value(self.parameters[key])}")
        return " ".join(parts)


# Number types equal under == across types: True == 1 == 1.0.
_NUMBERS = {bool, int, float}


def _cells(column: Sequence) -> list[str]:
    """One column's cells as text, each distinct value formatted once.

    Values are told apart by type and bits, not by ``==`` alone: a
    column that mixes number types keys each value by its type too, and
    as -0.0 == 0.0 every zero is formatted where it stands.
    """
    kinds = set(map(type, column))
    keys = list(zip(map(type, column), column)) if len(kinds & _NUMBERS) > 1 else column
    distinct = dict(zip(keys, column))
    format_ = _FORMATS[next(iter(kinds))] if len(kinds) == 1 else format_value
    text = dict(zip(distinct, map(format_, distinct.values())))
    cells = list(map(text.__getitem__, keys))
    if float in kinds:
        for i in _zeros(column):
            cells[i] = format_value(column[i])
    return cells


def _zeros(column: Sequence):
    """The indices of the cells equal to 0.0, found by ``index`` scans."""
    i = -1
    while True:
        try:
            i = column.index(0.0, i + 1)
        except ValueError:
            return
        yield i


def render_csv(header: Sequence[str], columns: Sequence[Sequence], manifest: RunManifest) -> bytes:
    """CSV bytes: manifest-checksum comment, header row, data rows.

    ``columns`` holds one sequence of cell values per header entry, all
    of one length.
    """
    lines = [
        f"# manifest-sha256: {manifest.checksum()}",
        ",".join(header),
        *map(",".join, zip(*map(_cells, columns))),
        "",
    ]
    return "\n".join(lines).encode()


def manifest_json(manifest: RunManifest, csv_bytes: bytes) -> bytes:
    payload = dict(manifest.core_payload())
    payload["manifest_sha256"] = manifest.checksum()
    payload["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    payload["command_line"] = manifest.command_line()
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
