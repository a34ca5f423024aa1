"""Run manifests and deterministic CSV serialization.

Every dataset is reproducible from its manifest: the manifest core
(command, fully resolved parameters, seed, tool version) is hashed
canonically, the CSV carries that hash as its first line, and rerunning
the recorded command line yields byte-identical CSV.  Floats are
rendered with ``repr``, the shortest string that round-trips to the
same double.  Both the hashed payload and the manifest file are strict
JSON (RFC 8259), so a non-finite parameter is a ``ParameterError``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

from . import __version__
from .core import ParameterError


def format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one dataset byte for byte.

    ``preset`` is a descriptive label for a recognized default
    parameter set; it is part of the hashed payload but carries no
    reproduction information beyond ``parameters``.
    """

    command: str
    parameters: dict
    seed: int | None = None
    preset: str | None = None

    def core_payload(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "preset": self.preset,
            "seed": self.seed,
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


def render_csv(header: Sequence[str], rows: Sequence[Sequence], manifest: RunManifest) -> bytes:
    """CSV bytes: manifest-checksum comment, header row, data rows."""
    buf = io.StringIO(newline="")
    buf.write(f"# manifest-sha256: {manifest.checksum()}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(format_value(v) for v in row) + "\n")
    return buf.getvalue().encode()


def manifest_json(manifest: RunManifest, csv_bytes: bytes) -> bytes:
    payload = dict(manifest.core_payload())
    payload["manifest_sha256"] = manifest.checksum()
    payload["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    payload["command_line"] = manifest.command_line()
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()
