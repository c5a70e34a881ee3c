"""Baseline files: accepted pre-existing findings that don't fail CI.

A baseline entry matches on ``(path, check, message)`` — line numbers
drift with every edit, so they are recorded for humans but ignored when
matching. Matching is multiset-aware: two identical findings in one
file need two baseline entries.

The intended steady state is an *empty* baseline (fix or suppress
everything); the machinery exists so a future PR can land a checker
tightening without first fixing the whole tree.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Optional

from repro.lint.framework import Finding
from repro.telemetry.export import canonical_json, read_json

BASELINE_VERSION = 1


class Baseline:
    """A committed set of accepted findings."""

    def __init__(self, entries: Optional[list[dict]] = None) -> None:
        self.entries = list(entries or [])

    @staticmethod
    def _key(entry: dict) -> tuple[str, str, str]:
        return (entry["path"], entry["check"], entry["message"])

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline.

        A file that does not parse raises
        :class:`~repro.telemetry.export.CorruptJSONError`.
        """
        if not path.exists():
            return cls()
        data = read_json(path)
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r} "
                f"in {path} (expected {BASELINE_VERSION})")
        return cls(data.get("findings", []))

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        return cls([f.to_dict() for f in
                    sorted(findings, key=lambda f: f.sort_key)])

    def to_json(self) -> str:
        """Byte-stable serialization (the file is committed to git)."""
        return canonical_json({
            "version": BASELINE_VERSION,
            "findings": sorted(self.entries, key=self._key),
        }) + "\n"

    def save(self, path: Path) -> None:
        path.write_text(self.to_json(), encoding="utf-8")


def diff_against_baseline(findings: Iterable[Finding], baseline: Baseline
                          ) -> tuple[list[Finding], list[Finding], list[dict]]:
    """Split findings into (new, accepted) and report stale entries.

    ``new`` are findings with no remaining baseline allowance — the CI
    gate fails on them. ``accepted`` matched a baseline entry. ``stale``
    are baseline entries that matched nothing (the code got fixed but
    the baseline wasn't regenerated) — ``--strict`` fails on them too,
    so the baseline can only shrink over time.
    """
    allowance = Counter(Baseline._key(e) for e in baseline.entries)
    new: list[Finding] = []
    accepted: list[Finding] = []
    for finding in sorted(findings, key=lambda f: f.sort_key):
        key = (finding.path, finding.check, finding.message)
        if allowance.get(key, 0) > 0:
            allowance[key] -= 1
            accepted.append(finding)
        else:
            new.append(finding)
    stale = sorted(
        ({"path": path, "check": check, "message": message}
         for (path, check, message), count in allowance.items()
         for _ in range(count)),
        key=lambda e: Baseline._key(e))
    return new, accepted, stale
