"""Incremental lint cache: skip phase 1 for unchanged files.

The strict gate runs on every CI push and, increasingly, on every local
commit; as the tree grows, re-parsing ~200 files to re-derive identical
findings is the dominant cost. The cache stores each file's phase-1
products — raw findings, the :mod:`repro.lint.project` module index,
and the suppression table — keyed by the file's content SHA-256.
Phase 2 (the whole-program checkers) always runs fresh from the
indexes, so cross-module findings can never go stale.

Two invalidation rules, both total:

* **Per file** — any content change flips the SHA and the entry is
  recomputed. Renames miss (the key includes the display path) and
  deletions are dropped on save (only looked-up-or-stored entries are
  written back).
* **Per lint version** — the cache embeds a fingerprint hashed over the
  source of the ``repro.lint`` package itself; editing any checker
  discards the whole cache. No manual schema bumps to forget.

The cache changes *when* work happens, never *what* comes out: output
is byte-identical with a cold, warm, or absent cache (property-tested).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from repro.lint.framework import Finding, Suppression
from repro.telemetry.export import read_json

CACHE_VERSION = 1


def lint_fingerprint() -> str:
    """SHA-256 over the ``repro.lint`` package's own sources.

    Any edit to a checker, the framework, or the index format changes
    the fingerprint and invalidates every cached entry — the cache can
    never serve findings computed by a different analyzer.
    """
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_dir.glob("*.py"),
                         key=lambda p: p.name):
        digest.update(source.name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def file_sha(source_bytes: bytes) -> str:
    return hashlib.sha256(source_bytes).hexdigest()


class LintCache:
    """Per-file phase-1 memo, persisted as plain JSON."""

    def __init__(self, path: Path, fingerprint: Optional[str] = None
                 ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint or lint_fingerprint()
        self.entries: dict[str, dict] = {}
        self._live: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = read_json(self.path)
        except (OSError, ValueError) as error:
            # A corrupt cache is a cold cache. Say so on stderr only:
            # stdout must not depend on the cache's state.
            print(f"repro lint: ignoring unreadable cache ({error})",
                  file=sys.stderr)
            return
        if data.get("version") != CACHE_VERSION \
                or data.get("fingerprint") != self.fingerprint:
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self.entries = entries

    def lookup(self, display_path: str, source_bytes: bytes
               ) -> Optional[tuple[list[Finding], dict,
                                   dict[int, Suppression]]]:
        """Cached (findings, index, suppressions) for an unchanged file."""
        entry = self.entries.get(display_path)
        if entry is None or entry.get("sha") != file_sha(source_bytes):
            self.misses += 1
            return None
        self.hits += 1
        self._live[display_path] = entry
        findings = [Finding.from_dict(f) for f in entry["findings"]]
        suppressions = {s["line"]: Suppression.from_dict(s)
                        for s in entry["suppressions"]}
        return findings, entry["index"], suppressions

    def store(self, display_path: str, source_bytes: bytes,
              findings: list[Finding], index: dict,
              suppressions: dict[int, Suppression]) -> None:
        entry = {
            "sha": file_sha(source_bytes),
            "findings": [f.to_dict() for f in findings],
            "index": index,
            "suppressions": [suppressions[line].to_dict()
                             for line in sorted(suppressions)],
        }
        self.entries[display_path] = entry
        self._live[display_path] = entry

    def save(self) -> None:
        """Write back only the entries this run touched (drops deletions).

        The cache is a private scratch file, not an artifact: plain
        ``json.dumps`` is deliberate, and byte-stability of *lint
        output* never depends on this file's bytes.
        """
        payload = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "entries": {path: self._live[path]
                        for path in sorted(self._live)},
        }
        try:
            self.path.write_text(
                json.dumps(payload, sort_keys=True),  # repro-lint: disable=ARCH002 private scratch cache, not a committed artifact
                encoding="utf-8")
        except OSError:
            pass  # read-only tree: run uncached next time
