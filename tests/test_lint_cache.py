"""Incremental lint cache: hits, invalidation, and the contract that
the cache never changes what comes out — only when work happens."""

import json
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.lint import all_checkers, all_project_checkers, lint_tree
from repro.lint.cache import CACHE_VERSION, LintCache, lint_fingerprint

DIRTY = textwrap.dedent("""\
    import time


    def stamp():
        return time.time()
""")

CLEAN = textwrap.dedent("""\
    def stamp(env):
        return env.now
""")


@pytest.fixture
def tree(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro" / "faas"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCacheBehavior:
    def test_second_run_hits(self, tree):
        from pathlib import Path
        cache = LintCache(tree / "cache.json")
        lint_tree([Path("src")], all_checkers(), all_project_checkers(),
                  cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        cache.save()
        warm = LintCache(tree / "cache.json")
        lint_tree([Path("src")], all_checkers(), all_project_checkers(),
                  cache=warm)
        assert warm.hits == 2 and warm.misses == 0

    def test_warm_findings_identical_to_cold(self, tree):
        from pathlib import Path
        cold = lint_tree([Path("src")], all_checkers(),
                         all_project_checkers(), cache=None)
        cache = LintCache(tree / "cache.json")
        lint_tree([Path("src")], all_checkers(), all_project_checkers(),
                  cache=cache)
        cache.save()
        warm_cache = LintCache(tree / "cache.json")
        warm = lint_tree([Path("src")], all_checkers(),
                         all_project_checkers(), cache=warm_cache)
        assert warm_cache.hits == 2
        assert [f.to_dict() for f in warm] == [f.to_dict() for f in cold]

    def test_edited_file_misses_and_reflects_change(self, tree):
        from pathlib import Path
        cache = LintCache(tree / "cache.json")
        first = lint_tree([Path("src")], all_checkers(),
                          all_project_checkers(), cache=cache)
        cache.save()
        assert any(f.check == "DET001" for f in first)
        (tree / "src/repro/faas/dirty.py").write_text(CLEAN)
        warm = LintCache(tree / "cache.json")
        second = lint_tree([Path("src")], all_checkers(),
                           all_project_checkers(), cache=warm)
        assert warm.hits == 1 and warm.misses == 1
        assert not any(f.check == "DET001" for f in second)

    def test_corrupt_cache_is_cold_not_fatal(self, tree):
        from pathlib import Path
        (tree / "cache.json").write_text("{definitely not json")
        cache = LintCache(tree / "cache.json")
        findings = lint_tree([Path("src")], all_checkers(),
                             all_project_checkers(), cache=cache)
        assert cache.misses == 2
        assert any(f.check == "DET001" for f in findings)

    def test_fingerprint_mismatch_discards_entries(self, tree):
        from pathlib import Path
        cache = LintCache(tree / "cache.json")
        lint_tree([Path("src")], all_checkers(), all_project_checkers(),
                  cache=cache)
        cache.save()
        # Simulate a checker edit: stored fingerprint no longer matches.
        payload = json.loads((tree / "cache.json").read_text())
        payload["fingerprint"] = "0" * 64
        (tree / "cache.json").write_text(json.dumps(payload))
        stale = LintCache(tree / "cache.json")
        assert stale.entries == {}

    def test_version_mismatch_discards_entries(self, tree):
        from pathlib import Path
        cache = LintCache(tree / "cache.json")
        lint_tree([Path("src")], all_checkers(), all_project_checkers(),
                  cache=cache)
        cache.save()
        payload = json.loads((tree / "cache.json").read_text())
        payload["version"] = CACHE_VERSION + 1
        (tree / "cache.json").write_text(json.dumps(payload))
        assert LintCache(tree / "cache.json").entries == {}

    def test_fingerprint_is_stable_within_a_process(self):
        assert lint_fingerprint() == lint_fingerprint()


class TestCliCacheStates:
    """Every output mode is byte-identical cold, warm, and uncached."""

    @pytest.mark.parametrize("flag", [None, "--json", "--sarif"])
    def test_output_independent_of_cache_state(self, tree, capsys, flag):
        argv = ["lint", "src"] + ([flag] if flag else [])
        outputs = []
        assert main(argv) == 0  # cold: writes .repro-lint-cache.json
        outputs.append(capsys.readouterr().out)
        assert main(argv) == 0  # warm
        outputs.append(capsys.readouterr().out)
        assert main(argv + ["--no-cache"]) == 0  # uncached
        outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_corrupt_cache_is_noted_on_stderr_only(self, tree, capsys):
        assert main(["lint", "src", "--no-cache"]) == 0
        uncached = capsys.readouterr()
        assert uncached.err == ""
        (tree / ".repro-lint-cache.json").write_text("{definitely not json")
        assert main(["lint", "src"]) == 0
        corrupt = capsys.readouterr()
        assert corrupt.out == uncached.out
        note = corrupt.err.splitlines()
        assert len(note) == 1
        assert note[0].startswith("repro lint: ignoring unreadable cache (")
        assert "corrupt JSON at line 1 column 2" in note[0]
        # The run rewrote the cache: the next one is warm and silent.
        assert main(["lint", "src"]) == 0
        assert capsys.readouterr() == (uncached.out, "")

    def test_time_budget_gate(self, tree, capsys):
        assert main(["lint", "src", "--max-seconds", "60"]) == 0
        capsys.readouterr()
        assert main(["lint", "src", "--max-seconds", "0"]) == 1
        assert "time budget exceeded" in capsys.readouterr().err


class TestDiscoveryOrderDeterminism:
    """Findings are a function of the file *set*, not argv order."""

    @given(order=st.permutations(range(2)))
    def test_path_order_invariant(self, tmp_path_factory, order):
        from pathlib import Path
        base = tmp_path_factory.mktemp("shuffle")
        pkg = base / "src" / "repro" / "faas"
        pkg.mkdir(parents=True, exist_ok=True)
        (pkg / "dirty.py").write_text(DIRTY)
        (pkg / "clean.py").write_text(CLEAN)
        files = [pkg / "dirty.py", pkg / "clean.py"]
        baseline = lint_tree([Path(f) for f in files], all_checkers(),
                             all_project_checkers(), cache=None)
        shuffled = [files[i] for i in order]
        again = lint_tree([Path(f) for f in shuffled], all_checkers(),
                          all_project_checkers(), cache=None)
        assert [f.to_dict() for f in again] \
            == [f.to_dict() for f in baseline]
