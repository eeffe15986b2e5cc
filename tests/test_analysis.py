"""Tests for repro.analysis: the `repro lint` static-analysis pass.

Checker behaviour is exercised two ways: inline snippets (parsed with
``SourceFile.parse``) for targeted positive/negative cases, and the
on-disk corpus under ``tests/lint_fixtures/`` for end-to-end runs
through ``lint_paths`` (which is also what CI's lint self-test uses).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Diagnostic,
    LintReport,
    SourceFile,
    all_checkers,
    all_codes,
    iter_python_files,
    lint_paths,
    lint_sources,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO = Path(__file__).parent.parent


def codes_of(report: LintReport) -> list[str]:
    return [d.code for d in report.diagnostics]


def lint_text(text: str, display: str = "snippet.py") -> LintReport:
    return lint_sources([SourceFile.parse(text, display)])


# ---------------------------------------------------------------------------
# framework: diagnostics, suppressions, discovery, report schema
# ---------------------------------------------------------------------------


class TestFramework:
    def test_diagnostic_format(self):
        d = Diagnostic("src/x.py", 3, 7, "RPR101", "boom", "determinism")
        assert d.format() == "src/x.py:3:7 RPR101 boom"

    def test_syntax_error_is_rpr001_not_crash(self):
        report = lint_text("def broken(:\n")
        assert codes_of(report) == ["RPR001"]
        assert not report.ok

    def test_all_codes_covers_every_family(self):
        codes = all_codes()
        for code in ("RPR001", "RPR002", "RPR101", "RPR102", "RPR103",
                     "RPR104", "RPR201", "RPR202", "RPR203", "RPR204",
                     "RPR401", "RPR402", "RPR403", "RPR404"):
            assert code in codes, code
        # the RPR3xx (concurrency) family is retired, never reused
        assert not [c for c in codes if c.startswith("RPR3")]

    def test_same_line_suppression(self):
        report = lint_text("import time\nt = time.time()  # repro: ignore[RPR102]\n")
        assert report.ok
        assert report.suppressed == 1
        assert report.suppressions_used == [("snippet.py", 2, "RPR102")]

    def test_comment_line_above_suppression(self):
        report = lint_text(
            "import time\n"
            "# repro: ignore[RPR102] — justified\n"
            "t = time.time()\n"
        )
        assert report.ok and report.suppressed == 1

    def test_multi_code_suppression(self):
        report = lint_text(
            "import time\n"
            "# repro: ignore[RPR102, RPR104]\n"
            "t = hash(time.time())\n"
        )
        assert report.ok and report.suppressed == 2

    def test_suppression_does_not_leak_to_other_lines(self):
        report = lint_text(
            "import time\n"
            "a = time.time()  # repro: ignore[RPR102]\n"
            "b = time.time()\n"
        )
        assert codes_of(report) == ["RPR102"]
        assert report.diagnostics[0].line == 3

    def test_wrong_code_suppression_does_not_apply(self):
        report = lint_text("t = hash(1)  # repro: ignore[RPR102]\n")
        assert codes_of(report) == ["RPR104"]

    def test_blanket_ignore_rejected(self):
        report = lint_text("import time\nt = time.time()  # repro: ignore\n")
        assert "RPR002" in codes_of(report)
        assert "RPR102" in codes_of(report)  # and nothing got hidden

    def test_malformed_codes_rejected(self):
        report = lint_text("x = 1  # repro: ignore[NOTACODE]\n")
        assert codes_of(report) == ["RPR002"]

    def test_select_filters_codes(self):
        text = "import time\nt = hash(time.time())\n"
        report = lint_sources(
            [SourceFile.parse(text, "s.py")], select=lambda c: c == "RPR104"
        )
        assert codes_of(report) == ["RPR104"]

    def test_iter_python_files_skips_fixture_and_cache_dirs(self):
        found = list(iter_python_files([str(REPO / "tests")]))
        assert all("lint_fixtures" not in p.parts for p in found)
        assert all("__pycache__" not in p.parts for p in found)
        assert any(p.name == "test_analysis.py" for p in found)

    def test_iter_python_files_explicit_file_bypasses_skip(self):
        target = FIXTURES / "seeded_violation.py"
        assert list(iter_python_files([str(target)])) == [target]

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["no/such/dir"]))

    def test_json_report_schema(self):
        report = lint_text("import time\nt = time.time()\n")
        payload = json.loads(report.to_json())
        assert payload["version"] == 1
        assert payload["tool"] == "repro-lint"
        assert payload["files"] == 1
        assert payload["counts"] == {"RPR102": 1}
        assert payload["suppressed"] == 0
        (diag,) = payload["diagnostics"]
        assert set(diag) == {"path", "line", "col", "code", "message", "checker"}
        assert diag["code"] == "RPR102" and diag["line"] == 2

    def test_text_report_summary_line(self):
        clean = lint_text("x = 1\n")
        assert clean.format_text().endswith("1 files checked: clean")
        dirty = lint_text("t = hash(1)\n")
        assert "1 finding (1 RPR104)" in dirty.format_text()

    def test_scope_only_restricts_repro_package_paths(self):
        det = next(c for c in all_checkers() if c.name == "determinism")
        in_scope = SourceFile.parse("x = 1\n", "src/repro/pipeline/engine.py")
        out_of_scope = SourceFile.parse("x = 1\n", "src/repro/nn/layers.py")
        external = SourceFile.parse("x = 1\n", "tests/test_foo.py")
        assert det.applies_to(in_scope)
        assert not det.applies_to(out_of_scope)
        assert det.applies_to(external)


# ---------------------------------------------------------------------------
# determinism checker (RPR1xx)
# ---------------------------------------------------------------------------


class TestDeterminismChecker:
    def test_fixture_positives(self):
        report = lint_paths([FIXTURES / "determinism_bad.py"])
        counts = report.counts
        assert counts["RPR101"] == 3
        assert counts["RPR102"] == 2
        assert counts["RPR103"] == 2
        assert counts["RPR104"] == 1

    def test_fixture_negatives(self):
        report = lint_paths([FIXTURES / "determinism_ok.py"])
        assert report.ok, report.format_text()

    @pytest.mark.parametrize(
        "snippet,code",
        [
            ("import random\nrandom.shuffle(xs)\n", "RPR101"),
            ("import random\nr = random.Random()\n", "RPR101"),
            ("import numpy as np\nnp.random.seed(0)\n", "RPR101"),
            ("from numpy.random import default_rng\nr = default_rng()\n", "RPR101"),
            ("import uuid\nu = uuid.uuid4()\n", "RPR101"),
            ("import secrets\nt = secrets.token_hex()\n", "RPR101"),
            ("from time import time\nt = time()\n", "RPR102"),
            ("from datetime import datetime\nd = datetime.utcnow()\n", "RPR102"),
            ("for x in {1, 2}:\n    print(x)\n", "RPR103"),
            ("ys = [f(x) for x in set(xs)]\n", "RPR103"),
            ("h = hash('key')\n", "RPR104"),
        ],
    )
    def test_positive_snippets(self, snippet, code):
        assert code in codes_of(lint_text(snippet))

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nr = random.Random(42)\n",
            "import numpy as np\nr = np.random.default_rng(7)\n",
            "import time\nt = time.perf_counter()\n",
            "for x in sorted({1, 2}):\n    print(x)\n",
            "n = len(set(xs))\n",
            "ys = sorted(f(x) for x in set(xs))\n",
            "zs = {f(x) for x in set(xs)}\n",  # set-from-set is order-free
            "import hashlib\nh = hashlib.sha256(b'key')\n",
        ],
    )
    def test_negative_snippets(self, snippet):
        report = lint_text(snippet)
        assert report.ok, report.format_text()


# ---------------------------------------------------------------------------
# spec-hash checker (RPR2xx)
# ---------------------------------------------------------------------------


class TestSpecHashChecker:
    def test_fixture_positives(self):
        report = lint_paths([FIXTURES / "spec_hash_bad.py"])
        counts = report.counts
        assert counts["RPR201"] == 2  # ForgotToHash.new_knob, StaleKey.layers
        assert counts["RPR202"] == 1  # StaleKey.removed_field
        assert counts["RPR203"] == 1  # LossyRoundTrip.c
        assert counts["RPR204"] == 1  # Unverifiable

    def test_fixture_negatives(self):
        report = lint_paths([FIXTURES / "spec_hash_ok.py"])
        assert report.ok, report.format_text()

    def test_unhashed_field_on_runspec_like_copy_is_caught(self):
        """The acceptance scenario: clone RunSpec's hashing shape, add a
        field without folding it into the hash payload — RPR201 fires."""
        spec_src = (REPO / "src/repro/orchestrator/spec.py").read_text()
        assert "asdict(self)" in spec_src  # real RunSpec is hash-complete
        snippet = (
            "import hashlib, json\n"
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RunSpecCopy:\n"
            "    layers: int\n"
            "    seed: int\n"
            "    forgotten_knob: float\n"
            "    def to_dict(self):\n"
            "        return {'layers': self.layers, 'seed': self.seed}\n"
            "    @property\n"
            "    def spec_hash(self):\n"
            "        payload = dict(self.to_dict(), _schema=3)\n"
            "        raw = json.dumps(payload, sort_keys=True)\n"
            "        return hashlib.blake2b(raw.encode()).hexdigest()\n"
        )
        report = lint_text(snippet)
        assert [d.code for d in report.diagnostics] == ["RPR201"]
        assert "forgotten_knob" in report.diagnostics[0].message

    def test_asdict_covers_future_fields(self):
        snippet = (
            "import hashlib\n"
            "from dataclasses import asdict, dataclass\n"
            "@dataclass\n"
            "class Spec:\n"
            "    a: int\n"
            "    later_addition: str\n"
            "    def spec_hash(self):\n"
            "        payload = asdict(self)\n"
            "        return hashlib.blake2b(repr(payload).encode()).hexdigest()\n"
        )
        assert lint_text(snippet).ok

    def test_classvar_fields_not_required_in_hash(self):
        snippet = (
            "import hashlib\n"
            "from dataclasses import dataclass\n"
            "from typing import ClassVar\n"
            "@dataclass\n"
            "class Spec:\n"
            "    SCHEMA: ClassVar[int] = 1\n"
            "    a: int\n"
            "    def spec_hash(self):\n"
            "        payload = {'a': self.a}\n"
            "        return hashlib.blake2b(repr(payload).encode()).hexdigest()\n"
        )
        assert lint_text(snippet).ok

    def test_real_runspec_passes(self):
        report = lint_paths([REPO / "src/repro/orchestrator/spec.py"])
        assert report.ok, report.format_text()


# ---------------------------------------------------------------------------
# facade checker (RPR4xx)
# ---------------------------------------------------------------------------


class TestFacadeChecker:
    def test_fixture_positives(self):
        report = lint_paths([FIXTURES / "facadepkg" / "__init__.py"])
        counts = report.counts
        assert counts["RPR401"] == 1  # never_imported
        assert counts["RPR402"] == 1  # vanished
        assert counts["RPR403"] == 1  # old_entry_point
        assert counts["RPR404"] == 1  # older_entry_point

    def test_fixture_negatives(self):
        report = lint_paths([FIXTURES / "facadepkg_ok" / "__init__.py"])
        assert report.ok, report.format_text()

    def test_all_entry_bound_by_def_or_import(self):
        snippet = "def f():\n    pass\n__all__ = ['f', 'g']\n"
        report = lint_text(snippet)
        assert codes_of(report) == ["RPR401"]
        assert "'g'" in report.diagnostics[0].message

    def test_deprecated_with_proper_warn_is_clean(self):
        snippet = (
            "import warnings\n"
            "def old():\n"
            "    \"\"\"Deprecated: use new().\"\"\"\n"
            "    warnings.warn('old', DeprecationWarning, stacklevel=2)\n"
        )
        assert lint_text(snippet).ok

    def test_real_facades_pass(self):
        report = lint_paths(
            [REPO / "src/repro/__init__.py", REPO / "src/repro/api.py"]
        )
        assert report.ok, report.format_text()


# ---------------------------------------------------------------------------
# end-to-end: the gate itself
# ---------------------------------------------------------------------------


class TestLintGate:
    def test_src_tree_is_clean(self):
        report = lint_paths([REPO / "src"])
        assert report.ok, report.format_text()
        assert report.files_checked > 50

    def test_seeded_violation_file_fails(self):
        report = lint_paths([FIXTURES / "seeded_violation.py"])
        assert not report.ok
        families = {c[:4] for c in report.counts}
        assert families == {"RPR1", "RPR2", "RPR4"}
        assert len(report.diagnostics) == 6

    def test_suppressed_fixture_is_clean_with_two_suppressions(self):
        report = lint_paths([FIXTURES / "suppressed_ok.py"])
        assert report.ok
        assert report.suppressed == 2

    def test_cli_exit_codes_and_json_artifact(self, tmp_path):
        out = tmp_path / "report.json"
        env_src = str(REPO / "src")
        ok = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint",
             str(FIXTURES / "suppressed_ok.py"), "--json", str(out)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert ok.returncode == 0, ok.stdout + ok.stderr
        payload = json.loads(out.read_text())
        assert payload["tool"] == "repro-lint" and payload["suppressed"] == 2

        bad = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint",
             str(FIXTURES / "seeded_violation.py")],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert bad.returncode == 1
        assert "RPR101" in bad.stdout

    def test_cli_rejects_unknown_select_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--select", "RPR999",
             str(FIXTURES / "suppressed_ok.py")],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode != 0
        assert "RPR999" in result.stderr
