"""Every module under ``src/repro`` is reached from ``repro.cli`` or
``repro.api``, and every name the perfbench tracer wraps exists.

A module no command imports is code that only its own tests keep
alive.  Importing the two entry points loads every module except the
few that one command imports lazily, named in ``LAZY``, and the known
orphans in ``ORPHANS`` that are still waiting for removal.

``perfbench/layers.py`` wraps entry points by module and attribute
name; a renamed or deleted one fails its ``install`` with a
``KeyError``/``AttributeError``, which this test reports instead of a
benchmark child that dies before writing its result.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

#: packages and modules a single command imports on demand
LAZY = (
    "repro.analysis",  # repro lint
    "repro.pipeline.visualize",  # repro gantt
)

#: modules no command reaches yet, each waiting for its own removal
#: (ROADMAP.md); this list only shrinks
ORPHANS: tuple[str, ...] = ()


def _is_lazy(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in LAZY)


def _source_modules() -> set[str]:
    names = set()
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.add(".".join(parts))
    return names


def _loaded_by_entry_points() -> set[str]:
    probe = (
        "import sys, repro.cli, repro.api; "
        "print('\\n'.join(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
    return set(result.stdout.split())


def test_entry_points_load_every_module():
    unreached = _source_modules() - _loaded_by_entry_points()
    orphans = sorted(m for m in unreached if not _is_lazy(m))
    assert orphans == sorted(ORPHANS), f"no command reaches {orphans}"


def test_perfbench_tracer_installs():
    probe = (
        "import sys, repro.cli; "
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r}); "
        "import layers; layers.install(layers.Tracer())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
