"""The entry points import the standard library and ``repro`` only.

``pyproject.toml`` declares no runtime dependencies.  A third-party
package on an entry point's import path, even a soft ``try: import``,
costs every process its import time and memory wherever it happens to
be installed: each ``repro fuzz`` or ``repro analyze``, and each
checkpoint-verifier child a durable campaign spawns and waits for.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

ENTRY_POINTS = [
    "repro.cli",
    "repro.fuzz.campaign",
    "repro.fuzz.journal",
    "repro.analysis.statediff",  # the checkpoint verifier's child
    "repro.analysis.speclint",
    "repro.analysis.selflint",
    "repro.analysis.resetlint",
    "repro.analysis.durlint",
    "repro.analysis.hotlint",
]

# Modules the bare interpreter already loaded (``.pth`` hooks such as
# ``_distutils_hack``) are not the entry points' doing, so only the
# modules these imports add are checked.
SCRIPT = """\
import importlib, json, sys
before = set(sys.modules)
for name in %r:
    importlib.import_module(name)
files = {}
for name in set(sys.modules) - before:
    module = sys.modules[name]
    paths = [getattr(module, "__file__", None) or ""]
    paths += list(getattr(module, "__path__", None) or ())
    files[name] = paths
print(json.dumps(files))
""" % (ENTRY_POINTS,)


def test_entry_points_import_nothing_from_site_packages():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    files = json.loads(proc.stdout)
    assert "repro.analysis.statediff" in files
    third_party = sorted(
        name for name, paths in files.items()
        if any(part in ("site-packages", "dist-packages")
               for path in paths for part in pathlib.PurePath(path).parts))
    assert third_party == []
