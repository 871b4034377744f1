"""What a serve process imports.

``python -m repro serve`` and the fleet workers it forks load
``repro.cli`` and what it imports at top level.  The offline
subcommands import the simulator, evaluation, mapping, the baselines
and the checker when they run, so a serve process never pays for them
(DESIGN.md §7, "Import graph").
"""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

#: Offline-only modules (and packages) a serve process must not load.
OFFLINE = (
    "repro.synthesis",
    "repro.evaluation",
    "repro.core.pipeline",
    "repro.core.baselines",
    "repro.core.grouping",
    "repro.core.thresholds",
    "repro.core.triage",
    "repro.core.mapping",
    "repro.ml.kmeans",
    "repro.ml.ocsvm",
    "repro.ml.pca",
    "repro.ml.isolation_forest",
    "repro.tickets.analysis",
    "repro.tickets.processing",
    "repro.features.tfidf",
    "repro.devtools.analyzer",
    "repro.devtools.project",
)

#: ``import repro.cli`` loaded 91 ``repro`` modules when every package
#: init re-exported its submodules; 55 since.
MAX_MODULES = 60


def fresh_interpreter(script: str, *args: str, environ=None) -> str:
    """Run ``script`` with ``args`` in a new interpreter with ``src`` on
    the path, in ``environ`` (default: this process's environment)."""
    environ = os.environ if environ is None else environ
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        check=True,
        env={**environ, "PYTHONPATH": path},
    ).stdout


def test_cli_import_loads_no_offline_module():
    loaded = fresh_interpreter(
        "import sys\n"
        "import repro.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith('repro')))\n"
    ).split()
    offline = [
        module
        for module in loaded
        if any(
            module == name or module.startswith(name + ".")
            for name in OFFLINE
        )
    ]
    assert not offline, f"import repro.cli loads offline modules: {offline}"
    assert "repro.runtime.session" in loaded
    assert len(loaded) <= MAX_MODULES, loaded


def test_blas_import_loads_no_numpy():
    """``repro.__main__`` reads the serve thread count before numpy
    loads, so OpenBLAS has not started its pool yet."""
    loaded = fresh_interpreter(
        "import sys\n"
        "import repro.runtime.blas\n"
        "print(*sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('repro.runtime')))\n"
    ).split()
    assert loaded == ["repro.runtime", "repro.runtime.blas"]


def test_readme_quickstart_imports_run():
    """The README's quick-start code block starts with its imports;
    they must resolve."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(
        r"The same flow in code:\s*```python\n(.*?)```", readme, re.S
    )
    assert block, "README must keep its quick-start code block"
    imports = block.group(1).split("\n\n", 1)[0]
    assert imports.startswith(("from repro", "import repro")), imports
    fresh_interpreter(imports)
