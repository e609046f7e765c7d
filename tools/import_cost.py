"""The import cost of ``localsmith.cli``, which every CLI call pays first.

Usage (from any directory):

    python3 tools/import_cost.py

It copies the modules of ``src/localsmith`` into a temporary directory, so
that no bytecode cache is read unless this script writes one, and prints
four lines, each timing the median of 15 runs:

- ``process``: a fresh ``python -S -c "import localsmith.cli"`` process with
  bytecode writing off, interpreter start-up included;
- ``source``: an in-process re-import with bytecode writing off, which
  compiles every module, as the benchmark's set-up does in a checkout with
  no ``__pycache__``;
- ``cached``: an in-process re-import from cached bytecode;
- ``loaded``: which of ``dataclasses``, ``inspect`` and ``typing`` the
  import of the fresh process loaded.

It gates nothing.
"""

import compileall
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

RUNS = 15
WATCHED = ("dataclasses", "inspect", "typing")
SRC = Path(__file__).resolve().parent.parent / "src" / "localsmith"


def child(root: str, code: str) -> tuple[float, str]:
    """Seconds and stdout of one fresh ``python -S -c code`` process over
    ``root``, with bytecode writing off."""
    env = dict(os.environ, PYTHONPATH=root, PYTHONDONTWRITEBYTECODE="1")
    start = perf_counter()
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return perf_counter() - start, run.stdout


def reimport(root: str) -> float:
    """Seconds of one in-process import of ``localsmith.cli`` from ``root``."""
    for name in [n for n in sys.modules if n == "localsmith" or n.startswith("localsmith.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("localsmith.cli")
    elapsed = perf_counter() - start
    if not cli.__file__.startswith(root):
        raise SystemExit(f"imported localsmith from {cli.__file__}, not from {root}")
    return elapsed


def median_ms(runs) -> float:
    return 1000 * statistics.median(runs() for _ in range(RUNS))


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        package = Path(root) / "localsmith"
        package.mkdir()
        for path in SRC.glob("*.py"):
            shutil.copy(path, package)
        process = median_ms(lambda: child(root, "import localsmith.cli")[0])
        probe = f"import sys, localsmith.cli; print(*(m for m in {WATCHED} if m in sys.modules))"
        loaded = child(root, probe)[1].split()
        sys.path.insert(0, root)
        sys.dont_write_bytecode = True
        source = median_ms(lambda: reimport(root))
        compileall.compile_dir(package, quiet=1)
        importlib.invalidate_caches()
        cached = median_ms(lambda: reimport(root))
    print(f"process {process:8.2f} ms  fresh python -S -c 'import localsmith.cli', no bytecode")
    print(f"source  {source:8.2f} ms  in-process re-import, every module compiled")
    print(f"cached  {cached:8.2f} ms  in-process re-import from cached bytecode")
    print(f"loaded  {' '.join(loaded) or '-'}  (of {', '.join(WATCHED)})")


if __name__ == "__main__":
    main()
