"""Run the benchmark: one workload, or every workload with ``--workload all``.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-feed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A single-workload run prints one line per metric and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload untraced and traced,
each in its own process, prints every metric with its workload and unit,
and exits 1 if any output check failed.

The program under test is imported from ``src/`` next to this directory;
nothing is installed.  Files the run leaves behind go under ``.perfbench/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_paths() -> bool:
    """Put the checkout's ``src`` and the benchmark package first on the
    path; False when the checkout has no program to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != Path(here)]
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)
    return True


if __name__ == "__main__":
    if not _import_paths():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    from perfbench.harness import main

    raise SystemExit(main(sys.argv[1:]))
