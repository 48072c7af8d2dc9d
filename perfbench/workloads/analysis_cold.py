"""``analysis-cold``: the static analyser over a pinned source tree.

``perfbench/pinned/tree.tar.xz`` holds the repository's analysable files
(``src/repro``, ``tests`` without the analyser's fixture corpus, the
top-level and ``docs/`` Markdown, ``analysis-baseline.json``) as they were
when the benchmark was defined, so a change that adds code does not change
this workload's input.  Set-up imports the analyser and unpacks the archive
in memory; it is timed in a fresh interpreter, so the imports count.  A
pass writes the files under ``.perfbench/`` in the checkout before its
stopwatch starts (writing and removing them is filesystem churn, which
varies with the host's I/O, not with the program) and then runs
:func:`repro.analysis.engine.run_analysis` on them with no cache and
``jobs=1``.  The ``--seed`` argument does not change the input.

The output check: the analysis completes, every pinned Python file is
analysed, and no file yields a PARSE finding.
"""

from __future__ import annotations

import io
import lzma
import shutil
import tarfile
from pathlib import Path
from typing import Dict, Optional

from perfbench import probes
from perfbench.speed import Stopwatch
from perfbench.tracer import Tracer
from perfbench.workloads.common import OUT_DIR, PassResult

ARCHIVE = Path(__file__).resolve().parent.parent / "pinned" / "tree.tar.xz"
SETUP_IN_FRESH_INTERPRETER = True
#: Set-ups timed before the pass (~0.4 s each, with the interpreter's start).
SETUP_SAMPLES = 20
TARGET = OUT_DIR / "pinned-tree"


class Pinned:
    def __init__(self, contents: Dict[str, bytes]) -> None:
        #: relative path -> bytes of every regular file in the archive
        self.contents = contents
        self.files = sum(1 for path in contents if path.endswith(".py"))
        self.root = TARGET

    def write(self) -> None:
        """Write the tree under :data:`TARGET`, replacing what is there."""
        if self.root.exists():
            shutil.rmtree(self.root)
        for relative, data in self.contents.items():
            path = self.root / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def setup(seed: int) -> Pinned:
    """Import the analyser and unpack the pinned tree into memory."""
    import repro.analysis.engine  # noqa: F401

    contents = {}
    with tarfile.open(fileobj=io.BytesIO(lzma.decompress(ARCHIVE.read_bytes()))) as archive:
        for member in archive.getmembers():
            if member.isfile():
                # The archive is the benchmark's own; refuse any path that
                # would leave the target directory all the same.
                if member.name.startswith("/") or ".." in Path(member.name).parts:
                    raise ValueError(f"unsafe path in {ARCHIVE}: {member.name}")
                contents[member.name] = archive.extractfile(member).read()
    return Pinned(contents)


def teardown(pinned: Pinned) -> None:
    """Remove the written tree."""
    shutil.rmtree(pinned.root, ignore_errors=True)


def install(tracer: Tracer, tally: probes.SendTally) -> None:
    probes.install_analysis(tracer)


def analyse(root: Path):
    from repro.analysis.engine import run_analysis

    return run_analysis(root=root, jobs=1, cache_path=None)


def run_pass(pinned: Pinned, tracer: Optional[Tracer] = None) -> PassResult:
    from repro.analysis import baseline
    from repro.analysis.engine import PARSE_RULE_ID

    pinned.write()
    watch = Stopwatch()
    watch.start()
    try:
        if tracer is None:
            result = analyse(pinned.root)
        else:
            result = tracer.call("analysis.engine.run", analyse, pinned.root)
    finally:
        watch.stop()

    problems = []
    analysed = result.stats.files_analyzed if result.stats else 0
    if analysed != pinned.files:
        problems.append(f"analysed {analysed} files, the pinned tree has {pinned.files}")
    parse = [f for f in result.findings if f.rule_id == PARSE_RULE_ID]
    problems.extend(f"{f.path}: {f.message}" for f in parse)
    known = baseline.load(pinned.root / "analysis-baseline.json")
    fresh, _ = baseline.apply(result.findings, known)
    layer = {"analysis.files": analysed, "analysis.findings": len(fresh)}
    return PassResult(wall_s=watch.scaled_wall_s, cpu_s=watch.scaled_cpu_s,
                      raw_wall_s=watch.wall_s, raw_cpu_s=watch.cpu_s,
                      speed_factor=watch.factor(),
                      attempted=pinned.files + 1,
                      failed=len(parse) + (analysed != pinned.files), problems=problems,
                      layer=layer, fingerprint={"findings": len(result.findings)})
