"""The repo gate: HEAD must be clean under the committed baseline.

This is the in-process twin of the CI job — if this test fails, so will
the ``analysis`` CI step, and vice versa.
"""

from pathlib import Path

from repro.analysis import baseline
from repro.analysis.engine import run_analysis
from repro.analysis.finding import Severity

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_head_has_no_fresh_findings():
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    fresh, _ = baseline.apply(result.findings, known)
    assert fresh == [], "\n".join(f.render() for f in fresh)


def test_committed_baseline_is_tight():
    """Every baseline entry must still match a live finding — dead entries
    mean the underlying code was fixed and the baseline should shrink."""
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    live = {f.fingerprint for f in result.findings}
    stale = [fp for fp in known if fp not in live]
    assert stale == [], f"stale baseline entries: {stale}"


def test_new_kernel_modules_are_analyzed_not_baselined():
    """The kernel must sit inside the analysis scope: ``repro.sim.kernel``
    under the PUR001 purity ban (it *is* the hot path), with its heap
    methods on the PERF manifest — and must be clean there, not excused via
    baseline entries."""
    from repro.analysis.rules.perf import HOT_FUNCTIONS
    from repro.analysis.rules.purity import _in_pure_package

    result = run_analysis(root=REPO_ROOT)
    modules = {m.module for m in result.project.src_modules}
    assert "repro.sim.kernel" in modules
    assert _in_pure_package("repro.sim.kernel")
    assert {"Simulator._cancel", "Simulator._pop_next", "Simulator._peek_time",
            "Simulator._drain"} <= HOT_FUNCTIONS["repro.sim.kernel"]
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    fresh, grandfathered = baseline.apply(result.findings, known)
    touched = [
        f for f in list(fresh) + list(grandfathered)
        if "sim/kernel.py" in str(f.path)
    ]
    assert touched == [], "\n".join(f.render() for f in touched)


def test_no_determinism_findings_grandfathered():
    """The baseline may tolerate doc-side contract nits, never findings
    from the determinism or purity families — those must be fixed or
    explicitly suppressed at the site with a justification comment."""
    result = run_analysis(root=REPO_ROOT)
    known = baseline.load(REPO_ROOT / "analysis-baseline.json")
    _, grandfathered = baseline.apply(result.findings, known)
    hard = [
        f for f in grandfathered
        if f.severity is Severity.ERROR
        and f.rule_id.startswith(("DET", "PUR"))
    ]
    assert hard == [], "\n".join(f.render() for f in hard)


def test_rule_allowlists_name_live_modules():
    """Every module prefix a rule exempts or targets must still exist, so an
    allowlist cannot outlive the code it was written for."""
    from repro.analysis.rules.determinism import RANDOM_ALLOWED, WALL_CLOCK_ALLOWED
    from repro.analysis.rules.ordering import SUBSTRATE_PREFIXES
    from repro.analysis.rules.perf import HOT_MODULE_PREFIXES

    src = REPO_ROOT / "src"
    prefixes = (WALL_CLOCK_ALLOWED + RANDOM_ALLOWED + SUBSTRATE_PREFIXES
                + HOT_MODULE_PREFIXES)
    missing = []
    for prefix in prefixes:
        path = src.joinpath(*prefix.split("."))
        if not (path.with_suffix(".py").is_file()
                or (path / "__init__.py").is_file()):
            missing.append(prefix)
    assert missing == [], f"allowlisted prefixes with no module: {missing}"
