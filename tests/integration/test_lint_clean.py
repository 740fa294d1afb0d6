"""Tier-1 gate: the shipped tree must lint clean under repro-lint.

This is the enforcement point for the repo's conventions — if a bare
conversion factor, a float-equality, a cache-poisoning effect or an
uncatalogued metric sneaks into the tree, this test fails with the
full finding list, exactly as ``repro-lint`` would on the command
line.  It also pins the whole-program pass's behavior on the seeded
violation corpus and its performance budget, and exercises the CI
drift gate against the checked-in ``lint-baseline.json``.
"""

from pathlib import Path

from repro.staticcheck import (
    Baseline,
    LintConfig,
    apply_baseline,
    lint_paths,
    load_config,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: every tree the lint gate covers (mirrors ``make lint`` / CI)
LINTED_TREES = ["src/repro", "examples", "tools", "tests", "benchmarks"]


def lint_repo(config=None):
    config = config or load_config(REPO_ROOT / "pyproject.toml")
    return lint_paths([REPO_ROOT / tree for tree in LINTED_TREES], config)


def test_whole_repo_lints_clean():
    report = lint_repo()
    assert report.files_checked > 200, "lint walked suspiciously few files"
    assert report.findings == [], "\n" + render_text(report)


def test_examples_lint_clean():
    """Examples are user-facing; hold them to the same unit rules."""
    config = load_config(REPO_ROOT / "pyproject.toml")
    report = lint_paths([REPO_ROOT / "examples"], config)
    assert report.findings == [], "\n" + render_text(report)


def test_lint_corpus_is_excluded_from_the_gate():
    """The deliberately broken fixtures must never reach the repo gate."""
    config = load_config(REPO_ROOT / "pyproject.toml")
    corpus = REPO_ROOT / "tests" / "fixtures" / "lintcorpus"
    assert config.is_path_excluded(corpus / "cache_poison.py")


def test_seeded_corpus_trips_every_project_pack():
    """Each corpus file produces exactly the violations it seeds."""
    corpus = REPO_ROOT / "tests" / "fixtures" / "lintcorpus"
    report = lint_paths([corpus], LintConfig(root=REPO_ROOT))
    by_file = {}
    for finding in report.findings:
        by_file.setdefault(Path(finding.path).name, set()).add(finding.rule)
    assert by_file["cache_poison.py"] == {"DET001", "DET002", "DET003", "DET004"}
    assert by_file["frozen_mutation.py"] == {"FRZ001", "FRZ002"}
    # the write through a FrozenWalk-annotated parameter is one of them
    snapshot_writes = [f.rule for f in report.findings if "'FrozenWalk'" in f.message]
    assert snapshot_writes == ["FRZ001"]
    assert by_file["undocumented_metric.py"] == {"OBS001", "OBS002", "OBS003", "OBS004"}
    assert by_file["async_blocking.py"] == {"CONC001", "CONC002", "CONC003"}
    assert by_file["async_shard.py"] == {"CONC001", "CONC003"}
    assert by_file["late_binding.py"] == {"CONC004"}


def test_project_pass_fits_the_ci_budget():
    """The whole-program pass must stay interactive (<30 s in CI)."""
    report = lint_repo()
    assert report.duration_s < 30.0, f"lint run took {report.duration_s:.1f}s"
    assert report.project_duration_s < 30.0


def test_drift_gate_against_checked_in_baseline():
    """New findings (and only new findings) fail the drift gate."""
    baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
    report = lint_repo()
    drift = apply_baseline(report, baseline)
    assert drift.new_findings == [], "\n" + render_text(report)
    assert drift.stale == [], f"stale baseline entries: {drift.stale}"
