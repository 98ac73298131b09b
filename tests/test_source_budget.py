"""The package's source budget: src/edgedpp/*.py totals at most 2,680 lines,
the size the design aim in ROADMAP.md holds it to, so the package cannot
grow back past it unnoticed."""

from pathlib import Path

SOURCE_LINE_BUDGET = 2680


def test_package_source_stays_within_its_line_budget():
    package = Path(__file__).resolve().parents[1] / "src" / "edgedpp"
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    assert lines <= SOURCE_LINE_BUDGET, f"src/edgedpp/*.py has {lines} lines, budget {SOURCE_LINE_BUDGET}"
