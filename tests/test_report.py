"""Tests for the report writer and the command-line entry point."""

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.report import generate_report
from repro.experiments.runner import DEFAULT_PROBLEMS, ExperimentContext
from repro.krylov import ilu
from repro.mesh.problems import get_problem


@pytest.fixture(scope="module")
def report_text():
    ctx = ExperimentContext(nproc=8, scale=0.25)
    return generate_report(ctx, include_table1=False)


class TestReport:
    def test_contains_all_sections(self, report_text):
        for heading in (
            "Table 2", "Table 3", "Table 4", "Table 5",
            "Figures 12/13", "Figure 1", "model validation",
            "barrier cost sweep", "shared check/increment",
            "balancing strategy",
        ):
            assert heading in report_text, heading

    def test_markdown_tables_present(self, report_text):
        assert report_text.count("|---") >= 8

    def test_quadrant_rendered(self, report_text):
        assert "RECOMMENDED" in report_text


    def test_each_problem_is_factored_once(self, monkeypatch):
        """Tables 1-4 read one factorization off the problem."""
        factored = []
        numeric_ilu = ilu.numeric_ilu
        monkeypatch.setattr(
            ilu, "numeric_ilu",
            lambda a, *p: factored.append(id(a)) or numeric_ilu(a, *p))
        get_problem.cache_clear()  # no factorization left over
        generate_report(ExperimentContext(nproc=8, scale=0.3))
        assert len(factored) == len(set(factored)) == len(DEFAULT_PROBLEMS)


class TestCLI:
    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "report.md"
        rc = cli_main([
            "--quick", "--scale", "0.25", "--nproc", "8", "-o", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "# Measured results" in text
        assert "Table 2" in text
