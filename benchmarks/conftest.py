"""Benchmark harness configuration.

Every ``bench_*`` module regenerates one table or figure of the paper
at full problem scale, asserts its qualitative shape, and saves the
rendered table under ``benchmarks/results/``, beside the full report
``python -m repro.experiments -o report.md`` writes.

Heavy one-shot computations are cached in session fixtures; the
``benchmark`` fixture then times a representative kernel so
pytest-benchmark's statistics stay meaningful.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def full_ctx() -> ExperimentContext:
    """Paper-scale context: 16 simulated processors, full problem sizes."""
    return ExperimentContext(nproc=16, scale=1.0, maxiter=400)


@pytest.fixture(scope="session")
def save_table():
    """Persist a table under benchmarks/results/ — text and JSON.

    Accepts a :class:`~repro.util.tables.TextTable` (or a sequence of
    them), in which case both ``<name>.txt`` (ASCII rendering) and
    ``<name>.json`` (machine-readable records via
    :mod:`benchmarks.reporting`) are written; a plain pre-rendered
    string keeps the legacy text-only behaviour.  ``extra`` appends
    free-form text (charts, one-line summaries) to the ``.txt`` file
    without polluting the records.
    """
    import reporting

    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, table, extra: str = "") -> None:
        if isinstance(table, str):
            text, tables = table, []
        elif hasattr(table, "raw_rows"):
            text, tables = table.render(), [table]
        else:
            tables = list(table)
            text = "\n\n".join(t.render() for t in tables)
        if extra:
            text += "\n\n" + extra
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if tables:
            reporting.save_json(RESULTS_DIR / f"{name}.json", name, tables)

    return _save
