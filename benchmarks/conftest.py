"""Shared fixtures for the table-reproduction benchmarks."""

import json
import os

import pytest

from repro.bench import get_experiments
from repro.core.report import format_table
from repro.obs import RunRecord

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session", autouse=True)
def _no_artifact_store():
    """Benchmarks measure real work: disable the persistent artifact
    store so neither a warm ~/.cache/repro nor an earlier table's run
    can shortcut the timed stages.  (Warm-start correctness is checked
    by ``tests/test_store.py`` and the CI ``warm-cache-smoke`` job.)"""
    previous = os.environ.get("REPRO_NO_CACHE")
    os.environ["REPRO_NO_CACHE"] = "1"
    yield
    if previous is None:
        os.environ.pop("REPRO_NO_CACHE", None)
    else:
        os.environ["REPRO_NO_CACHE"] = previous


@pytest.fixture(scope="session")
def experiments():
    return get_experiments()


@pytest.fixture
def emit_table():
    """Print a table and persist it (text + machine-readable JSON) under
    benchmarks/results/.

    Alongside the table text, ``<name>.json`` records the rows plus a
    :class:`RunRecord` metrics snapshot so result trajectories can be
    diffed across PRs.
    """

    def _emit(filename, title, rows, columns=()):
        from repro.obs import atomic_write_text

        text = format_table(title, rows, columns)
        print("\n" + text)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        atomic_write_text(os.path.join(RESULTS_DIR, filename), text)
        record = RunRecord.capture(label=title)
        payload = {
            "title": title,
            "columns": list(columns) if columns
            else (list(rows[0].keys()) if rows else []),
            "rows": list(rows),
            "record": record.as_dict(),
        }
        json_name = os.path.splitext(filename)[0] + ".json"
        atomic_write_text(
            os.path.join(RESULTS_DIR, json_name),
            json.dumps(payload, indent=2, default=str) + "\n")
        return text

    return _emit
