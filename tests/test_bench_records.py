"""Every benchmark record at the root of the repository follows the schema
of README "Benchmark records"."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# names its summary ratio ``ratio`` and leaves the operation counts out
KNOWN_EXCEPTIONS = {"BENCH_2026-10-19_one-decoder.json"}

TOP_KEYS = {
    "label", "date", "parent_sha", "change_sha", "machine", "command", "order", "note",
    "claimed_gain", "summary", "runs",
}
MACHINE_KEYS = {"cores", "cpu", "python", "numpy", "blas_threads"}
COUNT_KEYS = {
    "pairs", "seeds", "parent_attempted", "parent_failed", "parent_correct_all",
    "change_attempted", "change_failed", "change_correct_all",
}
METRICS = ("setup_s", "train_pairs_per_s", "eval_descs_per_s", "generate_s", "peak_rss_mb")
METRIC_KEYS = {
    "parent_median", "parent_quartiles", "change_median", "change_quartiles",
    "change_over_parent", "change_better_pairs",
}
RUN_KEYS = {"workload", "seed", "side", "result"}


def test_the_known_exceptions_are_records():
    assert KNOWN_EXCEPTIONS <= {p.name for p in RECORDS}


@pytest.mark.parametrize(
    "path", [p for p in RECORDS if p.name not in KNOWN_EXCEPTIONS], ids=lambda p: p.name
)
def test_record_has_the_schema_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert TOP_KEYS <= record.keys()
    assert MACHINE_KEYS <= record["machine"].keys()
    assert "WORKLOAD" in record["command"] and "SEED" in record["command"]
    assert record["claimed_gain"] is None or isinstance(record["claimed_gain"], dict)
    assert record["summary"]
    for workload, summary in record["summary"].items():
        assert COUNT_KEYS <= summary.keys(), workload
        for metric in METRICS:
            assert METRIC_KEYS <= summary[metric].keys(), (workload, metric)
    for run in record["runs"]:
        assert RUN_KEYS <= run.keys()
        assert run["workload"] in record["summary"] and run["side"] in ("parent", "change")
