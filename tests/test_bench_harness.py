"""Gates of the kernel-benchmark harness, ``benchmarks/run_benchmarks.py``.

The harness is loaded by path and every report builder it runs is stubbed,
so these tests take no measurement and run without NumPy.  The committed
``BENCH_*.json`` files serve as the baselines.
"""

import copy
import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_spec = importlib.util.spec_from_file_location(
    "run_benchmarks", os.path.join(ROOT, "benchmarks", "run_benchmarks.py")
)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)

HEADER = ("benchmark", "schema", "profile", "repeat")


def committed(name):
    with open(os.path.join(ROOT, f"BENCH_{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def gated_row(report, name):
    """The dict holding a report's gated value (its widest width's row)."""
    table, _ = harness.GATES[name]
    after = report["after"]
    return after if table is None else after[table][max(after[table], key=int)]


def at_floor(name, fraction=1.0):
    """The committed report with its gated value at ``fraction`` of the floor."""
    report = committed(name)
    _, key = harness.GATES[name]
    row = gated_row(report, name)
    row[key] = row[key] / harness.MAX_REGRESSION * fraction
    return report


def stub(monkeypatch, name, report):
    """Make the harness write ``report`` for ``name`` without measuring."""
    body = {key: value for key, value in report.items() if key not in HEADER}
    monkeypatch.setitem(harness.REPORTS, name, lambda sitting: copy.deepcopy(body))


@pytest.mark.parametrize("name", sorted(harness.GATES))
def test_throughput_gate_passes_at_the_floor_and_fails_one_percent_below(name):
    baseline = committed(name)
    assert harness.throughput_gate(name, at_floor(name), baseline) == 0
    assert harness.throughput_gate(name, at_floor(name, 0.99), baseline) == 1


@pytest.mark.parametrize("name", ["batch_kernel", "batch_hetero"])
def test_batch_gate_compares_the_widest_shared_width(name, capsys):
    baseline = committed(name)
    table, key = harness.GATES[name]
    report = copy.deepcopy(baseline)
    rows = report["after"][table]
    rows.pop("512", None)  # what the fast profile leaves out
    floor = baseline["after"][table]["256"][key] / harness.MAX_REGRESSION
    # Below any floor, but a narrower width than 256, or one the committed
    # report does not have: neither is gated.
    rows["36"] = {key: 0.0}
    rows["1024"] = {key: 0.0}
    rows["256"][key] = floor
    assert harness.throughput_gate(name, report, baseline) == 0
    assert "(N=256)" in capsys.readouterr().out
    rows["256"][key] = floor * 0.99
    assert harness.throughput_gate(name, report, baseline) == 1


@pytest.mark.parametrize("name", ["batch_kernel", "batch_hetero"])
def test_batch_gate_skips_without_a_shared_width(name, capsys):
    table, key = harness.GATES[name]
    report = committed(name)
    report["after"][table] = {"1024": {key: 0.0}}
    assert harness.throughput_gate(name, report, committed(name)) == 0
    assert "SKIP" in capsys.readouterr().out


@pytest.mark.parametrize("check_against", [False, True])
@pytest.mark.parametrize("allocs, status", [(4, 0), (5, 1)])
def test_allocation_pin_gates_with_or_without_a_baseline(
    monkeypatch, tmp_path, check_against, allocs, status
):
    report = committed("obs_overhead")
    report["after"]["disabled_seam_allocs"] = allocs
    stub(monkeypatch, "obs_overhead", report)
    argv = ["--only", "obs_overhead", "--output-dir", str(tmp_path)]
    if check_against:
        argv += ["--check-against", ROOT]
    assert harness.main(argv) == status


@pytest.mark.parametrize("overhead, status", [(3.0, 0), (3.01, 1)])
def test_max_overhead_pct_gates_the_traced_overhead(
    monkeypatch, tmp_path, overhead, status
):
    report = committed("obs_overhead")
    report["after"]["traced_overhead_pct"] = overhead
    stub(monkeypatch, "obs_overhead", report)
    argv = ["--only", "obs_overhead", "--output-dir", str(tmp_path)]
    assert harness.main(argv) == 0
    assert harness.main(argv + ["--max-overhead-pct", "3"]) == status


def test_baselines_are_read_before_the_reports_overwrite_them(monkeypatch, tmp_path):
    for name in harness.REPORTS:
        shutil.copy(os.path.join(ROOT, f"BENCH_{name}.json"), tmp_path)
        below = at_floor(name, 0.99) if name in harness.GATES else committed(name)
        stub(monkeypatch, name, below)
    argv = ["--output-dir", str(tmp_path), "--check-against", str(tmp_path)]
    assert harness.main(argv) == 1
    # The first run did overwrite them: gated against its own reports, the
    # same values pass.
    for name in harness.GATES:
        with open(tmp_path / f"BENCH_{name}.json", encoding="utf-8") as handle:
            written = json.load(handle)
        assert written["after"] == at_floor(name, 0.99)["after"]
    assert harness.main(argv) == 0
