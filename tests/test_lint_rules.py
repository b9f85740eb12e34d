"""Self-test for the ``repro-lint`` determinism rule pack.

Three layers:

* **fixture corpus** -- minimal positive/negative snippets per rule,
  linted in memory under pretend repo-relative paths so the committed
  scope policies are exercised exactly as on real files,
* **machinery** -- inline suppressions (justified vs bare), the baseline
  ratchet (subtract / stale / deterministic writes), config parsing
  (including the 3.9/3.10 minimal-TOML fallback), and the CLI surface
  (exit codes, formats), and
* **meta** -- ``repro-lint check`` over this repository is clean modulo
  the committed baseline, so the bit-identity contract stays
  lint-enforced on every tree that passes CI.
"""

import json
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import pytest

from repro.lint import baseline as baseline_module
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig, _parse_toml_minimal, load_config
from repro.lint.engine import lint_source, parse_suppressions, resolve_rules
from repro.lint.rules import ALL_RULES, RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Rules resolved with their built-in default scopes (the committed
#: pyproject policy mirrors these; the meta-test covers the committed one).
RESOLVED = resolve_rules(ALL_RULES)

#: A path inside every deterministic-scope rule's default include set.
CORE = "src/repro/core/example.py"


def rule_ids(snippet, rel_path=CORE, resolved=RESOLVED):
    return [f.rule_id for f in lint_source(dedent(snippet), rel_path, resolved)]


# ---------------------------------------------------------------------------
# REP001 / REP007: randomness
# ---------------------------------------------------------------------------

class TestRandomnessRules:
    def test_global_stdlib_random_fires(self):
        snippet = """
            import random
            x = random.random()
        """
        assert rule_ids(snippet) == ["REP001"]

    def test_from_import_resolves(self):
        snippet = """
            from random import randint
            x = randint(0, 5)
        """
        assert rule_ids(snippet) == ["REP001"]

    def test_numpy_global_state_fires(self):
        snippet = """
            import numpy as np
            np.random.seed(0)
            x = np.random.randint(5)
        """
        assert rule_ids(snippet) == ["REP001", "REP001"]

    def test_unseeded_constructors_fire_seeded_do_not(self):
        assert rule_ids("import random\nr = random.Random()\n") == ["REP001"]
        assert rule_ids("import random\nr = random.Random(0)\n") == []
        assert rule_ids("import numpy as np\nr = np.random.default_rng()\n") == [
            "REP001"
        ]
        assert rule_ids("import numpy as np\nr = np.random.default_rng(7)\n") == []

    def test_system_random_always_fires(self):
        assert rule_ids("import random\nr = random.SystemRandom(3)\n") == ["REP001"]

    def test_instance_methods_are_fine(self):
        snippet = """
            import random
            rng = random.Random(3)
            x = rng.random() + rng.randint(0, 5)
        """
        assert rule_ids(snippet) == []

    def test_scope_policy_excludes_benchmarks(self):
        snippet = "import random\nx = random.random()\n"
        assert rule_ids(snippet, "benchmarks/bench_example.py") == []
        assert rule_ids(snippet, "src/repro/workloads/example.py") == ["REP001"]
        assert rule_ids(snippet, "src/repro/analysis/example.py") == []

    def test_salted_hash_fires_in_scope_only(self):
        snippet = "seed = hash(name) & 0xFFFF\n"
        assert rule_ids(snippet) == ["REP007"]
        assert rule_ids(snippet, "benchmarks/bench_example.py") == []


# ---------------------------------------------------------------------------
# REP002: wall clock
# ---------------------------------------------------------------------------

class TestWallClockRule:
    def test_time_and_datetime_reads_fire(self):
        snippet = """
            import time
            from datetime import datetime
            a = time.time()
            b = time.perf_counter()
            c = datetime.now()
        """
        assert rule_ids(snippet, "src/repro/sim/example.py") == ["REP002"] * 3

    def test_from_import_alias_resolves(self):
        snippet = """
            from time import perf_counter as pc
            started = pc()
        """
        assert rule_ids(snippet, "src/repro/sim/example.py") == ["REP002"]

    def test_simulated_clock_is_fine(self):
        snippet = """
            def step(clock):
                return clock.now_s + clock.dt_s
        """
        assert rule_ids(snippet, "src/repro/sim/example.py") == []

    def test_allow_sites_exempt_by_function_not_file(self):
        resolved = resolve_rules(
            ALL_RULES,
            {"REP002": {"allow_sites": ["src/repro/x.py::execute_cell"]}},
        )
        allowed = """
            import time
            def execute_cell():
                return time.perf_counter()
        """
        elsewhere = """
            import time
            def other():
                return time.perf_counter()
        """
        assert rule_ids(allowed, "src/repro/x.py", resolved) == []
        assert rule_ids(elsewhere, "src/repro/x.py", resolved) == ["REP002"]

    def test_committed_runner_sites_are_allowlisted(self):
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        resolved = resolve_rules(ALL_RULES, config.rule_overrides)
        snippet = """
            import time
            def execute_cell():
                return time.perf_counter()
        """
        assert rule_ids(snippet, "src/repro/experiments/runner.py", resolved) == []


# ---------------------------------------------------------------------------
# REP003: filesystem enumeration
# ---------------------------------------------------------------------------

class TestUnsortedEnumerationRule:
    def test_bare_listdir_fires(self):
        snippet = """
            import os
            for name in os.listdir(path):
                load(name)
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == ["REP003"]

    def test_sorted_listdir_is_fine(self):
        snippet = """
            import os
            for name in sorted(os.listdir(path)):
                load(name)
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == []

    def test_sorted_comprehension_is_fine(self):
        snippet = """
            import os
            paths = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == []

    def test_order_insensitive_consumers_are_fine(self):
        snippet = """
            import os
            count = len(os.listdir(path))
            names = set(os.listdir(path))
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == []

    def test_lambda_body_is_not_sanctioned_by_outer_sorted(self):
        snippet = """
            import os
            pick = sorted(roots, key=lambda r: os.listdir(r))
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == ["REP003"]

    def test_path_glob_methods_fire_and_apply_in_tests_scope(self):
        snippet = "victim = next(cache_dir.glob('*.json'))\n"
        assert rule_ids(snippet, "tests/test_example.py") == ["REP003"]
        assert rule_ids("x = sorted(cache_dir.glob('*.json'))[0]\n",
                        "tests/test_example.py") == []


# ---------------------------------------------------------------------------
# REP004: non-atomic persistence
# ---------------------------------------------------------------------------

class TestNonAtomicPersistenceRule:
    def test_bare_json_dump_fires(self):
        snippet = """
            import json
            def save(path, payload):
                with open(path, "w") as handle:
                    json.dump(payload, handle)
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == ["REP004"]

    def test_seam_function_is_sanctioned(self):
        snippet = """
            import json, os
            def atomic_write_json(path, payload):
                tmp = path + ".tmp"
                with open(tmp, "w") as handle:
                    json.dump(payload, handle)
                os.replace(tmp, path)
        """
        assert rule_ids(snippet, "src/repro/core/store.py") == []

    def test_json_dumps_is_fine(self):
        snippet = "import json\ntext = json.dumps({'a': 1})\n"
        assert rule_ids(snippet, "src/repro/core/store.py") == []


# ---------------------------------------------------------------------------
# REP005: batch-kernel reductions
# ---------------------------------------------------------------------------

class TestLaneCrossingReductionRule:
    BATCH = "src/repro/sim/batch.py"
    RECORDER = "src/repro/sim/recorder.py"

    def test_numpy_reductions_fire_in_batch_kernel(self):
        snippet = """
            import numpy as np
            total = np.sum(power, axis=1)
            avg = power.mean()
            dotted = np.einsum("ij,ij->i", a, b)
        """
        assert rule_ids(snippet, self.BATCH) == ["REP005"] * 3

    def test_matmul_operator_fires(self):
        assert rule_ids("c = a @ b\n", self.BATCH) == ["REP005"]

    def test_masked_cross_lane_reductions_still_fire(self):
        # Masking selects lanes; the reduction over the survivors still
        # reassociates.  Every masked spelling must be flagged exactly like
        # its unmasked counterpart.
        snippet = """
            import numpy as np
            survivors = np.sum(power[active_mask])
            gated = np.where(active_mask, power, 0.0).sum()
            compressed = power.compress(active_mask).mean()
        """
        assert rule_ids(snippet, self.BATCH) == ["REP005"] * 3

    def test_mask_bookkeeping_is_fine(self):
        # The masked loop's own machinery -- boolean combination, any(),
        # nonzero(), isnan(), row-zeroing -- never reassociates float ops.
        snippet = """
            import numpy as np
            record_mask = active_mask & (tick % cadence == 0)
            will_record = bool(record_mask.any())
            recorded = np.nonzero(record_mask)[0].tolist()
            due = np.isnan(last) | ((now - last) >= period)
            demanded[~active_mask] = 0.0
        """
        assert rule_ids(snippet, self.BATCH) == []

    def test_elementwise_and_builtin_sum_are_fine(self):
        snippet = """
            import numpy as np
            c = a + b * 2.0
            clamped = np.minimum(1.0, np.maximum(0.0, c))
            folded = sum(values)
        """
        assert rule_ids(snippet, self.BATCH) == []

    def test_scoped_to_masked_update_paths_only(self):
        snippet = "import numpy as np\nt = np.sum(x)\n"
        assert rule_ids(snippet, "src/repro/analysis/metrics.py") == []
        assert rule_ids(snippet, self.RECORDER) == ["REP005"]

    def test_current_batch_kernel_is_clean(self):
        text = (REPO_ROOT / "src/repro/sim/batch.py").read_text()
        assert [
            f.rule_id for f in lint_source(text, self.BATCH, RESOLVED)
        ] == []

    def test_current_batch_recorder_is_clean(self):
        text = (REPO_ROOT / "src/repro/sim/recorder.py").read_text()
        assert [
            f.rule_id for f in lint_source(text, self.RECORDER, RESOLVED)
        ] == []


# ---------------------------------------------------------------------------
# REP006: pool callables
# ---------------------------------------------------------------------------

class TestUnpicklablePoolCallableRule:
    RUNNER = "src/repro/experiments/example.py"

    def test_lambda_submit_fires(self):
        snippet = """
            def run(pool, cells):
                return [pool.submit(lambda c: c.run(), cell) for cell in cells]
        """
        assert rule_ids(snippet, self.RUNNER) == ["REP006"]

    def test_nested_def_by_name_fires(self):
        snippet = """
            def run(pool, cells):
                def work(cell):
                    return cell.run()
                return pool.map(work, cells)
        """
        assert rule_ids(snippet, self.RUNNER) == ["REP006"]

    def test_module_level_function_is_fine(self):
        snippet = """
            def work(cell):
                return cell.run()

            def run(pool, cells):
                return [pool.submit(work, cell) for cell in cells]
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_builtin_map_is_fine(self):
        snippet = "out = list(map(lambda x: x + 1, xs))\n"
        assert rule_ids(snippet, self.RUNNER) == []


# ---------------------------------------------------------------------------
# REP008: swallowed exceptions
# ---------------------------------------------------------------------------

class TestSwallowedExceptionRule:
    RUNNER = "src/repro/experiments/runner.py"

    def test_bare_except_with_pass_fires(self):
        snippet = """
            try:
                work()
            except:
                pass
        """
        assert rule_ids(snippet, self.RUNNER) == ["REP008"]

    def test_broad_exception_fires(self):
        snippet = """
            try:
                work()
            except Exception:
                result = None
        """
        assert rule_ids(snippet, self.RUNNER) == ["REP008"]

    def test_base_exception_and_tuple_member_fire(self):
        snippet = """
            try:
                work()
            except BaseException:
                result = None
            try:
                work()
            except (ValueError, Exception):
                result = None
        """
        assert rule_ids(snippet, self.RUNNER) == ["REP008", "REP008"]

    def test_specific_types_are_fine(self):
        snippet = """
            try:
                work()
            except (OSError, ValueError, KeyError):
                result = None
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_reraise_is_fine(self):
        snippet = """
            try:
                work()
            except Exception:
                cleanup()
                raise
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_recorded_traceback_is_fine(self):
        snippet = """
            import traceback
            try:
                work()
            except Exception:
                errors[key] = traceback.format_exc()
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_exc_info_handoff_is_fine(self):
        snippet = """
            import sys
            try:
                work()
            except Exception:
                report(sys.exc_info())
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_nested_raise_in_conditional_is_fine(self):
        snippet = """
            try:
                work()
            except Exception as exc:
                if fatal(exc):
                    raise
                result = None
        """
        assert rule_ids(snippet, self.RUNNER) == []

    def test_scoped_to_experiments_layer(self):
        snippet = """
            try:
                work()
            except Exception:
                pass
        """
        assert rule_ids(snippet, "src/repro/sim/example.py") == []

    def test_justified_suppression_on_except_line_silences(self):
        snippet = (
            "try:\n"
            "    work()\n"
            "except Exception:  # repro-lint: disable=REP008 -- fallback re-runs and records\n"
            "    result = None\n"
        )
        assert rule_ids(snippet, self.RUNNER) == []

    def test_committed_experiments_layer_is_clean(self):
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        resolved = resolve_rules(ALL_RULES, config.rule_overrides)
        root = REPO_ROOT / "src" / "repro" / "experiments"
        for path in sorted(root.glob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            findings = [
                f
                for f in lint_source(path.read_text(), rel, resolved)
                if f.rule_id == "REP008"
            ]
            assert findings == [], f"{rel}: {findings}"


# ---------------------------------------------------------------------------
# REP009: print() outside the CLI / harness surfaces
# ---------------------------------------------------------------------------

class TestPrintCallRule:
    def test_print_in_library_code_fires(self):
        snippet = """
            def deliver(result):
                print("done", result)
        """
        assert rule_ids(snippet, "src/repro/experiments/runner.py") == ["REP009"]

    def test_every_print_fires_once(self):
        snippet = """
            print("one")
            print("two")
        """
        assert rule_ids(snippet, CORE) == ["REP009", "REP009"]

    def test_method_named_print_is_fine(self):
        snippet = """
            def render(doc):
                doc.print()
        """
        assert rule_ids(snippet, CORE) == []

    def test_stderr_logging_helpers_are_out_of_scope(self):
        snippet = """
            import sys
            def warn(message):
                sys.stderr.write(message)
        """
        assert rule_ids(snippet, CORE) == []

    def test_tests_and_benchmarks_are_out_of_scope(self):
        snippet = "print('bench result')\n"
        assert rule_ids(snippet, "tests/test_example.py") == []
        assert rule_ids(snippet, "benchmarks/bench_example.py") == []

    def test_justified_suppression_silences(self):
        snippet = (
            "print('banner')  # repro-lint: disable=REP009 -- startup banner\n"
        )
        assert rule_ids(snippet, CORE) == []

    def test_committed_excludes_cover_the_cli_surfaces(self):
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        resolved = resolve_rules(ALL_RULES, config.rule_overrides)
        snippet = "print('progress line')\n"
        for surface in (
            "src/repro/experiments/cli.py",
            "src/repro/lint/cli.py",
            "src/repro/reliability/chaos.py",
        ):
            assert rule_ids(snippet, surface, resolved) == [], surface

    def test_committed_tree_is_print_clean(self):
        """No library module print()s: stdout belongs to the CLI layer."""
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        resolved = resolve_rules(ALL_RULES, config.rule_overrides)
        root = REPO_ROOT / "src"
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            findings = [
                f
                for f in lint_source(path.read_text(), rel, resolved)
                if f.rule_id == "REP009"
            ]
            assert findings == [], f"{rel}: {findings}"


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_justified_suppression_silences(self):
        snippet = (
            "import random\n"
            "x = random.random()  # repro-lint: disable=REP001 -- demo corpus value\n"
        )
        assert rule_ids(snippet) == []

    def test_bare_suppression_is_ignored_and_annotated(self):
        snippet = (
            "import random\n"
            "x = random.random()  # repro-lint: disable=REP001\n"
        )
        findings = lint_source(snippet, CORE, RESOLVED)
        assert [f.rule_id for f in findings] == ["REP001"]
        assert "suppression ignored" in findings[0].message

    def test_suppression_only_covers_named_rules(self):
        snippet = (
            "import random\n"
            "x = random.random()  # repro-lint: disable=REP002 -- wrong rule\n"
        )
        assert rule_ids(snippet) == ["REP001"]

    def test_parse_multiple_rules_and_justification(self):
        parsed = parse_suppressions(
            "a = 1  # repro-lint: disable=REP001, REP003 -- fixture\n"
        )
        assert parsed[1].rule_ids == ("REP001", "REP003")
        assert parsed[1].justified


# ---------------------------------------------------------------------------
# baseline ratchet
# ---------------------------------------------------------------------------

class TestBaseline:
    SNIPPET = "import random\nx = random.random()\n"

    def findings(self):
        return lint_source(self.SNIPPET, CORE, RESOLVED)

    def test_partition_subtracts_and_reports_stale(self):
        findings = self.findings()
        entries = [
            {"rule": "REP001", "path": CORE, "line": 2},
            {"rule": "REP001", "path": "src/repro/core/gone.py", "line": 9},
        ]
        new, baselined, stale = baseline_module.partition_findings(findings, entries)
        assert new == []
        assert [f.rule_id for f in baselined] == ["REP001"]
        assert [entry["path"] for entry in stale] == ["src/repro/core/gone.py"]

    def test_write_is_deterministic_and_schema_versioned(self, tmp_path):
        findings = self.findings()
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        baseline_module.write_baseline(str(path_a), findings)
        baseline_module.write_baseline(str(path_b), list(reversed(findings)))
        assert path_a.read_bytes() == path_b.read_bytes()
        data = json.loads(path_a.read_text())
        assert data["schema_version"] == baseline_module.BASELINE_SCHEMA_VERSION
        assert [e["rule"] for e in data["entries"]] == ["REP001"]

    def test_wrong_schema_version_is_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": 999, "entries": []}))
        with pytest.raises(ValueError, match="schema version"):
            baseline_module.load_baseline(str(path))

    def test_missing_baseline_is_empty(self, tmp_path):
        assert baseline_module.load_baseline(str(tmp_path / "nope.json")) == []


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestConfig:
    def test_committed_config_loads(self):
        config = load_config(str(REPO_ROOT / "pyproject.toml"))
        assert config.paths == ("src", "tests", "benchmarks")
        assert config.baseline == ".repro-lint-baseline.json"
        assert "REP002" in config.rule_overrides
        assert any(
            site.endswith("::execute_cell")
            for site in config.rule_overrides["REP002"]["allow_sites"]
        )

    def test_missing_file_gives_defaults(self, tmp_path):
        assert load_config(str(tmp_path / "nope.toml")) == LintConfig()

    def test_minimal_toml_fallback_parses_committed_subset(self):
        # The 3.9/3.10 fallback must agree with tomllib on our config.
        text = (REPO_ROOT / "pyproject.toml").read_text()
        parsed = _parse_toml_minimal(text)
        table = parsed["tool"]["repro-lint"]
        assert table["paths"] == ["src", "tests", "benchmarks"]
        assert table["REP005"]["include"] == [
            "src/repro/sim/batch.py",
            "src/repro/sim/recorder.py",
            "src/repro/governors/schedutil.py",
            "src/repro/graphics/pipeline.py",
            "src/repro/soc/power.py",
            "src/repro/soc/thermal.py",
        ]
        assert table["REP002"]["allow_sites"] == [
            "src/repro/experiments/runner.py::execute_cell",
            "src/repro/experiments/runner.py::execute_cells_batched",
            "src/repro/reliability/clock.py::wall_now",
            "src/repro/reliability/clock.py::monotonic_now",
            "src/repro/obs/profile.py::timed",
        ]
        assert table["REP009"]["exclude"] == [
            "src/repro/experiments/cli.py",
            "src/repro/lint/cli.py",
            "src/repro/reliability/chaos.py",
        ]

    def test_rule_override_changes_scope(self):
        resolved = resolve_rules(
            ALL_RULES, {"REP001": {"include": ["benchmarks/"]}}
        )
        snippet = "import random\nx = random.random()\n"
        assert rule_ids(snippet, "benchmarks/bench_example.py", resolved) == [
            "REP001"
        ]
        assert rule_ids(snippet, CORE, resolved) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def write_tree(self, root):
        pkg = root / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import random\nx = random.random()\n")
        (root / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["src"]\n'
        )
        return root

    def test_check_reports_exact_location_and_exits_nonzero(self, tmp_path, capsys):
        self.write_tree(tmp_path)
        status = lint_main(["--root", str(tmp_path), "check"])
        out = capsys.readouterr().out
        assert status == 1
        assert "src/repro/core/bad.py:2:5: REP001" in out

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        self.write_tree(tmp_path)
        status = lint_main(["--root", str(tmp_path), "check", "--format", "github"])
        out = capsys.readouterr().out
        assert status == 1
        assert "::error file=src/repro/core/bad.py,line=2," in out
        assert "title=repro-lint REP001" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        self.write_tree(tmp_path)
        status = lint_main(["--root", str(tmp_path), "check", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert status == 1
        assert report["findings"][0]["rule"] == "REP001"
        assert report["findings"][0]["path"] == "src/repro/core/bad.py"

    def test_baseline_roundtrip_then_fix_reports_stale(self, tmp_path, capsys):
        root = self.write_tree(tmp_path)
        assert lint_main(["--root", str(root), "baseline"]) == 0
        capsys.readouterr()
        # Baselined: check is clean.
        assert lint_main(["--root", str(root), "check"]) == 0
        capsys.readouterr()
        # Fix the hazard: check stays clean but points at the stale entry.
        (root / "src" / "repro" / "core" / "bad.py").write_text(
            "import random\nrng = random.Random(0)\nx = rng.random()\n"
        )
        assert lint_main(["--root", str(root), "check"]) == 0
        out = capsys.readouterr().out
        assert "stale baseline" in out

    def test_explain_unknown_rule_fails(self, capsys):
        assert lint_main(["explain", "REP999"]) == 2

    def test_explain_all_covers_every_rule(self, capsys):
        assert lint_main(["explain", "all"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES_BY_ID:
            assert rule_id in out


# ---------------------------------------------------------------------------
# meta: this repository is clean
# ---------------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_repo_tree_is_clean_modulo_committed_baseline(self, capsys):
        status = lint_main(
            ["--root", str(REPO_ROOT), "check", "src", "tests", "benchmarks"]
        )
        out = capsys.readouterr().out
        assert status == 0, f"repro-lint found new hazards:\n{out}"

    def test_console_entry_point_runs(self):
        # `python -m repro.lint` mirrors the installed repro-lint script.
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "explain", "REP001"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0
        assert "REP001" in result.stdout