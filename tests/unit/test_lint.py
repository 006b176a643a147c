"""Tests for the repro.lint static analyzer.

Each rule is probed with a minimal violating fixture and a minimal
clean fixture; ``lint_source`` takes a fake filename so path-scoped
rules (DET*, PAR*) can be exercised without touching the real tree.
The suite ends with the self-check: the shipped source tree must be
violation-free.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

from repro.lint import (
    Violation,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    select_rules,
)
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

MEASURE_PATH = "src/repro/measure/sampling.py"
ANALYSIS_PATH = "src/repro/analysis/stats.py"
TEST_PATH = "tests/unit/test_sampling.py"


def rule_ids(violations: List[Violation]) -> List[str]:
    return [v.rule_id for v in violations]


def lint_with(rule_id: str, source: str, filename: str = MEASURE_PATH):
    return lint_source(source, filename, rules=select_rules(select=[rule_id]))


# -- registry -----------------------------------------------------------


class TestRegistry:
    def test_all_expected_rules_registered(self):
        ids = {rule.rule_id for rule in all_rules()}
        assert {
            "RNG001",
            "RNG002",
            "RNG003",
            "RNG004",
            "DET001",
            "DET002",
            "FRZ001",
            "ROB001",
            "EXE001",
            "PERF001",
        } <= ids

    def test_select_and_ignore(self):
        only = select_rules(select=["RNG001"])
        assert [r.rule_id for r in only] == ["RNG001"]
        without = select_rules(ignore=["RNG001"])
        assert "RNG001" not in {r.rule_id for r in without}

    def test_select_accepts_rule_names(self):
        only = select_rules(select=["numpy-legacy-random"])
        assert [r.rule_id for r in only] == ["RNG001"]


# -- RNG001: legacy numpy.random calls ----------------------------------


class TestLegacyNumpyRandom:
    def test_flags_module_level_call(self):
        src = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        violations = lint_with("RNG001", src)
        assert rule_ids(violations) == ["RNG001"]
        assert "numpy.random.uniform" in violations[0].message

    def test_flags_seed_call(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert rule_ids(lint_with("RNG001", src)) == ["RNG001"]

    def test_flags_from_import(self):
        src = "from numpy.random import uniform\n"
        assert rule_ids(lint_with("RNG001", src)) == ["RNG001"]

    def test_allows_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_with("RNG001", src) == []

    def test_allows_generator_and_seedsequence(self):
        src = (
            "import numpy as np\n"
            "ss = np.random.SeedSequence(7)\n"
            "rng = np.random.Generator(np.random.PCG64(ss))\n"
        )
        assert lint_with("RNG001", src) == []


# -- RNG002: stdlib random ----------------------------------------------


class TestStdlibRandom:
    def test_flags_import(self):
        assert rule_ids(lint_with("RNG002", "import random\n")) == ["RNG002"]

    def test_flags_from_import(self):
        src = "from random import choice\n"
        assert rule_ids(lint_with("RNG002", src)) == ["RNG002"]

    def test_allows_other_modules(self):
        assert lint_with("RNG002", "import math\n") == []


# -- RNG003: unseeded default_rng ---------------------------------------


class TestUnseededDefaultRng:
    def test_flags_no_argument(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(lint_with("RNG003", src)) == ["RNG003"]

    def test_flags_explicit_none(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rule_ids(lint_with("RNG003", src)) == ["RNG003"]

    def test_allows_explicit_seed(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_with("RNG003", src) == []

    def test_allows_unseeded_in_tests(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert lint_with("RNG003", src, filename=TEST_PATH) == []


# -- RNG004: untracked randomness in public functions -------------------


class TestUntrackedRngSource:
    def test_flags_module_global_generator(self):
        src = (
            "import numpy as np\n"
            "_RNG = np.random.default_rng(7)\n"
            "def sample(n):\n"
            "    return _RNG.normal(size=n)\n"
        )
        violations = lint_with("RNG004", src)
        assert rule_ids(violations) == ["RNG004"]
        assert "rng" in violations[0].message

    def test_allows_rng_parameter(self):
        src = "def sample(n, rng):\n    return rng.normal(size=n)\n"
        assert lint_with("RNG004", src) == []

    def test_allows_locally_seeded_generator(self):
        src = (
            "import numpy as np\n"
            "def sample(n, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.normal(size=n)\n"
        )
        assert lint_with("RNG004", src) == []

    def test_ignores_private_functions(self):
        src = (
            "import numpy as np\n"
            "_RNG = np.random.default_rng(7)\n"
            "def _sample(n):\n"
            "    return _RNG.normal(size=n)\n"
        )
        assert lint_with("RNG004", src) == []


# -- DET001: wall-clock reads in core paths -----------------------------


class TestWallClock:
    def test_flags_time_time_in_measure(self):
        src = "import time\nstamp = time.time()\n"
        assert rule_ids(lint_with("DET001", src)) == ["DET001"]

    def test_flags_datetime_now(self):
        src = "import datetime\nnow = datetime.datetime.now()\n"
        assert rule_ids(lint_with("DET001", src)) == ["DET001"]

    def test_flags_os_urandom(self):
        src = "import os\nblob = os.urandom(8)\n"
        assert rule_ids(lint_with("DET001", src)) == ["DET001"]

    def test_allows_outside_core_paths(self):
        src = "import time\nstamp = time.time()\n"
        assert lint_with("DET001", src, filename="src/repro/cli.py") == []


# -- DET002: set iteration in core paths --------------------------------


class TestSetIteration:
    def test_flags_for_over_set_literal(self):
        src = "for item in {1, 2, 3}:\n    pass\n"
        assert rule_ids(lint_with("DET002", src)) == ["DET002"]

    def test_flags_list_of_set_intersection(self):
        src = "def merge(a, b):\n    return list(set(a) & set(b))\n"
        assert rule_ids(lint_with("DET002", src)) == ["DET002"]

    def test_allows_sorted_set(self):
        src = "def merge(a, b):\n    return sorted(set(a) & set(b))\n"
        assert lint_with("DET002", src) == []

    def test_allows_outside_core_paths(self):
        src = "for item in {1, 2, 3}:\n    pass\n"
        assert lint_with("DET002", src, filename=ANALYSIS_PATH) == []


# -- FRZ001: frozen-world mutation --------------------------------------


class TestFrozenMutation:
    def test_flags_annotated_world_mutation(self):
        src = (
            "def tweak(world: World) -> None:\n"
            "    world.catalog = None\n"
        )
        violations = lint_with("FRZ001", src)
        assert rule_ids(violations) == ["FRZ001"]
        assert "World" in violations[0].message

    def test_flags_factory_result_mutation(self):
        src = (
            "from repro.core.scenario import build_world\n"
            "world = build_world(seed=7)\n"
            "world.config = None\n"
        )
        assert rule_ids(lint_with("FRZ001", src)) == ["FRZ001"]

    def test_flags_augmented_assignment(self):
        src = (
            "def tweak(path: PlannedPath) -> None:\n"
            "    path.base_path_rtt_ms += 1.0\n"
        )
        assert rule_ids(lint_with("FRZ001", src)) == ["FRZ001"]

    def test_allows_mutation_inside_builder(self):
        src = (
            "def build_world(seed):\n"
            "    world = World()\n"
            "    world.config = None\n"
            "    return world\n"
        )
        assert lint_with("FRZ001", src) == []

    def test_allows_mutation_in_class_body(self):
        src = (
            "class PlannedPath:\n"
            "    def __init__(self):\n"
            "        self.base_path_rtt_ms = 0.0\n"
        )
        assert lint_with("FRZ001", src) == []


# -- ROB001: swallowed exceptions ---------------------------------------


class TestExceptionSwallow:
    def test_flags_bare_except(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except:\n"
            "    handle()\n"
        )
        violations = lint_with("ROB001", src)
        assert rule_ids(violations) == ["ROB001"]
        assert "bare except" in violations[0].message

    def test_flags_swallowed_broad_except(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert rule_ids(lint_with("ROB001", src)) == ["ROB001"]

    def test_flags_swallowed_base_exception(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except BaseException:\n"
            "    '''tolerate anything'''\n"
        )
        assert rule_ids(lint_with("ROB001", src)) == ["ROB001"]

    def test_flags_broad_member_of_tuple(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except (ValueError, Exception):\n"
            "    pass\n"
        )
        assert rule_ids(lint_with("ROB001", src)) == ["ROB001"]

    def test_broad_except_that_handles_is_allowed(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception as exc:\n"
            "    log(exc)\n"
            "    raise\n"
        )
        assert lint_with("ROB001", src) == []

    def test_narrow_except_pass_is_allowed(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except ValueError:\n"
            "    pass\n"
        )
        assert lint_with("ROB001", src) == []

    def test_applies_across_repro_not_just_the_core(self):
        src = "try:\n    risky()\nexcept:\n    pass\n"
        assert rule_ids(
            lint_with("ROB001", src, filename="src/repro/analysis/stats.py")
        ) == ["ROB001"]

    def test_test_files_exempt(self):
        src = "try:\n    risky()\nexcept:\n    pass\n"
        assert lint_with("ROB001", src, filename=TEST_PATH) == []

    def test_suppression_comment(self):
        src = (
            "try:\n"
            "    risky()\n"
            "except Exception:  # repro-lint: disable=ROB001\n"
            "    pass\n"
        )
        assert lint_with("ROB001", src) == []


# -- EXE001: worker-execution safety ------------------------------------

EXEC_PATH = "src/repro/exec/runner.py"


class TestWorkerExecSafety:
    def test_flags_lambda_process_target(self):
        src = (
            "import multiprocessing\n"
            "def launch(ctx):\n"
            "    p = ctx.Process(target=lambda: work())\n"
            "    p.start()\n"
        )
        violations = lint_with("EXE001", src, filename=EXEC_PATH)
        assert rule_ids(violations) == ["EXE001"]
        assert "lambda" in violations[0].message

    def test_flags_nested_function_process_target(self):
        src = (
            "def launch(ctx):\n"
            "    def worker():\n"
            "        work()\n"
            "    ctx.Process(target=worker).start()\n"
        )
        violations = lint_with("EXE001", src, filename=EXEC_PATH)
        assert rule_ids(violations) == ["EXE001"]
        assert "nested function" in violations[0].message

    def test_flags_nested_function_parallel_map(self):
        src = (
            "from repro.exec.pool import parallel_map\n"
            "def verify(tasks):\n"
            "    def check(task):\n"
            "        return task\n"
            "    return parallel_map(check, tasks, 4)\n"
        )
        assert rule_ids(lint_with("EXE001", src, filename=EXEC_PATH)) == [
            "EXE001"
        ]

    def test_top_level_worker_is_allowed(self):
        src = (
            "from repro.exec.pool import parallel_map\n"
            "def _worker(task):\n"
            "    return task\n"
            "def verify(tasks):\n"
            "    return parallel_map(_worker, tasks, 4)\n"
        )
        assert lint_with("EXE001", src, filename=EXEC_PATH) == []

    def test_flags_global_statement(self):
        src = (
            "_COUNT = 0\n"
            "def bump():\n"
            "    global _COUNT\n"
            "    _COUNT += 1\n"
        )
        violations = lint_with("EXE001", src, filename=EXEC_PATH)
        assert "EXE001" in rule_ids(violations)

    def test_flags_mutator_call_on_module_global(self):
        src = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE.update({key: value})\n"
        )
        violations = lint_with("EXE001", src, filename=EXEC_PATH)
        assert rule_ids(violations) == ["EXE001"]
        assert "_CACHE.update" in violations[0].message

    def test_flags_subscript_store_on_module_global(self):
        src = (
            "_RESULTS = []\n"
            "_CACHE = dict()\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert rule_ids(lint_with("EXE001", src, filename=EXEC_PATH)) == [
            "EXE001"
        ]

    def test_read_only_module_table_is_allowed(self):
        src = (
            "_SHARE = {'AF': 0.2, 'EU': 0.5}\n"
            "def lookup(continent):\n"
            "    return _SHARE[continent]\n"
        )
        assert lint_with("EXE001", src, filename=EXEC_PATH) == []

    def test_module_level_population_is_allowed(self):
        src = (
            "_TABLE = {}\n"
            "for code in ('a', 'b'):\n"
            "    _TABLE[code] = code.upper()\n"
        )
        assert lint_with("EXE001", src, filename=EXEC_PATH) == []

    def test_local_shadowing_container_is_allowed(self):
        src = (
            "def collect(tasks):\n"
            "    results = []\n"
            "    for task in tasks:\n"
            "        results.append(task)\n"
            "    return results\n"
        )
        assert lint_with("EXE001", src, filename=EXEC_PATH) == []

    def test_applies_to_measure_tree(self):
        src = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert rule_ids(lint_with("EXE001", src, filename=MEASURE_PATH)) == [
            "EXE001"
        ]

    def test_out_of_scope_tree_is_exempt(self):
        src = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert lint_with("EXE001", src, filename=ANALYSIS_PATH) == []

    def test_test_files_exempt(self):
        src = (
            "_CACHE = {}\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
        )
        assert lint_with("EXE001", src, filename=TEST_PATH) == []


# -- PERF001: per-element loops in batch functions ----------------------


class TestBatchLoop:
    def test_flags_loop_over_element_collection(self):
        src = (
            "def plan_many(pairs):\n"
            "    for pair in pairs:\n"
            "        process(pair)\n"
        )
        violations = lint_with("PERF001", src)
        assert rule_ids(violations) == ["PERF001"]
        assert "plan_many" in violations[0].message

    def test_sees_through_enumerate_and_zip(self):
        src = (
            "def execute_batch(requests, paths):\n"
            "    for i, (request, path) in enumerate(zip(requests, paths)):\n"
            "        process(request, path)\n"
        )
        assert rule_ids(lint_with("PERF001", src)) == ["PERF001"]

    def test_sees_through_attribute_and_subscript(self):
        src = (
            "def lookup_many(self):\n"
            "    for address in self.addresses[1:]:\n"
            "        self.lookup(address)\n"
        )
        assert rule_ids(lint_with("PERF001", src)) == ["PERF001"]

    def test_ignores_non_batch_functions(self):
        src = (
            "def summarize(pairs):\n"
            "    for pair in pairs:\n"
            "        process(pair)\n"
        )
        assert lint_with("PERF001", src) == []

    def test_ignores_non_element_iterables(self):
        src = (
            "def plan_many(pairs):\n"
            "    for name in sorted(columns):\n"
            "        emit(name)\n"
        )
        assert lint_with("PERF001", src) == []

    def test_only_applies_to_net_and_measure(self):
        src = (
            "def resolve_many(addresses):\n"
            "    for address in addresses:\n"
            "        resolve(address)\n"
        )
        assert lint_with("PERF001", src, filename=ANALYSIS_PATH) == []

    def test_suppression_comment(self):
        src = (
            "def plan_many(pairs):\n"
            "    for pair in pairs:  # repro-lint: disable=PERF001\n"
            "        process(pair)\n"
        )
        assert lint_with("PERF001", src) == []


# -- suppression comments -----------------------------------------------


class TestSuppressions:
    def test_line_level_disable(self):
        src = (
            "import numpy as np\n"
            "x = np.random.uniform()  # repro-lint: disable=RNG001\n"
        )
        assert lint_with("RNG001", src) == []

    def test_line_level_disable_by_name(self):
        src = (
            "import numpy as np\n"
            "x = np.random.uniform()  # repro-lint: disable=numpy-legacy-random\n"
        )
        assert lint_with("RNG001", src) == []

    def test_file_level_disable(self):
        src = (
            "# repro-lint: disable-file=RNG001\n"
            "import numpy as np\n"
            "x = np.random.uniform()\n"
            "y = np.random.normal()\n"
        )
        assert lint_with("RNG001", src) == []

    def test_disable_all_token(self):
        src = (
            "import random  # repro-lint: disable=all\n"
        )
        assert lint_with("RNG002", src) == []

    def test_unrelated_disable_does_not_mask(self):
        src = (
            "import numpy as np\n"
            "x = np.random.uniform()  # repro-lint: disable=DET001\n"
        )
        assert rule_ids(lint_with("RNG001", src)) == ["RNG001"]


# -- engine behaviour ----------------------------------------------------


class TestEngine:
    def test_syntax_error_reported_as_violation(self):
        violations = lint_source("def broken(:\n", "src/repro/x.py")
        assert len(violations) == 1
        assert violations[0].rule_id == "PARSE"

    def test_violations_sorted_by_position(self):
        src = (
            "import numpy as np\n"
            "b = np.random.normal()\n"
            "a = np.random.uniform()\n"
        )
        violations = lint_with("RNG001", src)
        assert [v.line for v in violations] == [2, 3]

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        (tmp_path / "bad.py").write_text("import random\n")
        result = lint_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert not result.ok
        assert result.counts_by_rule() == {"RNG002": 1}

    def test_lint_paths_skips_pycache(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import random\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = lint_paths([str(tmp_path)])
        assert result.files_checked == 1
        assert result.ok


# -- reporting -----------------------------------------------------------


class TestReporting:
    def _result(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        return lint_paths([str(tmp_path)])

    def test_text_report_format(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "bad.py:1:1: RNG002" in text
        assert "1 violation" in text

    def test_json_report_format(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["violation_count"] == 1
        assert payload["counts_by_rule"] == {"RNG002": 1}
        assert payload["violations"][0]["rule_id"] == "RNG002"
        assert payload["violations"][0]["line"] == 1

    def test_clean_text_report(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        text = render_text(lint_paths([str(tmp_path)]))
        assert "no violations" in text


# -- CLI -----------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_exit_one_on_violations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "RNG002" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main(["-f", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violation_count"] == 1

    def test_select_filters_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main(["--select", "RNG001", str(tmp_path)]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "DET001", "FRZ001"):
            assert rule_id in out

    def test_module_entry_point(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "RNG002" in proc.stdout


# -- self-check: the shipped tree is violation-free ---------------------


class TestSelfCheck:
    def test_src_tree_is_clean(self):
        result = lint_paths([str(REPO_ROOT / "src")])
        assert result.ok, render_text(result)

    def test_tests_and_benchmarks_are_clean(self):
        result = lint_paths(
            [
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
                str(REPO_ROOT / "examples"),
            ]
        )
        assert result.ok, render_text(result)
