"""Engine-level tests: pragmas, package anchoring, runner, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import (
    PRAGMA_RULE_CODE,
    ModuleContext,
    Rule,
    Violation,
    apply_pragmas,
    load_module,
    module_package,
    run_analysis,
)

from .helpers import codes, make_module


class AlwaysFlagCalls(Rule):
    """Test rule: flags every function call it sees."""

    code = "RA901"
    summary = "test rule flagging every call"

    def check_module(self, module):
        import ast

        return [
            module.violation(self.code, node, "a call")
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
        ]


RULE = AlwaysFlagCalls()


def run_rule(module: ModuleContext) -> list[Violation]:
    return apply_pragmas(module, list(RULE.check_module(module)))


class TestModulePackage:
    def test_src_layout_anchors_at_repro(self):
        path = Path("src/repro/serve/queues.py")
        assert module_package(path) == "repro.serve.queues"

    def test_init_maps_to_package_itself(self):
        assert module_package(Path("src/repro/serve/__init__.py")) == (
            "repro.serve"
        )

    def test_file_outside_repro_gets_bare_stem(self):
        path = Path("benchmarks/compare_bench.py")
        assert module_package(path) == "compare_bench"

    def test_rightmost_repro_directory_wins(self):
        path = Path("backup/repro/old/repro/nn/layers.py")
        assert module_package(path) == "repro.nn.layers"


class TestPragmas:
    def test_justified_line_pragma_suppresses(self):
        module = make_module(
            "x = f()  # repro: noqa[RA901] -- test justification\n"
        )
        assert run_rule(module) == []

    def test_pragma_without_reason_is_reported_and_suppresses_nothing(self):
        module = make_module("x = f()  # repro: noqa[RA901]\n")
        found = run_rule(module)
        assert codes(found) == ["RA901", PRAGMA_RULE_CODE]

    def test_unused_pragma_is_reported(self):
        module = make_module(
            "x = 1  # repro: noqa[RA901] -- nothing here to suppress\n"
        )
        found = run_rule(module)
        assert codes(found) == [PRAGMA_RULE_CODE]
        assert "suppresses nothing" in found[0].message

    def test_filewide_pragma_covers_every_line(self):
        module = make_module(
            "# repro: noqa-file[RA901] -- test opt-out\n"
            "x = f()\n"
            "y = g()\n"
        )
        assert run_rule(module) == []

    def test_pragma_only_covers_listed_codes(self):
        module = make_module(
            "x = f()  # repro: noqa[RA902] -- wrong code\n"
        )
        found = run_rule(module)
        # The violation survives AND the pragma is flagged as unused.
        assert codes(found) == ["RA901", PRAGMA_RULE_CODE]

    def test_multi_code_pragma(self):
        module = make_module(
            "x = f()  # repro: noqa[RA901,RA902] -- covers both\n"
        )
        assert run_rule(module) == []

    def test_selection_ignores_other_rules_pragmas(self):
        # A --select run must not flag pragmas that belong to rules it
        # did not execute (they are neither used nor provably stale).
        module = make_module(
            "x = 1  # repro: noqa[RA777] -- belongs to an unselected rule\n"
            "y = f()\n"
        )
        found = apply_pragmas(
            module, list(RULE.check_module(module)), active=["RA901"]
        )
        assert codes(found) == ["RA901"]

    def test_selection_still_polices_own_pragmas(self):
        module = make_module(
            "x = 1  # repro: noqa[RA901] -- nothing here to suppress\n"
        )
        found = apply_pragmas(module, [], active=["RA901"])
        assert codes(found) == [PRAGMA_RULE_CODE]

    def test_multi_code_pragma_not_stale_under_partial_selection(self):
        # noqa[RA901,RA902] with only RA901 active and unused: RA902
        # might be the code it suppresses, so staleness is unprovable.
        module = make_module(
            "x = 1  # repro: noqa[RA901,RA902] -- for the other rule\n"
        )
        found = apply_pragmas(module, [], active=["RA901"])
        assert found == []

    def test_pragma_examples_in_docstrings_are_ignored(self):
        module = make_module(
            '"""Doc.\n\n    x = f()  # repro: noqa[RA901] -- example\n"""\n'
            "y = 1\n"
        )
        assert run_rule(module) == []


class TestRunner:
    def test_clean_tree_reports_ok(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = 1\n")
        report = run_analysis([tmp_path], rules=[RULE], root=tmp_path)
        assert report.ok
        assert report.files_checked == 1

    def test_violations_sorted_and_rendered(self, tmp_path):
        (tmp_path / "b.py").write_text("x = f()\n")
        (tmp_path / "a.py").write_text("y = g()\nz = h()\n")
        report = run_analysis([tmp_path], rules=[RULE], root=tmp_path)
        assert not report.ok
        paths = [violation.path for violation in report.violations]
        assert paths == sorted(paths)
        first = report.violations[0]
        assert first.render() == f"{first.path}:{first.line}: RA901 a call"

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def oops(:\n")
        report = run_analysis([tmp_path], rules=[RULE], root=tmp_path)
        assert not report.ok
        assert report.violations[0].rule == PRAGMA_RULE_CODE
        assert "does not parse" in report.violations[0].message

    def test_select_unknown_code_raises(self, tmp_path):
        with pytest.raises(ValueError, match="RA777"):
            run_analysis([tmp_path], rules=[RULE], select=["RA777"])

    def test_json_report_shape(self, tmp_path):
        (tmp_path / "mod.py").write_text("x = f()\n")
        report = run_analysis([tmp_path], rules=[RULE], root=tmp_path)
        payload = json.loads(report.render_json())
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "RA901"

    def test_load_module_relative_paths(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        module = load_module(target, root=tmp_path)
        assert module.relative == str(Path("pkg") / "mod.py")


class TestCli:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_list_rules_names_the_catalog(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for code in ("RA001", "RA002", "RA007"):
            assert code in result.stdout

    def test_no_paths_is_usage_error(self):
        result = self.run_cli()
        assert result.returncode == 2

    def test_violation_exits_one_clean_exits_zero(self, tmp_path):
        bad = tmp_path / "repro" / "serve" / "thing.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('"""Doc."""\nimport queue\nq = queue.Queue()\n')
        result = self.run_cli(str(bad), "--repo", str(tmp_path))
        assert result.returncode == 1
        assert "RA002" in result.stdout

        bad.write_text(
            '"""Doc."""\nimport queue\nq = queue.Queue(maxsize=8)\n'
        )
        result = self.run_cli(str(bad), "--repo", str(tmp_path))
        assert result.returncode == 0, result.stdout

    def test_json_format(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        result = self.run_cli(str(target), "--format", "json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True

    def test_repo_gate_is_clean(self):
        """The committed tree passes its own lint gate."""
        repo = Path(__file__).resolve().parents[2]
        result = self.run_cli(
            str(repo / "src" / "repro"), "--repo", str(repo)
        )
        assert result.returncode == 0, result.stdout
