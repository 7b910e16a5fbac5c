"""API-hygiene checker: mutable defaults, swallowed errors, shadowing."""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_lint

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def lint_fixture(name):
    return run_lint(
        [FIXTURES / name],
        config=LintConfig(),
        checker_names=["hygiene"],
        base_dir=FIXTURES,
    )


class TestViolations:
    @pytest.fixture(scope="class")
    def findings(self):
        return lint_fixture("hygiene_violations.py").findings

    def test_every_rule_fires(self, findings):
        assert {f.rule_id for f in findings} == {"H001", "H002", "H003"}

    def test_all_four_mutable_default_forms(self, findings):
        flagged = [f for f in findings if f.rule_id == "H001"]
        assert len(flagged) == 4  # [], {}, set(), list()
        assert {"history", "cache", "seen", "order"} == {
            f.message.split("`")[1] for f in flagged
        }

    def test_swallowing_handlers(self, findings):
        flagged = [f for f in findings if f.rule_id == "H002"]
        assert len(flagged) == 2
        assert any("bare" in f.message for f in flagged)
        assert any("Exception" in f.message for f in flagged)

    def test_shadowed_builtins(self, findings):
        names = {
            f.message.split("`")[1]
            for f in findings
            if f.rule_id == "H003"
        }
        assert names == {"list", "sum", "id"}


class TestCleanCode:
    def test_hygienic_fixture_passes(self):
        assert lint_fixture("hygiene_clean.py").findings == []

    def test_reraising_broad_handler_is_accepted(self, tmp_path):
        path = tmp_path / "handler.py"
        path.write_text(
            "def f(g):\n"
            "    try:\n"
            "        return g()\n"
            "    except Exception as error:\n"
            "        raise RuntimeError('context') from error\n"
        )
        result = run_lint([path], checker_names=["hygiene"], base_dir=tmp_path)
        assert result.findings == []

    def test_immutable_call_default_is_accepted(self, tmp_path):
        path = tmp_path / "defaults.py"
        path.write_text(
            "def f(size=tuple(), label=frozenset({1})):\n"
            "    return size, label\n"
        )
        result = run_lint([path], checker_names=["hygiene"], base_dir=tmp_path)
        assert result.findings == []


class TestRepoHygiene:
    def test_repo_sources_are_hygienic(self):
        repo = Path(__file__).parent.parent
        result = run_lint(
            [repo / "src", repo / "benchmarks", repo / "examples"],
            checker_names=["hygiene"],
            base_dir=repo,
        )
        assert result.findings == []
