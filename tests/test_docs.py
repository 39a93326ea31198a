"""Documentation honesty checks: links resolve, examples run.

Mirrors the CI ``docs`` job so a broken link or a stale example in
``docs/CONFIGURATION.md`` fails locally too, not just on GitHub.
"""

import doctest
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402


class TestLinkChecker:
    def test_default_doc_set_is_clean(self, capsys):
        assert check_links.main([]) == 0

    def test_detects_broken_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md)\n")
        assert check_links.main([str(bad)]) == 1
        assert "broken path" in capsys.readouterr().err

    def test_detects_broken_anchor(self, tmp_path, capsys):
        bad = tmp_path / "bad.md"
        bad.write_text("# Only Heading\n\n[jump](#nowhere)\n")
        assert check_links.main([str(bad)]) == 1
        assert "broken anchor" in capsys.readouterr().err

    def test_good_anchor_and_path_pass(self, tmp_path):
        other = tmp_path / "other.md"
        other.write_text("# Target Section\n")
        good = tmp_path / "good.md"
        good.write_text(
            "# A Heading: with `code`\n\n"
            "[self](#a-heading-with-code) "
            "[file](other.md) [deep](other.md#target-section)\n"
        )
        assert check_links.main([str(good)]) == 0

    def test_links_inside_code_are_ignored(self, tmp_path):
        md = tmp_path / "code.md"
        md.write_text(
            "# T\n\n```python\nx = rows[i](cols[j])\n```\n"
            "and inline `a[0](b)` too\n"
        )
        assert check_links.main([str(md)]) == 0

    def test_slugs_match_github_rules(self):
        seen = {}
        assert check_links.github_slug("Observability: `repro.obs`", seen) == (
            "observability-reproobs"
        )
        seen = {}
        assert check_links.github_slug("Same", seen) == "same"
        assert check_links.github_slug("Same", seen) == "same-1"


class TestConfigurationDoctests:
    def test_examples_execute(self):
        results = doctest.testfile(
            str(REPO_ROOT / "docs" / "CONFIGURATION.md"),
            module_relative=False,
            optionflags=doctest.IGNORE_EXCEPTION_DETAIL,
        )
        assert results.attempted >= 5, "CONFIGURATION.md lost its examples"
        assert results.failed == 0

