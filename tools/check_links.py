#!/usr/bin/env python3
"""Markdown link checker for the repo's documentation (stdlib only).

Verifies every inline link/image in the maintained markdown set:

- relative paths must exist on disk (relative to the linking file);
- ``#anchor`` fragments — same-file or on a linked ``.md`` target —
  must match a heading slug (GitHub slugification rules);
- external schemes (``http(s)://``, ``mailto:``) are skipped: CI must
  not depend on the network.

Fenced code blocks and inline code spans are stripped first, so
``[i](j)``-looking array indexing in examples is not misread as a link.

Usage::

    python tools/check_links.py [FILE.md ...]

With no arguments, checks the default documentation set (README,
DESIGN, EXPERIMENTS, ROADMAP, docs/*.md). Exits 1 listing every broken
link, 0 when clean.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files checked when none are given: the hand-maintained docs.
DEFAULT_DOC_SET = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/COMPRESSION.md",
    "docs/CONFIGURATION.md",
    "docs/SERVING.md",
    "docs/TUTORIAL.md",
)

_FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")
# [text](target) / ![alt](target); target ends at the first unescaped ')'.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$", re.MULTILINE)
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def strip_code(text: str) -> str:
    """Remove fenced blocks and inline code spans (links inside code
    are examples, not navigation)."""
    return _INLINE_CODE_RE.sub("", _FENCE_RE.sub("", text))


def github_slug(heading: str, seen: Dict[str, int]) -> str:
    """GitHub's anchor slug for a heading text.

    Lowercase; drop everything but word characters, spaces and hyphens;
    spaces become hyphens; repeated slugs get ``-1``, ``-2``… suffixes.
    """
    # Inline code/emphasis markers render as text content on GitHub.
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    count = seen.get(slug, 0)
    seen[slug] = count + 1
    return slug if count == 0 else f"{slug}-{count}"


def heading_slugs(md_path: Path) -> Set[str]:
    """All heading anchors a markdown file exposes."""
    text = _FENCE_RE.sub("", md_path.read_text(encoding="utf-8"))
    seen: Dict[str, int] = {}
    return {github_slug(match.group(2), seen) for match in _HEADING_RE.finditer(text)}


def iter_links(md_path: Path) -> Iterable[str]:
    """Link targets in a file, code stripped."""
    text = strip_code(md_path.read_text(encoding="utf-8"))
    for match in _LINK_RE.finditer(text):
        yield match.group(1)


def check_file(md_path: Path) -> List[str]:
    """Broken-link messages for one markdown file."""
    problems: List[str] = []
    for target in iter_links(md_path):
        if target.startswith(_EXTERNAL_PREFIXES):
            continue
        path_part, _, anchor = target.partition("#")
        if path_part:
            resolved = (md_path.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(f"{md_path}: broken path {target!r}")
                continue
        else:
            resolved = md_path
        if anchor:
            if resolved.suffix.lower() != ".md" or resolved.is_dir():
                continue  # anchors into non-markdown targets: not checkable
            if anchor.lower() not in heading_slugs(resolved):
                problems.append(
                    f"{md_path}: broken anchor {target!r} "
                    f"(no heading slug {anchor.lower()!r} in {resolved.name})"
                )
    return problems


def main(argv: List[str]) -> int:
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = [REPO_ROOT / name for name in DEFAULT_DOC_SET]
    missing = [str(f) for f in files if not f.is_file()]
    if missing:
        print(f"error: no such file(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    problems: List[str] = []
    for md_path in files:
        problems.extend(check_file(md_path))
    for problem in problems:
        print(problem, file=sys.stderr)
    checked = ", ".join(f.name for f in files)
    if problems:
        print(f"{len(problems)} broken link(s) across {checked}", file=sys.stderr)
        return 1
    print(f"links OK: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
