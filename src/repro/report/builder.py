"""Markdown report assembly for experiment runs.

``repro-experiments --write report.md`` uses this to produce a single
self-contained document: one section per experiment with its rendered
tables, charts, and the run's provenance (scale, seed, versions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ExperimentError


@dataclass
class ReportBuilder:
    """Accumulates titled sections and writes one markdown document."""

    title: str
    scale: float = 1.0
    seed: int = 0
    #: Extra provenance bullets for the header (jobs, digests …).
    provenance: List[str] = field(default_factory=list)
    _sections: List[str] = field(default_factory=list)

    def add_section(self, heading: str, body: str, elapsed_s: Optional[float] = None) -> None:
        """Append one experiment section."""
        if not heading:
            raise ExperimentError("section heading must be nonempty")
        suffix = f"  _(generated in {elapsed_s:.1f}s)_" if elapsed_s is not None else ""
        self._sections.append(f"## {heading}{suffix}\n\n```\n{body}\n```")

    def add_note(self, text: str) -> None:
        """Append free-form markdown."""
        self._sections.append(text)

    @property
    def n_sections(self) -> int:
        """Sections added so far."""
        return len(self._sections)

    def render(self) -> str:
        """The complete markdown document."""
        from repro import __version__

        header = (
            f"# {self.title}\n\n"
            f"- library version: {__version__}\n"
            f"- trace scale: {self.scale}\n"
            f"- seed: {self.seed}\n"
        )
        for line in self.provenance:
            header += f"- {line}\n"
        return header + "\n" + "\n\n".join(self._sections) + "\n"

    def write(self, path: Union[str, Path]) -> Path:
        """Write the document to disk; returns the path."""
        path = Path(path)
        path.write_text(self.render())
        return path
