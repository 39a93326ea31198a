"""Per-cell checkpoint journal for resumable experiment runs.

A long sweep is a sequence of deterministic, content-addressed
:class:`~repro.sim.parallel.SweepCell` units.  This module persists each
completed cell's :class:`~repro.sim.results.SimResult` set to an
append-only JSONL journal (``checkpoint.jsonl``) beside the run's
results, so a run killed at 80% restarts with ``repro-experiments
--resume RUN_DIR`` and re-runs only the remainder.

Records are keyed by :func:`cell_digest` — the same identity the replay
cache uses (the full resolved cell key plus
:data:`~repro.sim.replay_cache.CACHE_VERSION`), so bumping the replay
semantics invalidates checkpoints exactly when it invalidates cached
replays.

Durability model
----------------

- Each record is one line: ``{"check": <digest>, "payload": {...}}``
  where ``check`` is a blake2b digest of the canonical payload JSON.
  Every write is flushed and fsync'd before :meth:`~CheckpointJournal
  .record` returns, so a SIGKILL never loses an acknowledged cell.
- A crash (or ENOSPC) mid-write leaves at most one truncated line;
  :meth:`~CheckpointJournal.load` verifies every line's checksum and
  skips unreadable ones (counted in ``checkpoint.corrupt_records``), so
  a damaged record costs one re-run, never a wrong result.
- After a failed write the journal resynchronises by prefixing the next
  record with a newline, so one lost write cannot corrupt its
  successor.

Serialization round-trips exactly: JSON preserves Python floats
bit-for-bit (``repr``-based), so a resumed run's output is
byte-identical to an uninterrupted one —
``test_sigkill_mid_run_then_resume_matches_uninterrupted`` in
``tests/faults/test_kill_resume.py`` SIGKILLs a checkpointed run,
resumes it and compares the two reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.obs import metrics as _metrics
from repro.sim.results import SimResult

#: Journal file name inside a run directory.
CHECKPOINT_NAME = "checkpoint.jsonl"

#: Journal record schema (part of every cell digest: bumping it
#: invalidates old journals).
JOURNAL_SCHEMA = 1


def cell_digest(cell) -> str:
    """Stable identity of one sweep cell (+ replay semantics version).

    Covers every field that affects the cell's results — workload,
    configuration, model names, seed, resolved trace length, thread
    count, and the full architecture — plus
    :data:`~repro.sim.replay_cache.CACHE_VERSION` so checkpoints expire
    together with cached replays.
    """
    from repro.sim.replay_cache import CACHE_VERSION

    parts = (
        JOURNAL_SCHEMA,
        CACHE_VERSION,
        cell.workload,
        cell.configuration,
        tuple(cell.model_names),
        cell.seed,
        cell.n_accesses,
        cell.n_threads,
        repr(cell.arch) if cell.arch is not None else None,
    )
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/sequences to JSON-native types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()
    return value


def result_to_dict(result: SimResult) -> Dict[str, Any]:
    """JSON-ready form of a :class:`SimResult` (exact float round-trip)."""
    return _plain(dataclasses.asdict(result))


def result_from_dict(data: Dict[str, Any]) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_dict` output."""
    from repro.sim.energy import LLCEnergy
    from repro.sim.llc import LLCCounts
    from repro.sim.timing import CoreBreakdown, SystemTiming

    timing = dict(data["timing"])
    timing["core_breakdowns"] = [
        CoreBreakdown(**core) for core in timing["core_breakdowns"]
    ]
    return SimResult(
        workload=data["workload"],
        llc_name=data["llc_name"],
        configuration=data["configuration"],
        runtime_s=data["runtime_s"],
        energy=LLCEnergy(**data["energy"]),
        counts=LLCCounts(**data["counts"]),
        timing=SystemTiming(**timing),
        total_instructions=data["total_instructions"],
    )


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def journal_line(payload: Dict[str, Any]) -> str:
    """One checksummed journal line (no trailing newline) for ``payload``.

    The line format every durable JSONL journal in this package shares
    (the cell checkpoint here, the service job journal in
    :mod:`repro.serve.journal`): ``{"check": <blake2b of canonical
    payload JSON>, "payload": {...}}`` with sorted keys, so
    :func:`parse_journal_line` can verify integrity line-by-line.
    """
    body = _canonical(payload)
    return json.dumps(
        {"check": _checksum(body), "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


def parse_journal_line(line: str) -> Dict[str, Any]:
    """Parse and verify one :func:`journal_line`; returns the payload.

    Raises :class:`ValueError` on any damage — unparseable JSON, a
    missing field, or a checksum mismatch — so callers can skip (and
    count) corrupt records without ever trusting their contents.
    """
    try:
        record = json.loads(line)
        payload = record["payload"]
        check = record["check"]
    except (json.JSONDecodeError, KeyError, TypeError) as error:
        raise ValueError(f"unreadable journal line: {error}")
    if check != _checksum(_canonical(payload)):
        raise ValueError("journal line checksum mismatch")
    return payload


class CheckpointJournal:
    """Append-only, checksummed JSONL journal of completed sweep cells.

    Parameters
    ----------
    directory:
        The run directory; the journal lives at
        ``directory/checkpoint.jsonl``.

    One journal instance serves one run: :meth:`load` recovers whatever
    a previous (possibly killed) run left behind, :meth:`record`
    appends each newly completed cell durably.  ``recorded`` /
    ``skipped_corrupt`` count this instance's activity.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CHECKPOINT_NAME
        self.recorded = 0
        self.skipped_corrupt = 0
        self._handle = None
        self._dirty = False  # resync with a newline after a failed write

    # -- recovery ---------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, SimResult]]:
        """Recover completed cells: ``{cell_digest: {model: SimResult}}``.

        Tolerates a journal truncated at any byte offset (crash
        mid-write) and arbitrary line corruption: every line must parse
        and match its embedded checksum or it is skipped and counted —
        a damaged record merely re-runs its cell.
        """
        out: Dict[str, Dict[str, SimResult]] = {}
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return out
        except OSError as error:
            raise CheckpointError(f"unreadable checkpoint journal {self.path}: {error}")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = parse_journal_line(line)
                if payload["schema"] != JOURNAL_SCHEMA:
                    raise ValueError("unknown journal schema")
                results = {
                    name: result_from_dict(value)
                    for name, value in payload["results"].items()
                }
            except Exception:
                self.skipped_corrupt += 1
                _metrics.counter_add("checkpoint.corrupt_records")
                continue
            out[payload["key"]] = results
        return out

    # -- recording --------------------------------------------------------

    def record(self, cell, results: Dict[str, SimResult]) -> str:
        """Durably append one completed cell; returns its digest.

        Raises :class:`CheckpointError` on write failure (e.g. ENOSPC);
        the journal stays consistent — earlier records are already
        fsync'd and the next successful write resynchronises the line
        framing — so callers may treat the failure as non-fatal.
        """
        key = cell_digest(cell)
        payload = {
            "schema": JOURNAL_SCHEMA,
            "key": key,
            "workload": cell.workload,
            "configuration": cell.configuration,
            "results": {name: result_to_dict(r) for name, r in results.items()},
        }
        line = journal_line(payload)
        try:
            if self._handle is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            prefix = "\n" if self._dirty else ""
            self._handle.write(prefix + line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as error:
            self._dirty = True
            _metrics.counter_add("checkpoint.write_failures")
            raise CheckpointError(f"checkpoint write failed ({self.path}): {error}")
        self._dirty = False
        self.recorded += 1
        _metrics.counter_add("checkpoint.cells_recorded")
        return key

    def close(self) -> None:
        """Close the journal handle (safe to call repeatedly)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def discard(self) -> None:
        """Delete the journal file (fresh-run semantics for a reused
        run directory)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as error:
            raise CheckpointError(f"cannot discard {self.path}: {error}")
