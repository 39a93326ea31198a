"""Durable journal of queued jobs for graceful drain and restart.

On SIGTERM the daemon finishes in-flight jobs but does *not* start the
still-queued ones: it writes them here — one checksummed JSONL line per
job, the exact line format of the cell checkpoint journal
(:func:`repro.sim.checkpoint.journal_line`) — and a restarted daemon
resubmits them with their original ids, priorities and submission
times, so no accepted job is ever lost and clients can keep polling the
ids they were given across the restart.

The journal is written atomically and fsync'd
(:func:`repro.store.atomic_write`): it always describes one consistent
queued set, never a torn mixture of two drains.  Corrupt lines on load
are skipped and counted (``serve.journal.corrupt``), costing one lost
*queued* (never started) job rather than a wrong result.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.errors import ServeError
from repro.obs import metrics as _metrics
from repro.serve.jobs import Job
from repro.sim.checkpoint import journal_line, parse_journal_line
from repro.store import atomic_write

#: Journal file name inside the service state directory.
JOB_JOURNAL_NAME = "serve-jobs.jsonl"

#: Journal record schema (bump on incompatible layout changes).
JOB_JOURNAL_SCHEMA = 1


class JobJournal:
    """Atomic whole-file journal of the queued-job set."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.path = self.directory / JOB_JOURNAL_NAME
        self.skipped_corrupt = 0

    def write_jobs(self, jobs: Iterable[Job]) -> int:
        """Journal the given jobs, replacing any previous journal.

        Returns the number journaled.  The write is atomic and fsync'd;
        on any OS failure a :class:`~repro.errors.ServeError` is raised
        and the previous journal (if any) is left intact.
        """
        records = [
            {
                "schema": JOB_JOURNAL_SCHEMA,
                "id": job.id,
                "spec": job.spec.as_dict(),
                "digest": job.digest,
                "priority": job.priority,
                "submitted_unix": job.submitted_unix,
            }
            for job in jobs
        ]
        text = "".join(journal_line(record) + "\n" for record in records)
        try:
            atomic_write(self.path, text.encode("utf-8"), fsync=True)
        except OSError as error:
            raise ServeError(
                f"cannot journal queued jobs to {self.path}: {error}",
                http_status=500,
            )
        _metrics.counter_add("serve.drain.journaled", len(records))
        return len(records)

    def load(self) -> List[Dict[str, Any]]:
        """Read journaled job records (corrupt lines skipped, counted)."""
        try:
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return []
        except OSError as error:
            raise ServeError(
                f"unreadable job journal {self.path}: {error}",
                http_status=500,
            )
        records: List[Dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = parse_journal_line(line)
                if payload.get("schema") != JOB_JOURNAL_SCHEMA:
                    raise ValueError("unknown job journal schema")
                payload["id"], payload["spec"]["experiment"]
            except (ValueError, KeyError, TypeError):
                self.skipped_corrupt += 1
                _metrics.counter_add("serve.journal.corrupt")
                continue
            records.append(payload)
        return records

    def clear(self) -> None:
        """Remove the journal (after its jobs were restored)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as error:
            raise ServeError(
                f"cannot clear job journal {self.path}: {error}",
                http_status=500,
            )
