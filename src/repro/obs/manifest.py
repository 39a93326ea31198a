"""Run manifests: provenance written beside every instrumented run.

A run that collects metrics drops two files next to its results:

- ``manifest.json`` — *what ran*: package version, python/platform,
  creation time, the run settings (scale, seed, cache
  configuration, jobs, …), a stable :func:`config_digest` of those
  settings, per-stage wall-clock timings derived from the top-level
  spans, and the run's peak memory (:func:`peak_rss_mb`);
- ``metrics.json`` — *what happened*: the full
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` (counters, gauges,
  timer histograms, span records).

``repro-experiments metrics-summary RESULTS_DIR`` reads the pair back
(:func:`load_run`) and renders them with :mod:`repro.obs.report`.  Both
files are plain JSON so external tooling — notebooks, dashboards, diff
scripts — can consume them without importing this package.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

#: File names written beside a run's results.
MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.json"

#: Manifest schema version (bump on incompatible layout changes).
MANIFEST_SCHEMA = 1

#: Keys every manifest must carry (validated on load and in tests).
REQUIRED_MANIFEST_KEYS = (
    "schema",
    "package",
    "version",
    "python",
    "platform",
    "created_unix",
    "settings",
    "config_digest",
    "stages",
)


def config_digest(settings: Dict[str, Any]) -> str:
    """Stable hex digest of a settings mapping.

    Canonical JSON (sorted keys, no whitespace variance) hashed with
    blake2b, so two runs with identical settings — regardless of dict
    order or which process computed it — share a digest.

    >>> config_digest({"scale": 1.0, "seed": 42}) == config_digest(
    ...     {"seed": 42, "scale": 1.0})
    True
    """
    canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def stage_timings(snapshot: Dict[str, Any]) -> list:
    """Per-stage wall-clock record from a metrics snapshot.

    Top-level spans (``path == name``) aggregated by name — one entry
    per stage with its occurrence count and total/max elapsed time, in
    first-completion order.  Worker-side replay spans are top-level too
    (the enclosing experiment span lives in the parent process), so
    aggregation is what keeps a ``--jobs`` manifest readable.
    """
    stages: Dict[str, Dict[str, Any]] = {}
    for record in snapshot.get("spans", []):
        if record.get("path") != record.get("name"):
            continue
        entry = stages.setdefault(
            record["name"], {"name": record["name"], "count": 0,
                             "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += record["elapsed_s"]
        entry["max_s"] = max(entry["max_s"], record["elapsed_s"])
    return list(stages.values())


def peak_rss_mb(workers: bool) -> Dict[str, float]:
    """Peak resident memory in MB from :func:`resource.getrusage`.

    ``peak_rss_mb`` is this process's high-water mark; with ``workers``
    (a ``--jobs`` run), ``worker_peak_rss_mb`` is the largest reaped
    child's, when one has exited.  Empty where the ``resource`` module
    is missing (Windows).
    """
    try:
        import resource
    except ImportError:
        return {}
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024
    out = {
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / per_mb, 1
        )
    }
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if workers and children:
        out["worker_peak_rss_mb"] = round(children / per_mb, 1)
    return out


def build_manifest(
    settings: Dict[str, Any],
    snapshot: Optional[Dict[str, Any]] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict from run settings (+ optional metrics).

    ``resume`` records a checkpointed run's provenance — where it
    resumed from and how many cells were skipped vs newly journaled —
    as an optional top-level ``"resume"`` key (absent for
    uncheckpointed runs, so the required-key set is unchanged).  The
    :func:`peak_rss_mb` keys are optional too; the worker's is read
    when ``settings["jobs"]`` is over 1.
    """
    from repro import __version__

    manifest = {
        "schema": MANIFEST_SCHEMA,
        "package": "repro",
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "created_unix": time.time(),
        "settings": dict(settings),
        "config_digest": config_digest(settings),
        "stages": stage_timings(snapshot) if snapshot else [],
    }
    manifest.update(peak_rss_mb(workers=settings.get("jobs", 1) > 1))
    if resume is not None:
        manifest["resume"] = dict(resume)
    return manifest


def validate_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Check manifest shape; returns it unchanged or raises ReproError."""
    if not isinstance(manifest, dict):
        raise ReproError("manifest must be a JSON object")
    missing = [key for key in REQUIRED_MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ReproError(f"manifest missing keys: {', '.join(missing)}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise ReproError(
            f"manifest schema {manifest['schema']} unsupported "
            f"(expected {MANIFEST_SCHEMA})"
        )
    return manifest


def write_run_files(
    out_dir: Union[str, Path],
    settings: Dict[str, Any],
    registry: MetricsRegistry,
    resume: Optional[Dict[str, Any]] = None,
) -> Tuple[Path, Path]:
    """Write ``manifest.json`` + ``metrics.json`` into ``out_dir``.

    The directory is created if needed; returns the two paths.
    ``resume`` (see :func:`build_manifest`) records checkpoint/resume
    provenance for checkpointed runs.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = registry.snapshot()
    manifest = build_manifest(settings, snapshot, resume=resume)
    manifest_path = out_dir / MANIFEST_NAME
    metrics_path = out_dir / METRICS_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    metrics_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return manifest_path, metrics_path


def _resolve(path: Union[str, Path], default_name: str) -> Path:
    path = Path(path)
    return path / default_name if path.is_dir() else path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a manifest (accepts the file or its directory)."""
    path = _resolve(path, MANIFEST_NAME)
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(f"no manifest at {path}")
    except json.JSONDecodeError as error:
        raise ReproError(f"unreadable manifest {path}: {error}")
    return validate_manifest(manifest)


def load_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a metrics snapshot (accepts the file or its directory)."""
    path = _resolve(path, METRICS_NAME)
    try:
        snapshot = json.loads(path.read_text())
    except FileNotFoundError:
        raise ReproError(f"no metrics file at {path}")
    except json.JSONDecodeError as error:
        raise ReproError(f"unreadable metrics file {path}: {error}")
    if not isinstance(snapshot, dict) or "counters" not in snapshot:
        raise ReproError(f"{path} is not a metrics snapshot")
    return snapshot


def load_run(
    path: Union[str, Path]
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Load (metrics, manifest-or-None) for a results directory or a
    direct ``metrics.json`` path — what ``metrics-summary`` consumes."""
    path = Path(path)
    directory = path if path.is_dir() else path.parent
    metrics = load_metrics(path if not path.is_dir() else directory)
    try:
        manifest = load_manifest(directory)
    except ReproError:
        manifest = None
    return metrics, manifest
