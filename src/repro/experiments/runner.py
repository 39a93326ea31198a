"""Run-everything CLI: ``repro-experiments`` / ``python -m repro.experiments.runner``.

Regenerates every table and figure of the paper and prints them as
text tables.  ``--scale`` shortens traces for quick runs; ``--only``
restricts to a subset of experiments; ``--jobs`` fans simulation cells
out over worker processes.

Observability (:mod:`repro.obs`): ``--metrics`` collects run telemetry —
per-experiment spans, replay-cache hit rates, per-worker cell timings —
and writes ``manifest.json`` + ``metrics.json`` beside the run's
results (next to ``--write``'s report when given, else under
``results/``); ``--trace-file`` additionally streams every completed
span as JSON lines.  ``repro-experiments metrics-summary RESULTS_DIR``
renders a saved pair back as a human-readable report.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.experiments import (
    compression,
    coresweep,
    dse,
    lifetime,
    sensitivity,
    techniques_study,
    figure1,
    figure2,
    figure4,
    table2,
    table3,
    table5,
    table6,
)
from repro.experiments.common import ExperimentContext
from repro.obs import metrics as _metrics
from repro.obs.manifest import write_run_files
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressLine

#: Experiment ids in run order.
EXPERIMENTS = (
    "table2",
    "table3",
    "table5",
    "table6",
    "figure1",
    "figure2",
    "figure4",
    "coresweep",
    "lifetime",
    "techniques",
    "compression",
    "sensitivity",
)

#: The design-space exploration (``--only dse``): not part
#: of the default full run — it explores beyond the paper's figures —
#: but dispatchable everywhere an experiment id is accepted.
DSE_EXPERIMENT = "dse"

#: Every dispatchable experiment id (the paper set plus ``dse``).
ALL_EXPERIMENTS = EXPERIMENTS + (DSE_EXPERIMENT,)

#: Default directory for manifest/metrics when ``--write`` gives no home.
DEFAULT_RESULTS_DIR = "results"


def run_experiment(name: str, context: ExperimentContext, features=None):
    """Run one experiment by id; returns ``(title, rendered_text, features)``.

    The single dispatch point every front end shares: :func:`run_all`,
    the experiment service (:mod:`repro.serve`) and the golden-result
    suite all produce their output through this function, so their
    renders are identical by construction.

    ``features`` threads the Table VI result through to Figure 4 so a
    full run computes it once; a standalone Figure 4 run recomputes it.
    The returned ``features`` is the Table VI result when this
    experiment produced one, else the value passed in.
    """
    if name == "table2":
        return "Table II", table2.render(table2.run()), features
    if name == "table3":
        result = table3.run()
        text = (
            table3.render(result, "fixed-capacity")
            + "\n\n"
            + table3.render(result, "fixed-area")
        )
        return "Table III", text, features
    if name == "table5":
        return "Table V", table5.render(table5.run(context)), features
    if name == "table6":
        features = table6.run(context)
        return "Table VI", table6.render(features), features
    if name == "figure1":
        return "Figure 1", figure1.render(figure1.run(context)), features
    if name == "figure2":
        return "Figure 2", figure2.render(figure2.run(context)), features
    if name == "figure4":
        return (
            "Figure 4",
            figure4.render(figure4.run(context, features)),
            features,
        )
    if name == "coresweep":
        return (
            "Core sweep (Section V-C)",
            coresweep.render(coresweep.run(context=context)),
            features,
        )
    if name == "lifetime":
        return (
            "Lifetime study (Section VII)",
            lifetime.render(lifetime.run(context)),
            features,
        )
    if name == "techniques":
        return (
            "Techniques study (extension)",
            techniques_study.render(techniques_study.run(context)),
            features,
        )
    if name == "compression":
        return (
            "Compressed LLC study (extension)",
            compression.render(compression.run(context)),
            features,
        )
    if name == "sensitivity":
        return (
            "Sensitivity study (extension)",
            sensitivity.render(sensitivity.run(context=context)),
            features,
        )
    if name == DSE_EXPERIMENT:
        return (
            "Design-space exploration (extension)",
            dse.render(dse.run(context)),
            features,
        )
    from repro.errors import ExperimentError
    from repro.validate.schema import unknown_key_message

    raise ExperimentError(
        unknown_key_message("experiment", name, list(ALL_EXPERIMENTS))
    )


def _run_settings(
    scale: float, only: Optional[str], jobs: Optional[int],
    write_path: Optional[str], trace_file: Optional[str], seed: int,
    run_dir: Optional[str] = None, resumed_from: Optional[str] = None,
    policy=None,
) -> dict:
    """The provenance settings recorded in the run manifest."""
    from repro.sim.parallel import resolve_jobs
    from repro.sim.replay_cache import cache_enabled, default_cache_dir
    from repro.validate.policy import current_policy

    return {
        "scale": scale,
        "seed": seed,
        "only": only,
        "jobs": resolve_jobs(jobs),
        "cache_dir": str(default_cache_dir()),
        "cache_enabled": cache_enabled(),
        "write_path": write_path,
        "trace_file": trace_file,
        "run_dir": run_dir,
        "resumed_from": resumed_from,
        "cell_timeout_s": policy.cell_timeout_s if policy else None,
        "cell_retries": policy.max_retries if policy else None,
        "validate": current_policy().value,
    }


def run_all(
    scale: float = 1.0,
    only: Optional[str] = None,
    stream=None,
    write_path: Optional[str] = None,
    jobs: Optional[int] = None,
    metrics: bool = False,
    trace_file: Optional[str] = None,
    metrics_dir: Optional[str] = None,
    run_dir: Optional[str] = None,
    resume: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    cell_retries: Optional[int] = None,
    validate: Optional[str] = None,
) -> None:
    """Run the requested experiments; print renders and optionally write
    a markdown report (``write_path``).

    ``jobs`` fans simulation cells out over worker processes (0 = one
    per CPU); the default runs everything serially in-process.
    ``metrics`` (or ``trace_file``) turns on :mod:`repro.obs` collection
    for the run and writes ``manifest.json`` + ``metrics.json`` into
    ``metrics_dir`` (default: the run directory if given, else the
    report's directory, else ``results/``).

    ``run_dir`` makes the run *checkpointed*: every completed sweep
    cell is journaled to ``RUN_DIR/checkpoint.jsonl``
    (:mod:`repro.sim.checkpoint`) so a killed run can restart with
    ``resume`` — which reuses the journal and skips completed cells,
    producing output byte-identical to an uninterrupted run.
    ``cell_timeout`` / ``cell_retries`` configure the sweep fault
    policy (:class:`~repro.sim.parallel.FaultPolicy`).
    """
    from repro.report.builder import ReportBuilder
    from repro.sim.checkpoint import CheckpointJournal
    from repro.sim.parallel import FaultPolicy
    from repro.workloads.generators import DEFAULT_SEED

    if stream is None:
        # Resolve at call time so test harnesses that swap sys.stdout
        # capture the output.
        stream = sys.stdout

    if resume is not None:
        if run_dir is not None and Path(run_dir) != Path(resume):
            from repro.errors import ExperimentError

            raise ExperimentError("--resume and --run-dir name different "
                                  "directories; pass only --resume")
        run_dir = resume

    policy = FaultPolicy.from_env(cell_timeout, cell_retries)
    checkpoint = None
    if run_dir is not None:
        checkpoint = CheckpointJournal(run_dir)
        if resume is None:
            checkpoint.discard()  # fresh run: a stale journal would lie

    context = ExperimentContext(
        scale=scale, jobs=jobs, checkpoint=checkpoint, fault_policy=policy,
        validate=validate,
    )
    # Settings are gathered after the context resolves the validation
    # policy so the manifest records what the run actually enforced.
    settings = _run_settings(
        scale, only, jobs, write_path, trace_file, DEFAULT_SEED,
        run_dir=run_dir, resumed_from=resume, policy=policy,
    )
    if resume is not None:
        stream.write(
            f"resuming from {resume}: {len(context._checkpointed)} "
            "journaled cells will be skipped\n"
        )
    features = None
    report = ReportBuilder(
        title="NVM-LLC reproduction — experiment report",
        scale=scale,
        seed=DEFAULT_SEED,
        provenance=[f"jobs: {settings['jobs']}"],
    )

    def emit(title: str, text: str, elapsed: float) -> None:
        stream.write(f"\n{'=' * 72}\n{title}  [{elapsed:.1f}s]\n{'=' * 72}\n")
        stream.write(text + "\n")
        report.add_section(title, text, elapsed_s=elapsed)

    def run_one(name: str) -> Tuple[str, str]:
        nonlocal features
        title, text, features = run_experiment(name, context, features)
        return title, text

    # ``dse`` is opt-in: a full run covers the paper set only.
    selected = [
        name
        for name in ALL_EXPERIMENTS
        if (only is None and name != DSE_EXPERIMENT) or name == only
    ]

    registry: Optional[MetricsRegistry] = None
    previous = _metrics.get_registry()
    if metrics or trace_file:
        registry = _metrics.enable(MetricsRegistry(trace_path=trace_file))
    try:
        with ProgressLine(total=len(selected), label="experiments") as progress:
            for position, name in enumerate(selected, 1):
                progress.update(f"[{position}/{len(selected)} experiments] {name} ...")
                start = time.time()
                with _metrics.span(f"experiment.{name}"):
                    title, text = run_one(name)
                emit(title, text, time.time() - start)
                progress.tick(name)

        if write_path is not None:
            path = report.write(write_path)
            stream.write(f"\nreport written to {path}\n")

        if checkpoint is not None:
            stream.write(
                f"checkpoint: {context.cells_skipped} cells skipped, "
                f"{checkpoint.recorded} newly journaled "
                f"({checkpoint.path})\n"
            )

        if registry is not None:
            out_dir = Path(
                metrics_dir
                if metrics_dir is not None
                else (
                    run_dir
                    if run_dir is not None
                    else (Path(write_path).parent if write_path else DEFAULT_RESULTS_DIR)
                )
            )
            resume_info = None
            if checkpoint is not None:
                resume_info = {
                    "resumed_from": resume,
                    "cells_skipped": context.cells_skipped,
                    "cells_recorded": checkpoint.recorded,
                }
            manifest_path, metrics_path = write_run_files(
                out_dir, settings, registry, resume=resume_info
            )
            stream.write(f"run manifest written to {manifest_path}\n")
            stream.write(f"run metrics written to {metrics_path}\n")
    finally:
        if checkpoint is not None:
            checkpoint.close()
        if registry is not None:
            registry.close()
            if previous is not None:
                _metrics.enable(previous)
            else:
                _metrics.disable()


def metrics_summary_main(argv: Optional[List[str]] = None, stream=None) -> int:
    """``repro-experiments metrics-summary`` — render saved run metrics."""
    from repro.errors import ReproError, render_error
    from repro.obs.manifest import load_run
    from repro.obs.report import render_summary

    parser = argparse.ArgumentParser(
        prog="repro-experiments metrics-summary",
        description="Render manifest.json + metrics.json from an "
        "instrumented run as a human-readable summary.",
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=DEFAULT_RESULTS_DIR,
        help="results directory (or metrics.json path) from a --metrics "
        f"run (default: {DEFAULT_RESULTS_DIR}/)",
    )
    args = parser.parse_args(argv)
    if stream is None:
        stream = sys.stdout
    try:
        metrics, manifest = load_run(args.path)
    except ReproError as error:
        print(render_error(error), file=sys.stderr)
        return error.exit_code
    stream.write(render_summary(metrics, manifest))
    return 0


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "metrics-summary":
        return metrics_summary_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures "
        "(or `repro-experiments metrics-summary` to render saved run metrics).",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="trace-length scale in (0, 1]; below ~0.5 capacity effects fade",
    )
    parser.add_argument(
        "--only",
        choices=ALL_EXPERIMENTS,
        default=None,
        help="run a single experiment",
    )
    parser.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="also write a markdown report to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for simulation cells (0 = one per CPU)",
    )
    checkpoint_group = parser.add_mutually_exclusive_group()
    checkpoint_group.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="checkpoint every completed sweep cell to DIR/checkpoint.jsonl "
        "(a fresh run: any existing journal there is discarded)",
    )
    checkpoint_group.add_argument(
        "--resume",
        metavar="RUN_DIR",
        default=None,
        help="resume an interrupted checkpointed run: skip cells journaled "
        "in RUN_DIR/checkpoint.jsonl and append the remainder",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-cell timeout for parallel sweeps "
        "(also: REPRO_CELL_TIMEOUT; default: no timeout)",
    )
    parser.add_argument(
        "--cell-retries",
        type=int,
        metavar="N",
        default=None,
        help="retries per cell for transient worker failures "
        "(also: REPRO_CELL_RETRIES; default: 2)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        default=_metrics.metrics_env_enabled(),
        help="collect run telemetry and write manifest.json + metrics.json "
        "beside the results (also: REPRO_METRICS=1)",
    )
    parser.add_argument(
        "--trace-file",
        metavar="PATH",
        default=os.environ.get(_metrics.TRACE_FILE_ENV) or None,
        help="stream completed tracing spans to PATH as JSON lines "
        "(implies --metrics; also: REPRO_TRACE_FILE)",
    )
    parser.add_argument(
        "--metrics-dir",
        metavar="DIR",
        default=None,
        help="directory for manifest.json/metrics.json (default: the "
        "--write report's directory, else results/)",
    )
    parser.add_argument(
        "--validate",
        choices=("strict", "lenient", "off"),
        default=None,
        help="input/output validation policy for this run "
        "(also: REPRO_VALIDATE; default: strict)",
    )
    args = parser.parse_args(argv)
    from repro.errors import PartialResultError, ReproError, render_error

    try:
        run_all(
            scale=args.scale,
            only=args.only,
            write_path=args.write,
            jobs=args.jobs,
            metrics=args.metrics,
            trace_file=args.trace_file,
            metrics_dir=args.metrics_dir,
            run_dir=args.run_dir,
            resume=args.resume,
            cell_timeout=args.cell_timeout,
            cell_retries=args.cell_retries,
            validate=args.validate,
        )
    except PartialResultError as error:
        print(render_error(error), file=sys.stderr)
        run_dir = args.resume or args.run_dir
        if run_dir:
            print(
                f"completed cells are journaled; rerun with "
                f"--resume {run_dir} to finish the remainder",
                file=sys.stderr,
            )
        return error.exit_code
    except ReproError as error:
        print(render_error(error), file=sys.stderr)
        return error.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
