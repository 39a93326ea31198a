"""``repro-cli doctor`` — self-check for environment, library and model.

Four check classes, run in order, each mapped to a documented exit
code (``docs/CONFIGURATION.md``, "Exit codes"):

- **environment** (exit :data:`EXIT_ENVIRONMENT`): interpreter/numpy
  versions, replay-cache directory writability, fsync support for the
  checkpoint journal, worker-process spawn;
- **cell library** (exit :data:`EXIT_CELLS`): every Table II cell
  passes completeness (:func:`~repro.cells.validation.require_complete`
  after heuristic 1) and plausibility
  (:func:`~repro.cells.validation.require_plausible`);
- **model generation** (exit :data:`EXIT_MODELS`): the circuit model
  produces a guard-clean LLC model for every NVM cell, and the
  published Table III models pass the model guard and the
  fixed-capacity/fixed-area sweep invariants;
- **golden sweep** (exit :data:`EXIT_SWEEP`): a tiny deterministic
  trace runs end to end — private filter, LLC replay, timing, energy —
  with every result passing :func:`~repro.validate.guard.guard_result`
  and the speedup/energy ratios landing in a sane range.

``repro-cli doctor`` exits 0 when every check passes; otherwise it
exits with the code of the *first failing class* and prints one
``FAIL`` line per failed check (structured, no tracebacks).
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable, List, Tuple

#: Exit codes per failure class (documented in docs/CONFIGURATION.md).
EXIT_ENVIRONMENT = 10
EXIT_CELLS = 11
EXIT_MODELS = 12
EXIT_SWEEP = 13

#: Golden-sweep inputs: small enough to run in about a second, below
#: the replay cache's minimum-accesses threshold so the check never
#: depends on (or pollutes) cache state.
GOLDEN_WORKLOAD = "leela"
GOLDEN_ACCESSES = 8000
GOLDEN_MODEL = "Xue_S"


def _worker_ping(value: int) -> int:
    """Module-level (hence picklable) probe for the spawn check."""
    return value + 1


def _check_interpreter() -> str:
    import numpy

    return (
        f"python {sys.version.split()[0]}, numpy {numpy.__version__}"
    )


def _check_cache_dir() -> str:
    from repro.sim.replay_cache import ReplayCache

    cache = ReplayCache()
    if not cache.enabled:
        return f"replay cache disabled ({cache.root} untouched)"
    cache.root.mkdir(parents=True, exist_ok=True)
    probe = cache.root / ".doctor-probe"
    probe.write_bytes(b"ok")
    probe.unlink()
    return f"replay cache writable at {cache.root}"


def _check_fsync() -> str:
    fd, path = tempfile.mkstemp(prefix="repro-doctor-")
    try:
        os.write(fd, b"journal-probe\n")
        os.fsync(fd)
    finally:
        os.close(fd)
        os.unlink(path)
    return "journal fsync supported"


def _check_worker_spawn() -> str:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        result = pool.submit(_worker_ping, 41).result(timeout=120)
    if result != 42:
        raise RuntimeError(f"worker returned {result!r}, expected 42")
    return "worker process spawn ok"


def _check_cell_library() -> str:
    from repro.cells.heuristics import apply_electrical_properties
    from repro.cells.library import ALL_CELLS
    from repro.cells.validation import require_complete, require_plausible

    for cell in ALL_CELLS:
        filled = apply_electrical_properties(cell)
        if cell.cell_class.is_nvm:
            require_complete(filled)
        require_plausible(filled)
    return f"{len(ALL_CELLS)} cells complete and plausible"


def _check_generated_models() -> str:
    from repro import units
    from repro.cells.library import NVM_CELLS
    from repro.nvsim.config import CacheDesign
    from repro.nvsim.model import generate_llc_model
    from repro.validate.guard import guard_model

    design = CacheDesign(capacity_bytes=2 * units.MB)
    for cell in NVM_CELLS:
        guard_model(generate_llc_model(cell, design))
    return f"{len(NVM_CELLS)} generated models guard-clean"


def _check_published_models() -> str:
    from repro.nvsim.config import FIXED_AREA_BUDGET_MM2
    from repro.nvsim.published import published_models
    from repro.nvsim.sweep import CAPACITY_LADDER
    from repro.validate.guard import check_sweep_models, guard_model

    count = 0
    for configuration in ("fixed-capacity", "fixed-area"):
        models = published_models(configuration)
        for model in models:
            guard_model(model)
            count += 1
        check_sweep_models(
            models, configuration,
            area_budget_mm2=FIXED_AREA_BUDGET_MM2,
            min_capacity_bytes=CAPACITY_LADDER[0],
        )
    return f"{count} published models guard-clean, invariants hold"


def _check_golden_sweep() -> str:
    from repro.nvsim.published import published_model, sram_baseline
    from repro.sim.results import normalize
    from repro.sim.system import SimulationSession
    from repro.validate.guard import guard_result
    from repro.workloads.generators import generate_trace

    trace = generate_trace(GOLDEN_WORKLOAD, n_accesses=GOLDEN_ACCESSES)
    session = SimulationSession(trace)
    baseline = guard_result(session.run(sram_baseline()))
    result = guard_result(session.run(published_model(GOLDEN_MODEL)))
    norm = normalize(result, baseline)
    if not 0.01 < norm.speedup < 100.0:
        raise RuntimeError(f"golden speedup {norm.speedup:.3f} out of range")
    if not 0.0 < norm.energy_ratio < 1000.0:
        raise RuntimeError(
            f"golden energy ratio {norm.energy_ratio:.3f} out of range"
        )
    return (
        f"{GOLDEN_WORKLOAD}/{GOLDEN_MODEL} sweep ok "
        f"(speedup {norm.speedup:.2f}, energy {norm.energy_ratio:.2f}x)"
    )


#: ``(class exit code, check name, check callable)`` in run order.
CHECKS: List[Tuple[int, str, Callable[[], str]]] = [
    (EXIT_ENVIRONMENT, "interpreter", _check_interpreter),
    (EXIT_ENVIRONMENT, "cache dir", _check_cache_dir),
    (EXIT_ENVIRONMENT, "journal fsync", _check_fsync),
    (EXIT_ENVIRONMENT, "worker spawn", _check_worker_spawn),
    (EXIT_CELLS, "cell library", _check_cell_library),
    (EXIT_MODELS, "generated models", _check_generated_models),
    (EXIT_MODELS, "published models", _check_published_models),
    (EXIT_SWEEP, "golden sweep", _check_golden_sweep),
]


def run_doctor(stream=None) -> int:
    """Run every doctor check; return 0 or the first failing class code.

    Prints one line per check; failures show the error class and
    message, never a traceback.
    """
    if stream is None:
        stream = sys.stdout
    width = max(len(name) for _, name, _ in CHECKS)
    first_failure = 0
    for exit_code, name, check in CHECKS:
        try:
            detail = check()
        except Exception as error:
            stream.write(
                f"doctor: {name:<{width}}  FAIL "
                f"[{type(error).__name__}] {error}\n"
            )
            if first_failure == 0:
                first_failure = exit_code
        else:
            stream.write(f"doctor: {name:<{width}}  ok — {detail}\n")
    verdict = "healthy" if first_failure == 0 else f"exit {first_failure}"
    stream.write(f"doctor: {verdict}\n")
    return first_failure
