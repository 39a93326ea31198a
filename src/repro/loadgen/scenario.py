"""Declarative load-generation scenarios (the llm-d-benchmark idea).

A *scenario profile* is a small JSON document describing the load to
offer a serve fleet — job mix, duplicate rate, arrival process, rate
sweep — rather than a script that hard-codes it.  The same profile
drives a laptop smoke run, the CI ``repro-cli loadgen`` steps and the
committed ``BENCH_0008.json`` record, so results stay comparable
across hosts and sessions.

Profile schema (all keys validated here, unknown keys rejected with
did-you-mean suggestions)::

    {
      "name": "smoke",                  // identifier, [a-z0-9_-]
      "description": "...",             // free text
      "seed": 0,                        // RNG root for arrivals + mix
      "duration_s": 5.0,                // offered-load window per rate
      "qps": [4.0, 8.0],                // rates to sweep
      "arrival": "uniform",             // or "poisson"
      "duplicate_rate": 0.25,           // P(resubmit an earlier spec)
      "mix": [                          // weighted job templates
        {"experiment": "table2", "scale": 0.02,
         "weight": 1.0, "seeds": 8}     // seeds = distinct variants
      ],
      "concurrency": 32,                // client worker threads
      "timeout_s": 60.0,                // per-request completion bound
      "service_time_ms": 0.0,           // >0: emulated service time via
                                        // the REPRO_SERVE_JOB_HOOK seam
      "churn": [                        // seeded membership events
        {"at_s": 1.0, "action": "kill", "shard": 0},
        {"at_s": 1.5, "action": "add"}
      ]
    }

``churn`` makes fleet-membership chaos *declarative*: each event fires
at its offset into the offered-load window against the fleet under
test — ``kill`` (SIGKILL, crash-visible), ``restart`` (graceful bounce
in place), ``remove`` (leave the ring, then drain) take a ``shard``
index; ``add`` grows the fleet by one shard.  Only fleet-booting
drivers (``--shard-counts`` sweeps, the chaos harness) can honour
churn; offering a churn scenario at a plain ``--url`` raises, because
the driver holds no handle to the fleet's processes.

``service_time_ms`` selects the *emulated-backend* mode
(:mod:`repro.loadgen.pacing`): each job sleeps a calibrated service
time with the GIL released instead of burning CPU, which is how
throughput scaling across shards is measured honestly on a one-core
host (see docs/SERVING.md).  Zero means real computation.

Everything is deterministic given ``(seed, qps)``: RNGs are seeded
with stable *strings*, never hashes of tuples, so two hosts offer the
same request sequence.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import LoadGenError

#: Arrival processes a profile may name.
ARRIVALS = ("uniform", "poisson")

#: Scenario names bundled with the package (repro/loadgen/profiles/).
_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

_SCENARIO_KEYS = (
    "name", "description", "seed", "duration_s", "qps", "arrival",
    "duplicate_rate", "mix", "concurrency", "timeout_s", "service_time_ms",
    "churn",
)
_MIX_KEYS = ("experiment", "scale", "seeds", "weight")
_CHURN_KEYS = ("at_s", "action", "shard")

#: Membership events a churn entry may name.
CHURN_ACTIONS = ("kill", "restart", "add", "remove")


@dataclass(frozen=True)
class MixEntry:
    """One weighted job template in a scenario's mix."""

    experiment: str
    scale: float = 1.0
    seeds: int = 1
    weight: float = 1.0

    def spec(self, variant: int, base_seed: int) -> Dict[str, Any]:
        """The submission body for one variant of this template."""
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "seed": base_seed + (variant % self.seeds),
        }


@dataclass(frozen=True)
class ChurnEvent:
    """One declarative membership event during the offered-load window."""

    at_s: float
    action: str
    shard: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at_s": self.at_s, "action": self.action}
        if self.shard is not None:
            out["shard"] = self.shard
        return out


@dataclass(frozen=True)
class Scenario:
    """A validated load-generation profile."""

    name: str
    description: str = ""
    seed: int = 0
    duration_s: float = 5.0
    qps: Tuple[float, ...] = (4.0,)
    arrival: str = "uniform"
    duplicate_rate: float = 0.0
    mix: Tuple[MixEntry, ...] = field(default_factory=tuple)
    concurrency: int = 32
    timeout_s: float = 60.0
    service_time_ms: float = 0.0
    churn: Tuple[ChurnEvent, ...] = field(default_factory=tuple)

    def distinct_specs(self) -> int:
        """How many distinct spec digests the mix can produce."""
        return sum(entry.seeds for entry in self.mix)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (recorded verbatim into reports)."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "qps": list(self.qps),
            "arrival": self.arrival,
            "duplicate_rate": self.duplicate_rate,
            "mix": [
                {
                    "experiment": e.experiment, "scale": e.scale,
                    "seeds": e.seeds, "weight": e.weight,
                }
                for e in self.mix
            ],
            "concurrency": self.concurrency,
            "timeout_s": self.timeout_s,
            "service_time_ms": self.service_time_ms,
            "churn": [event.as_dict() for event in self.churn],
        }


def _number(name: str, value: Any, lo: float, hi: float,
            integer: bool = False) -> float:
    from repro.validate.schema import coerce_number

    return coerce_number(name, value, lo=lo, hi=hi, integer=integer,
                         error=LoadGenError)


def parse_scenario(mapping: Mapping[str, Any]) -> Scenario:
    """Validate a profile mapping into a :class:`Scenario`."""
    from repro.experiments.runner import ALL_EXPERIMENTS
    from repro.validate.schema import unknown_key_message, validate_keys

    if not isinstance(mapping, Mapping):
        raise LoadGenError("scenario profile must be a JSON object")
    validate_keys(mapping.keys(), _SCENARIO_KEYS,
                  kind="scenario key", error=LoadGenError)
    name = mapping.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name or ""):
        raise LoadGenError(
            f"scenario needs a 'name' matching {_NAME_RE.pattern}, "
            f"got {name!r}"
        )
    arrival = mapping.get("arrival", "uniform")
    if arrival not in ARRIVALS:
        raise LoadGenError(
            unknown_key_message("arrival", str(arrival), list(ARRIVALS))
        )
    raw_qps = mapping.get("qps", [4.0])
    if not isinstance(raw_qps, Sequence) or isinstance(raw_qps, str) \
            or not raw_qps:
        raise LoadGenError("'qps' must be a non-empty list of rates")
    qps = tuple(
        float(_number(f"qps[{i}]", rate, lo=0.1, hi=10_000.0))
        for i, rate in enumerate(raw_qps)
    )
    raw_mix = mapping.get("mix")
    if not isinstance(raw_mix, Sequence) or not raw_mix:
        raise LoadGenError("'mix' must be a non-empty list of job templates")
    mix: List[MixEntry] = []
    for i, entry in enumerate(raw_mix):
        if not isinstance(entry, Mapping):
            raise LoadGenError(f"mix[{i}] must be a JSON object")
        validate_keys(entry.keys(), _MIX_KEYS,
                      kind=f"mix[{i}] key", error=LoadGenError)
        experiment = entry.get("experiment")
        if not isinstance(experiment, str) or not experiment:
            raise LoadGenError(f"mix[{i}] needs an 'experiment' name")
        if experiment not in ALL_EXPERIMENTS:
            raise LoadGenError(
                unknown_key_message(
                    f"mix[{i}].experiment", experiment,
                    list(ALL_EXPERIMENTS),
                )
            )
        mix.append(MixEntry(
            experiment=experiment,
            scale=float(_number(f"mix[{i}].scale",
                                entry.get("scale", 1.0), lo=1e-6, hi=1.0)),
            seeds=int(_number(f"mix[{i}].seeds",
                              entry.get("seeds", 1), lo=1, hi=10_000,
                              integer=True)),
            weight=float(_number(f"mix[{i}].weight",
                                 entry.get("weight", 1.0), lo=1e-9,
                                 hi=1e9)),
        ))
    raw_churn = mapping.get("churn", [])
    if not isinstance(raw_churn, Sequence) or isinstance(raw_churn, str):
        raise LoadGenError("'churn' must be a list of membership events")
    churn: List[ChurnEvent] = []
    for i, event in enumerate(raw_churn):
        if not isinstance(event, Mapping):
            raise LoadGenError(f"churn[{i}] must be a JSON object")
        validate_keys(event.keys(), _CHURN_KEYS,
                      kind=f"churn[{i}] key", error=LoadGenError)
        action = event.get("action")
        if action not in CHURN_ACTIONS:
            raise LoadGenError(
                unknown_key_message(
                    f"churn[{i}].action", str(action), list(CHURN_ACTIONS)
                )
            )
        shard = event.get("shard")
        if shard is not None:
            shard = int(_number(f"churn[{i}].shard", shard,
                                lo=0, hi=4096, integer=True))
        elif action != "add":
            raise LoadGenError(
                f"churn[{i}]: action {action!r} needs a 'shard' index"
            )
        churn.append(ChurnEvent(
            at_s=float(_number(f"churn[{i}].at_s",
                               event.get("at_s", 0.0), lo=0.0, hi=3600.0)),
            action=str(action),
            shard=shard,
        ))
    churn.sort(key=lambda event: event.at_s)
    return Scenario(
        name=name,
        description=str(mapping.get("description", "")),
        seed=int(_number("seed", mapping.get("seed", 0),
                         lo=0, hi=2**31 - 1, integer=True)),
        duration_s=float(_number("duration_s",
                                 mapping.get("duration_s", 5.0),
                                 lo=0.1, hi=3600.0)),
        qps=qps,
        arrival=str(arrival),
        duplicate_rate=float(_number("duplicate_rate",
                                     mapping.get("duplicate_rate", 0.0),
                                     lo=0.0, hi=0.99)),
        mix=tuple(mix),
        concurrency=int(_number("concurrency",
                                mapping.get("concurrency", 32),
                                lo=1, hi=4096, integer=True)),
        timeout_s=float(_number("timeout_s",
                                mapping.get("timeout_s", 60.0),
                                lo=0.1, hi=3600.0)),
        service_time_ms=float(_number("service_time_ms",
                                      mapping.get("service_time_ms", 0.0),
                                      lo=0.0, hi=60_000.0)),
        churn=tuple(churn),
    )


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load a JSON profile file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise LoadGenError(f"cannot read scenario profile {path}: {error}")
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as error:
        raise LoadGenError(f"{path} is not valid JSON: {error}")
    return parse_scenario(mapping)


def bundled_profiles() -> List[str]:
    """Names of the profiles shipped inside the package."""
    root = Path(__file__).parent / "profiles"
    return sorted(p.stem for p in root.glob("*.json"))


def bundled_profile(name: str) -> Scenario:
    """Load a profile shipped with the package by name."""
    from repro.validate.schema import unknown_key_message

    root = Path(__file__).parent / "profiles"
    path = root / f"{name}.json"
    if not path.is_file():
        raise LoadGenError(
            unknown_key_message("profile", name, bundled_profiles())
        )
    return load_scenario(path)


def resolve_scenario(ref: str) -> Scenario:
    """A profile by bundled name, or by path when ``ref`` looks like one."""
    if "/" in ref or ref.endswith(".json"):
        return load_scenario(ref)
    return bundled_profile(ref)
