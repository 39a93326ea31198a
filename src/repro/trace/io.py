"""Trace persistence, behind the input-validation firewall.

Two formats:

- **npz** (binary, lossless, fast): the four column arrays plus the
  trace name; the format for checkpointing generated traces and for
  importing traces converted from external profilers.
- **text** (one access per line, human-readable): ``R|W <hex-address>
  <thread> <gap>``, with ``#`` comments — convenient for hand-written
  test vectors and for eyeballing.

Ingestion hardening (the firewall's first layer):

- :func:`parse_text` streams its input line by line with bounded
  memory — column data accumulates in fixed-size chunks that convert
  to their final numpy dtype as they fill, so a multi-GB trace never
  materialises as a Python list, let alone via ``readlines()``.
- Every malformed line produces a structured
  :class:`~repro.errors.TraceError` carrying the 1-based line number,
  the offending field and the raw token.  Out-of-range values —
  addresses over 2^64-1, thread ids over 65535, gaps over 2^32-1 —
  are rejected *before* array construction; the old code's silent
  ``uint16``/``uint32`` wraparound cannot happen.
- :func:`load_npz` schema-checks the archive — required arrays, one
  dimension each, equal lengths, integer dtypes, value ranges that fit
  the column dtypes — and wraps every decode failure (truncated zip,
  pickled payloads, hand-edited arrays) in a :class:`TraceError`, so a
  corrupt trace fails at load, not mid-sweep.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.trace.stream import Trace

#: Required arrays in a trace .npz file.
_NPZ_KEYS = ("addresses", "writes", "thread_ids", "gaps")

#: Inclusive value ceiling per column (the column dtype's range).
MAX_ADDRESS = 2**64 - 1
MAX_THREAD_ID = 2**16 - 1
MAX_GAP = 2**32 - 1

#: Lines per accumulation chunk in the streaming text parser.  65 536
#: accesses is ~1.5 MB of final arrays; the transient Python-list
#: overhead stays bounded by this regardless of trace size.
_CHUNK_LINES = 65536


def save_npz(trace: Trace, path: Union[str, Path]) -> None:
    """Save a trace to an ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        addresses=trace.addresses,
        writes=trace.writes,
        thread_ids=trace.thread_ids,
        gaps=trace.gaps,
        name=np.array(trace.name or ""),
    )


def _check_npz_column(path: Path, key: str, array: np.ndarray) -> None:
    """Schema- and range-check one column array from an npz trace."""
    if array.ndim != 1:
        raise TraceError(
            f"{path}: array {key!r} has {array.ndim} dimensions, expected 1",
            field=key,
        )
    kind = array.dtype.kind
    if key == "writes":
        if kind not in "biu":
            raise TraceError(
                f"{path}: array 'writes' must be boolean or integer 0/1, "
                f"got dtype {array.dtype}",
                field=key, value=str(array.dtype),
            )
        if kind in "iu" and array.size and int(array.max()) > 1:
            raise TraceError(
                f"{path}: array 'writes' contains values other than 0/1",
                field=key,
            )
        return
    if kind not in "iu":
        raise TraceError(
            f"{path}: array {key!r} must be an integer dtype, "
            f"got {array.dtype} — float or object traces are rejected "
            "rather than silently truncated",
            field=key, value=str(array.dtype),
        )
    if array.size == 0:
        return
    lo = int(array.min()) if kind == "i" else 0
    hi = int(array.max())
    ceiling = {"addresses": MAX_ADDRESS, "thread_ids": MAX_THREAD_ID,
               "gaps": MAX_GAP}[key]
    if lo < 0:
        raise TraceError(
            f"{path}: array {key!r} contains negative values (min {lo})",
            field=key, value=lo,
        )
    if hi > ceiling:
        raise TraceError(
            f"{path}: array {key!r} contains {hi}, over the column "
            f"maximum {ceiling}",
            field=key, value=hi,
        )


def load_npz(path: Union[str, Path]) -> Trace:
    """Load a trace from an ``.npz`` file, schema-checked.

    A file that is not a well-formed trace archive — truncated,
    hand-edited, pickled, wrong arrays, mismatched lengths, non-integer
    dtypes, out-of-range values — raises :class:`TraceError` naming the
    array and problem.
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"trace file not found: {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as error:  # zipfile/OSError/ValueError zoo
        raise TraceError(
            f"{path} is not a readable trace archive: {error}"
        ) from None
    with data:
        missing = [k for k in _NPZ_KEYS if k not in data]
        if missing:
            raise TraceError(f"{path} is not a trace file (missing {missing})")
        try:
            arrays = {k: data[k] for k in _NPZ_KEYS}
            name = str(data["name"]) if "name" in data else ""
        except Exception as error:
            raise TraceError(
                f"{path} contains an undecodable array: {error}"
            ) from None
        lengths = {k: len(a) for k, a in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise TraceError(
                f"{path}: trace arrays disagree on length "
                f"({', '.join(f'{k}={n}' for k, n in lengths.items())}) — "
                "the file is truncated or hand-edited",
            )
        for key, array in arrays.items():
            _check_npz_column(path, key, array)
        return Trace(
            addresses=arrays["addresses"],
            writes=arrays["writes"],
            thread_ids=arrays["thread_ids"],
            gaps=arrays["gaps"],
            name=name,
        )


def dump_text(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace as one access per line."""
    with open(Path(path), "w") as handle:
        handle.write(f"# trace: {trace.name or '(unnamed)'}\n")
        handle.write("# op address thread gap\n")
        for i in range(len(trace)):
            op = "W" if trace.writes[i] else "R"
            handle.write(
                f"{op} 0x{int(trace.addresses[i]):x} "
                f"{int(trace.thread_ids[i])} {int(trace.gaps[i])}\n"
            )


def _iter_lines(source: Union[str, Path, io.TextIOBase]) -> Iterator[str]:
    """Stream lines from a path, literal string, or file object."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        with open(Path(source)) as handle:
            yield from handle
    elif isinstance(source, str):
        yield from source.splitlines()
    else:
        yield from source


def _parse_line(lineno: int, raw: str) -> Optional[Tuple[int, bool, int, int]]:
    """One text line -> ``(address, write, thread, gap)`` or None.

    Raises :class:`TraceError` with the line number, field name and raw
    token on any malformed field — including values that would have
    silently wrapped the column dtypes.
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None
    parts = line.split()
    if len(parts) < 2 or parts[0].upper() not in ("R", "W"):
        raise TraceError(
            f"line {lineno}: expected 'R|W address ...', got {raw!r}",
            lineno=lineno, field="op", value=raw.strip(),
        )
    try:
        address = int(parts[1], 0)
    except ValueError:
        raise TraceError(
            f"line {lineno}: bad address {parts[1]!r}",
            lineno=lineno, field="address", value=parts[1],
        ) from None
    fields = [("thread", 0), ("gap", 0)]
    values = []
    for offset, (field, default) in enumerate(fields, start=2):
        if len(parts) > offset:
            try:
                values.append(int(parts[offset], 0))
            except ValueError:
                raise TraceError(
                    f"line {lineno}: bad {field} {parts[offset]!r}",
                    lineno=lineno, field=field, value=parts[offset],
                ) from None
        else:
            values.append(default)
    thread, gap = values
    for field, value, ceiling in (
        ("address", address, MAX_ADDRESS),
        ("thread", thread, MAX_THREAD_ID),
        ("gap", gap, MAX_GAP),
    ):
        if value < 0:
            raise TraceError(
                f"line {lineno}: negative {field}",
                lineno=lineno, field=field, value=value,
            )
        if value > ceiling:
            raise TraceError(
                f"line {lineno}: {field} {value} over the column "
                f"maximum {ceiling}",
                lineno=lineno, field=field, value=value,
            )
    return address, parts[0].upper() == "W", thread, gap


class _ColumnChunks:
    """Bounded-memory column accumulator for the streaming parser.

    Appends go to plain lists; every :data:`_CHUNK_LINES` rows the
    lists convert to their final numpy dtypes and reset, so peak
    Python-object overhead is one chunk regardless of input size.
    """

    def __init__(self) -> None:
        self._chunks: List[Tuple[np.ndarray, ...]] = []
        self._reset()

    def _reset(self) -> None:
        self.addresses: List[int] = []
        self.writes: List[bool] = []
        self.threads: List[int] = []
        self.gaps: List[int] = []

    def append(self, address: int, write: bool, thread: int, gap: int) -> None:
        self.addresses.append(address)
        self.writes.append(write)
        self.threads.append(thread)
        self.gaps.append(gap)
        if len(self.addresses) >= _CHUNK_LINES:
            self._flush()

    def _flush(self) -> None:
        if self.addresses:
            self._chunks.append((
                np.array(self.addresses, dtype=np.uint64),
                np.array(self.writes, dtype=bool),
                np.array(self.threads, dtype=np.uint16),
                np.array(self.gaps, dtype=np.uint32),
            ))
            self._reset()

    def trace(self, name: str) -> Trace:
        self._flush()
        if not self._chunks:
            return Trace.empty(name)
        if len(self._chunks) == 1:
            addresses, writes, threads, gaps = self._chunks[0]
        else:
            addresses, writes, threads, gaps = (
                np.concatenate(column) for column in zip(*self._chunks)
            )
        return Trace(
            addresses=addresses, writes=writes,
            thread_ids=threads, gaps=gaps, name=name,
        )


def parse_text(
    source: Union[str, Path, io.TextIOBase],
    name: str = "",
) -> Trace:
    """Parse the text format from a path, string, or file object.

    Lines: ``R|W <address> [thread] [gap]``; addresses accept ``0x``
    hex or decimal; blank lines and ``#`` comments are skipped.
    Malformed or out-of-range lines raise :class:`TraceError` with the
    line number and field.
    """
    columns = _ColumnChunks()
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        row = _parse_line(lineno, raw)
        if row is not None:
            columns.append(*row)
    return columns.trace(name)
