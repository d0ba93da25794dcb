"""Spill-to-disk shuffle: run files plus their reduce-side reader.

When an :class:`~repro.engine.engine.ExecutionEngine` runs with a
``memory_budget``, the parent no longer buffers an unbounded number of
routed pairs: once the buffered count reaches the budget, its current
per-partition buckets are written to disk, each non-empty one as a
*run* — one pickle of the bucket's ``{input key: record}`` dict.  The
input key is ``i`` (A2A, multiway and member-list plans) or ``("x", i)``
/ ``("y", j)`` (X2Y), and a record sits in every bucket whose partition
holds one of its reducers.

A reduce task reads its partition's runs (plus any in-memory leftovers)
into one record table (:func:`record_table`) and builds each reducer's
value list from it, so it holds each input of its partition once, plus
one reducer's value list.  Outputs are bit-identical to the in-memory
path because nothing depends on the order of a run: an input reaches a
partition once, and the reducer's sorted member list, not the order
runs are read in, fixes the value order.

Run files live in a per-run temporary directory owned by the engine
(reduce tasks on the ``processes`` backend get the run paths and read
the shared directory; the parent removes the directory when the run
finishes, so no run file outlives the run that wrote it).  A run is one
top-level pickle, so a file cut at any byte loses the pickle's STOP
opcode and fails to load: every damaged run raises
:class:`~repro.exceptions.SpillError` rather than reading as a shorter
one.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Hashable

from repro.exceptions import SpillError

#: A reduce task's input source: an in-memory bucket dict, or the path of
#: a spilled run file (distinguished by ``isinstance(source, str)``).
Source = Any


@dataclass
class MapSpill:
    """What a run's map phase spilled: run files plus counters.

    ``runs[p]`` lists the run-file paths of partition ``p`` in flush
    order, which is record order.
    """

    runs: list[list[str]]
    spilled_bytes: int = 0
    spill_runs: int = 0


def write_run(
    groups: dict[Hashable, Any], spill_dir: str
) -> tuple[str, int]:
    """Write one partition's bucket as a run file.

    Returns ``(path, bytes_written)``.  The file holds one pickle of the
    ``{input key: record}`` dict.  A bucket that cannot be pickled (or a
    failed write) raises :class:`~repro.exceptions.SpillError` and leaves
    no partial run file behind.
    """
    fd, path = tempfile.mkstemp(dir=spill_dir, suffix=".run")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(groups, handle, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        os.unlink(path)
        raise SpillError(f"cannot write spill run {path!r}: {exc!r}") from exc
    return path, os.path.getsize(path)


def spill_buckets(
    buckets: list[dict[Hashable, Any]],
    spill_dir: str,
    spill: MapSpill,
) -> tuple[int, int]:
    """Flush the non-empty per-partition buckets to run files.

    ``buckets[p]`` is partition ``p``'s buffered records by input key.
    Appends each run's path to ``spill.runs[p]``, updates the byte/run
    counters and returns this flush's ``(bytes written, run files
    written)``.  The caller clears the in-memory buckets afterwards.
    """
    flushed_bytes = 0
    flushed_runs = 0
    for bucket, runs in zip(buckets, spill.runs):
        if not bucket:
            continue
        path, nbytes = write_run(bucket, spill_dir)
        runs.append(path)
        flushed_bytes += nbytes
        flushed_runs += 1
    spill.spilled_bytes += flushed_bytes
    spill.spill_runs += flushed_runs
    return flushed_bytes, flushed_runs


def read_run(path: str) -> dict[Hashable, Any]:
    """Load one run file back into its ``{input key: record}`` dict.

    Every failure — an unreadable file, a truncated or corrupt pickle, a
    loaded object that is not a dict, or bytes after the pickle — raises
    :class:`~repro.exceptions.SpillError`; a damaged run must never be
    silently read as a shorter one (the reduce task would drop records
    and produce wrong outputs without any error).
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SpillError(f"cannot open spill run {path!r}: {exc}") from exc
    with handle:
        try:
            table = pickle.load(handle)
            trailing = handle.read(1)
        except Exception as exc:
            raise SpillError(
                f"corrupt or truncated spill run {path!r}: {exc!r}"
            ) from exc
    if not isinstance(table, dict):
        raise SpillError(
            f"corrupt spill run {path!r}: expected a dict, "
            f"got {type(table).__name__}"
        )
    if trailing:
        raise SpillError(
            f"corrupt spill run {path!r}: trailing bytes after the run"
        )
    return table


def record_table(sources: list[Source]) -> dict[Hashable, Any]:
    """A schema job's reduce-side record table: input key -> record.

    Reads every source of one partition — run files and the in-memory
    bucket alike — into one dict.  The parent routes each input to a
    partition at most once and every input has one record, so sources
    never disagree on a key and the table holds each input of the
    partition once.
    """
    table: dict[Hashable, Any] = {}
    for source in sources:
        table.update(read_run(source) if isinstance(source, str) else source)
    return table


def make_spill_dir(base_dir: str | None = None) -> str:
    """Create the temporary directory one engine run spills into."""
    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="repro-spill-", dir=base_dir)
