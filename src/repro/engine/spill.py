"""Spill-to-disk shuffle: sorted run files plus their reduce-side reader.

When an :class:`~repro.engine.engine.ExecutionEngine` runs with a
``memory_budget``, map tasks no longer buffer an unbounded number of
routed pairs: once the buffered count reaches the budget, the task's
current per-partition buckets are written to disk, each non-empty one as
a *sorted run* — the bucket's ``input key -> record`` items in sorted-key
order, in blocks.  The input key is ``i`` (A2A, multiway and member-list
plans) or ``("x", i)`` / ``("y", j)`` (X2Y), and a record sits in every
bucket whose partition holds one of its reducers.

A reduce task reads its partition's runs (plus any in-memory leftovers)
into one record table (:func:`record_table`) and builds each reducer's
value list from it, so it holds each input of its partition once, plus
one reducer's value list.  Outputs are bit-identical to the in-memory
path because nothing depends on arrival order: an input reaches a
partition once, its key is orderable by construction, and the reducer's
member list, not the order runs are read in, fixes the value order.

Run files live in a per-run temporary directory owned by the engine
(workers on the ``processes`` backend write to the shared directory and
return file paths; the parent removes the directory when the run
finishes, so no run file outlives the run that wrote it).  A run file
is a short pickled header ``("rblk1", item count)`` followed by blocks
(:mod:`repro.engine.codec`) of up to :data:`RUN_BLOCK_ITEMS` sorted items
each, pickled as opaque ``bytes`` — the same block format the shuffle
ships, so spilling pays one batch pickle per block instead of one pickle
per item, and readers stream one decoded block at a time.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.engine.codec import decode_block, encode_items
from repro.exceptions import CodecError, SpillError

#: Sorted items per block in a run file: large enough to amortize the
#: per-block pickle framing, small enough that a reader decodes only a
#: sliver of a big run at a time.
RUN_BLOCK_ITEMS = 512

#: Header tag of block-format run files.
_RUN_HEADER_TAG = "rblk1"

#: A reduce task's input source: an in-memory bucket dict, or the path of
#: a spilled run file (distinguished by ``isinstance(source, str)``).
Source = Any


@dataclass
class MapSpill:
    """What one map task spilled: per-flush run files plus counters.

    ``flushes[f][p]`` is the run-file path partition ``p`` received in
    flush ``f`` (``None`` when the partition had no keys in that flush).
    Flush order is record order.
    ``flush_windows[f]`` records when flush ``f`` happened —
    ``(monotonic start, duration seconds, bytes written, run files
    written)`` — so the tracing layer can render each disk flush as its
    own span under the map task that performed it.
    """

    flushes: list[tuple[str | None, ...]] = field(default_factory=list)
    spilled_bytes: int = 0
    spill_runs: int = 0
    flush_windows: list[tuple[float, float, int, int]] = field(
        default_factory=list
    )

    def partition_runs(self, partition: int) -> list[str]:
        """This task's run files for one partition, in flush order."""
        return [
            flush[partition]
            for flush in self.flushes
            if flush[partition] is not None
        ]


def _sorted_items(
    groups: dict[Hashable, Any]
) -> list[tuple[Hashable, Any]]:
    """Group items in sorted-key order; unorderable keys are a hard error."""
    try:
        return sorted(groups.items(), key=lambda item: item[0])
    except TypeError as exc:
        raise SpillError(
            "out-of-core shuffle requires totally orderable keys "
            f"(sorting failed: {exc})"
        ) from exc


def write_run(
    groups: dict[Hashable, Any], spill_dir: str
) -> tuple[str, int]:
    """Write one partition's bucket as a sorted block-format run file.

    Returns ``(path, bytes_written)``.  The file is a pickled
    ``("rblk1", item count)`` header followed by blocks of up to
    :data:`RUN_BLOCK_ITEMS` ``(input key, record)`` pairs in sorted-key
    order, each pickled as one ``bytes`` object.  The count header lets
    :func:`iter_run` distinguish a complete run from one truncated at a
    block boundary (which a bare pickle stream would silently read as a
    shorter run).
    """
    items = _sorted_items(groups)
    fd, path = tempfile.mkstemp(dir=spill_dir, suffix=".run")
    with os.fdopen(fd, "wb") as handle:
        pickle.dump(
            (_RUN_HEADER_TAG, len(items)),
            handle,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        for start in range(0, len(items), RUN_BLOCK_ITEMS):
            block = encode_items(items[start : start + RUN_BLOCK_ITEMS])
            pickle.dump(block, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path, os.path.getsize(path)


def spill_buckets(
    buckets: list[dict[Hashable, Any]],
    spill_dir: str,
    spill: MapSpill,
) -> None:
    """Flush a map task's per-partition buckets to sorted run files.

    ``buckets[p]`` is partition ``p``'s buffered records by input key.
    Appends one flush entry to *spill* (a
    path per partition, ``None`` for partitions with nothing buffered) and
    updates its byte/run counters plus the flush's timing window.  The
    caller clears the in-memory buckets afterwards.
    """
    started = time.perf_counter()
    flushed_bytes = 0
    flushed_runs = 0
    flush: list[str | None] = []
    for bucket in buckets:
        if not bucket:
            flush.append(None)
            continue
        path, nbytes = write_run(bucket, spill_dir)
        flush.append(path)
        flushed_bytes += nbytes
        flushed_runs += 1
        spill.spilled_bytes += nbytes
        spill.spill_runs += 1
    spill.flushes.append(tuple(flush))
    spill.flush_windows.append(
        (started, time.perf_counter() - started, flushed_bytes, flushed_runs)
    )


def iter_run(path: str) -> Iterator[tuple[Hashable, Any]]:
    """Stream ``(input key, record)`` pairs back out of one run file.

    Decodes the run one block at a time, so memory is bounded by one
    block, not the run.  Every failure mode — unreadable file, garbage
    bytes, a bad header, a block that does not decode, or a run holding
    fewer items than its count header promises — raises
    :class:`~repro.exceptions.SpillError`; a truncated run must never be
    silently read as a shorter one (the reduce task would drop records
    and produce wrong outputs without any error).
    """
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise SpillError(f"cannot open spill run {path!r}: {exc}") from exc
    with handle:
        try:
            header = pickle.load(handle)
            if not (
                isinstance(header, tuple)
                and len(header) == 2
                and header[0] == _RUN_HEADER_TAG
                and isinstance(header[1], int)
                and header[1] >= 0
            ):
                raise SpillError(
                    f"corrupt spill run {path!r}: bad header {header!r}"
                )
            remaining = header[1]
            while remaining > 0:
                block = pickle.load(handle)
                if not isinstance(block, bytes):
                    raise SpillError(
                        f"corrupt spill run {path!r}: expected an "
                        f"encoded block, got {type(block).__name__}"
                    )
                items = decode_block(block)
                if not items or len(items) > remaining:
                    raise SpillError(
                        f"corrupt spill run {path!r}: block item "
                        "count disagrees with the run header"
                    )
                yield from items
                remaining -= len(items)
        except CodecError as exc:
            raise SpillError(
                f"corrupt or truncated spill run {path!r}: {exc}"
            ) from exc
        except (EOFError, pickle.UnpicklingError, OSError) as exc:
            raise SpillError(
                f"corrupt or truncated spill run {path!r}: {exc}"
            ) from exc


def record_table(sources: list[Source]) -> dict[Hashable, Any]:
    """A schema job's reduce-side record table: input key -> record.

    Reads every source of one partition — in-memory buckets and run files
    alike — into one dict.  A map task ships each input to a partition at
    most once and every input has one record, so sources never disagree
    on a key and the table holds each input of the partition once.
    """
    table: dict[Hashable, Any] = {}
    for source in sources:
        table.update(iter_run(source) if isinstance(source, str) else source)
    return table


def make_spill_dir(base_dir: str | None = None) -> str:
    """Create the temporary directory one engine run spills into."""
    if base_dir is not None:
        os.makedirs(base_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix="repro-spill-", dir=base_dir)
