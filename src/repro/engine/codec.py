"""The block format of spill runs.

A **block** is a batch of ``(key, value)`` items encoded as one buffer: a
small header plus one pickle of the item list.  Spill runs store their
sorted items on disk as a sequence of blocks
(:mod:`repro.engine.spill`), so spilling pays one batch pickle per block
instead of one pickle per item.  This module is the only place that
knows the layout.

Wire format (integers little-endian)::

    offset  size  field
    0       1     magic (0xB5)
    1       4     item count  (uint32)
    5       4     payload length in bytes  (uint32)
    9       ...   payload: one pickle of the list of (key, values) tuples

Pickle preserves exact key types (``True`` stays ``bool``, big ints and
strings with lone surrogates round-trip), and one pickle per block
amortizes the per-object framing over the whole batch.

Decoding accepts ``bytes`` or any buffer and returns fresh objects.  Every
decode failure — truncation, bad magic, a length or count that disagrees
with the header, an undecodable payload — raises
:class:`~repro.exceptions.CodecError`, never a bare ``struct.error``,
``EOFError`` or unpickling error.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Hashable

from repro.exceptions import CodecError

#: First byte of every block; a cheap guard against decoding garbage.
BLOCK_MAGIC = 0xB5

#: magic, item count, payload length.
_HEADER = struct.Struct("<BII")


def encode_items(items: list[tuple[Hashable, Any]]) -> bytes:
    """Encode ``(key, value)`` items as one block.

    Item order is preserved exactly; spill runs rely on that to stay
    sorted.
    """
    try:
        payload = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CodecError(f"block items are not picklable: {exc}") from exc
    return _HEADER.pack(BLOCK_MAGIC, len(items), len(payload)) + payload


def decode_block(buf: Any) -> list[tuple[Hashable, Any]]:
    """Decode one block back into its ``(key, value)`` items, in order.

    *buf* may be ``bytes`` or any buffer; decoding reads it in place and
    holds no reference to it afterwards.  Every malformed input raises
    :class:`~repro.exceptions.CodecError`.
    """
    view = memoryview(buf)
    try:
        if len(view) < _HEADER.size:
            raise CodecError(
                f"truncated block: {len(view)} bytes < "
                f"{_HEADER.size}-byte header"
            )
        magic, count, payload_len = _HEADER.unpack_from(view, 0)
        if magic != BLOCK_MAGIC:
            raise CodecError(f"bad block magic {magic:#x}")
        if len(view) != _HEADER.size + payload_len:
            raise CodecError(
                f"block length {len(view)} does not match header "
                f"({_HEADER.size} + {payload_len})"
            )
        try:
            items = pickle.loads(view[_HEADER.size :])
        except Exception as exc:
            raise CodecError(f"corrupt block payload: {exc}") from exc
    finally:
        view.release()
    if (
        not isinstance(items, list)
        or len(items) != count
        or not all(type(item) is tuple and len(item) == 2 for item in items)
    ):
        raise CodecError(
            f"block payload does not hold the declared {count} items"
        )
    return items

