"""dpXOR kernels: the linear "select-and-XOR" scan at the heart of the server.

The paper calls the combination of the inner product with the selector vector
and the XOR accumulation "dpXOR".  For an XOR-group database the operation is

    r = XOR_{j : v[j] = 1}  D[j]

which every PIR server must evaluate over the *entire* database for every
query (the all-for-one principle).  This module provides the one production
scan, :func:`dpxor_many` (a whole batch of selectors in one database pass),
the per-query :func:`dpxor` oracle the tests compare it against, and a small
operation counter used by the cost models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.common.errors import DatabaseError


@dataclass
class DpXorStats:
    """Byte/record traffic of a dpXOR evaluation, consumed by the cost models."""

    records_scanned: int = 0
    records_selected: int = 0
    db_bytes_read: int = 0
    selector_bytes_read: int = 0
    output_bytes_written: int = 0

    def merge(self, other: "DpXorStats") -> None:
        """Accumulate another stats object into this one."""
        self.records_scanned += other.records_scanned
        self.records_selected += other.records_selected
        self.db_bytes_read += other.db_bytes_read
        self.selector_bytes_read += other.selector_bytes_read
        self.output_bytes_written += other.output_bytes_written

    @property
    def total_bytes_moved(self) -> int:
        """All bytes that crossed the memory interface."""
        return self.db_bytes_read + self.selector_bytes_read + self.output_bytes_written


#: Word width of the fast XOR path: eight uint8 lanes folded per operation.
WORD_BYTES = 8

#: Target per-chunk database footprint of the batched one-pass scan.  Sized
#: to sit comfortably inside a per-core cache so the ``B`` accumulator passes
#: over a chunk re-read hot lines instead of streaming the database ``B``
#: times from DRAM.
BATCH_CHUNK_BYTES = 1 << 18


def word_view(array: np.ndarray) -> Optional[np.ndarray]:
    """View ``array``'s last axis as uint64 words, or ``None`` when it can't.

    The fast path needs the byte count along the last axis to be a multiple
    of the word width and the buffer to be C-contiguous; odd record sizes and
    strided views take the uint8 fallback instead.
    """
    if array.shape[-1] % WORD_BYTES or array.shape[-1] == 0:
        return None
    if not array.flags["C_CONTIGUOUS"]:
        return None
    return array.view(np.uint64)


def _validate(database: np.ndarray, selector: np.ndarray) -> tuple:
    database = np.asarray(database, dtype=np.uint8)
    selector = np.asarray(selector, dtype=np.uint8)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if selector.ndim != 1 or selector.shape[0] != database.shape[0]:
        raise DatabaseError(
            f"selector length {selector.shape} does not match database rows {database.shape[0]}"
        )
    return database, selector


def _validate_many(database: np.ndarray, selectors: np.ndarray) -> tuple:
    database = np.asarray(database, dtype=np.uint8)
    selectors = np.asarray(selectors, dtype=np.uint8)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if selectors.ndim != 2 or selectors.shape[1] != database.shape[0]:
        raise DatabaseError(
            f"selector matrix {selectors.shape} does not match database rows "
            f"{database.shape[0]} (expected (batch, records))"
        )
    return database, selectors


def dpxor(
    database: np.ndarray,
    selector: np.ndarray,
    stats: Optional[DpXorStats] = None,
) -> np.ndarray:
    """Reference dpXOR oracle: XOR of database rows whose selector bit is set.

    ``database`` is ``(N, record_size)`` uint8, ``selector`` is ``(N,)`` of
    0/1 values.  Returns the ``(record_size,)`` XOR accumulator.  The whole
    database is charged to ``stats`` regardless of how many bits are set: the
    all-for-one principle means a real server touches every record.
    """
    database, selector = _validate(database, selector)
    mask = selector.astype(bool)
    if mask.any():
        result = np.bitwise_xor.reduce(database[mask], axis=0)
    else:
        result = np.zeros(database.shape[1], dtype=np.uint8)
    if stats is not None:
        stats.merge(
            DpXorStats(
                records_scanned=database.shape[0],
                records_selected=int(mask.sum()),
                db_bytes_read=database.shape[0] * database.shape[1],
                selector_bytes_read=database.shape[0],
                output_bytes_written=database.shape[1],
            )
        )
    return result.astype(np.uint8)


def dpxor_many(
    database: np.ndarray,
    selectors: np.ndarray,
    stats: Optional[DpXorStats] = None,
    chunk_records: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched dpXOR: serve a whole batch of selectors in one database pass.

    ``database`` is ``(N, record_size)`` uint8 and ``selectors`` is
    ``(B, N)`` of 0/1 values — one selector share per row.  Returns the
    ``(B, record_size)`` matrix of XOR accumulators, bit-identical to calling
    :func:`dpxor` on each row.

    The scan walks the database once in cache-sized record chunks
    (``chunk_records`` rows at a time, defaulting to ~``BATCH_CHUNK_BYTES``
    worth) and folds every batch row's selected records into its accumulator
    while the chunk is hot, via uint64-word views when the record size is a
    multiple of :data:`WORD_BYTES` (uint8 fallback otherwise).  Batching is a
    wall-clock optimisation only: ``stats`` is charged exactly what ``B``
    sequential full scans charge (the all-for-one principle holds per query).

    ``out``, when given, is a caller-owned C-contiguous ``(B, record_size)``
    uint8 accumulator block the scan writes into (and returns) instead of
    allocating — what lets the sharded backend land each shard's
    sub-results straight into one preallocated slab.  It is zeroed
    first, so reuse across batches needs no caller-side reset.
    """
    database, selectors = _validate_many(database, selectors)
    num_records, record_size = database.shape
    batch = selectors.shape[0]
    if out is None:
        out = np.zeros((batch, record_size), dtype=np.uint8)
    else:
        if out.shape != (batch, record_size) or out.dtype != np.uint8:
            raise DatabaseError(
                f"out buffer {out.shape}/{out.dtype} does not match "
                f"({batch}, {record_size}) uint8"
            )
        out[:] = 0
    selected = selectors.astype(bool)
    if num_records and batch and record_size:
        if chunk_records is None:
            chunk_records = max(1, BATCH_CHUNK_BYTES // record_size)
        elif chunk_records <= 0:
            raise DatabaseError("chunk_records must be positive")
        db_words = word_view(database)
        scan_db = db_words if db_words is not None else database
        accumulators = out.view(np.uint64) if db_words is not None else out
        for start in range(0, num_records, chunk_records):
            block = scan_db[start : start + chunk_records]
            block_masks = selected[:, start : start + chunk_records]
            for row in range(batch):
                mask = block_masks[row]
                if mask.any():
                    accumulators[row] ^= np.bitwise_xor.reduce(block[mask], axis=0)
    if stats is not None:
        stats.merge(
            DpXorStats(
                records_scanned=batch * num_records,
                records_selected=int(selected.sum()),
                db_bytes_read=batch * num_records * record_size,
                selector_bytes_read=batch * num_records,
                output_bytes_written=batch * record_size,
            )
        )
    return out


def xor_fold(partials: Sequence[np.ndarray]) -> np.ndarray:
    """XOR-fold a sequence of equal-length byte vectors into one."""
    if len(partials) == 0:
        raise DatabaseError("cannot fold an empty list of partial results")
    arrays = [np.asarray(p, dtype=np.uint8) for p in partials]
    length = arrays[0].shape[0]
    for i, array in enumerate(arrays):
        if array.ndim != 1 or array.shape[0] != length:
            raise DatabaseError(f"partial result {i} has mismatched shape {array.shape}")
    result = np.zeros(length, dtype=np.uint8)
    result_words = word_view(result)
    for array in arrays:
        array_words = word_view(array)
        if result_words is not None and array_words is not None:
            result_words ^= array_words
        else:
            result ^= array
    return result


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings (client-side reconstruction step)."""
    if len(left) != len(right):
        raise DatabaseError("cannot XOR byte strings of different lengths")
    if len(left) % WORD_BYTES == 0 and len(left):
        # XOR is bytewise, so folding eight lanes per uint64 operation leaves
        # the output bytes identical regardless of host endianness.
        left_words = np.frombuffer(left, dtype=np.uint64)
        right_words = np.frombuffer(right, dtype=np.uint64)
        return (left_words ^ right_words).tobytes()
    left_arr = np.frombuffer(left, dtype=np.uint8)
    right_arr = np.frombuffer(right, dtype=np.uint8)
    return (left_arr ^ right_arr).tobytes()


def inner_product_mod(
    database: np.ndarray,
    weights: np.ndarray,
    modulus: int,
    stats: Optional[DpXorStats] = None,
) -> np.ndarray:
    """Weighted sum of database rows modulo ``modulus``.

    The paper's formal model works over a field F_p; XOR is the special case
    p = 2 applied bitwise.  This generalised inner product backs the n-server
    additive-sharing variant of the protocol and the F_p examples.
    """
    database = np.asarray(database, dtype=np.uint8)
    weights = np.asarray(weights)
    if database.ndim != 2:
        raise DatabaseError("database chunk must be 2-D (records x bytes)")
    if weights.shape != (database.shape[0],):
        raise DatabaseError("weights length must equal the number of records")
    if modulus < 2:
        raise DatabaseError("modulus must be at least 2")
    accumulator = (
        database.astype(np.uint64) * weights.astype(np.uint64)[:, None]
    ).sum(axis=0) % np.uint64(modulus)
    if stats is not None:
        stats.merge(
            DpXorStats(
                records_scanned=database.shape[0],
                records_selected=int(np.count_nonzero(weights)),
                db_bytes_read=database.shape[0] * database.shape[1],
                selector_bytes_read=weights.nbytes,
                output_bytes_written=database.shape[1] * 8,
            )
        )
    return accumulator.astype(np.uint64)


def partial_results_to_list(partials: Sequence[np.ndarray]) -> List[bytes]:
    """Convert partial-result arrays to raw bytes (what DPUs ship to the host)."""
    return [np.asarray(p, dtype=np.uint8).tobytes() for p in partials]
