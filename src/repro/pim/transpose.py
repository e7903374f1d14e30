"""Chip-interleaving byte transpose (Figure 3).

A DDR4 DIMM stripes every 8-byte data word one byte per chip.  Because each
UPMEM DPU lives inside a single chip, a DPU would only ever see one byte of
each word unless the host first transposes the data: the runtime reshapes each
64-byte tile into an 8x8 byte matrix and transposes it, so that after chip
striping every DPU receives full 8-byte words.  The baseline runtime performs
this transpose on the CPU (part of its per-chunk cost); PIM-MMU's DCE performs
it on the fly in its preprocessing unit.

Both directions are exposed; ``transpose_from_pim(transpose_for_pim(x)) == x``
for any multiple-of-64-bytes payload, which the test suite checks with
hypothesis.
"""

from __future__ import annotations

TILE_BYTES = 64
WORD_BYTES = 8


def _check_payload(data: bytes) -> None:
    if len(data) % TILE_BYTES != 0:
        raise ValueError(
            f"payload length {len(data)} must be a multiple of {TILE_BYTES} bytes"
        )


def transpose_for_pim(data: bytes) -> bytes:
    """Transpose host-ordered data into the chip-striped layout PIM expects."""
    _check_payload(data)
    if not data:
        return b""
    import numpy as np

    array = np.frombuffer(data, dtype=np.uint8)
    tiles = array.reshape(-1, WORD_BYTES, WORD_BYTES)
    return tiles.transpose(0, 2, 1).tobytes()


def transpose_from_pim(data: bytes) -> bytes:
    """Inverse transpose applied when results travel PIM -> DRAM.

    The 8x8 transpose is an involution, so both directions perform the same
    permutation; the separate name documents intent at call sites.
    """
    return transpose_for_pim(data)


def is_transposed_pair(host_data: bytes, pim_data: bytes) -> bool:
    """True if ``pim_data`` is exactly the chip-striped image of ``host_data``."""
    return transpose_for_pim(host_data) == pim_data


__all__ = ["TILE_BYTES", "WORD_BYTES", "is_transposed_pair", "transpose_for_pim", "transpose_from_pim"]
