"""Bit-field mapping machinery.

A mapping function is described by an ordered layout of ``(field, width)``
slices running from the LSB (just above the 6 block-offset bits) towards the
MSB, plus an optional set of XOR hashes.  Both the locality-centric and the
MLP-centric mappings of the paper are expressed with this machinery, as are
the BIOS interleaving variants of Figure 1.

Every mapping is invertible: ``inverse(map(addr)) == addr`` for any aligned
address inside the domain, a property the test suite checks with hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence, Tuple

from repro.mapping.address import DramAddress
from repro.sim.config import CACHE_LINE_BYTES, MemoryDomainConfig

BLOCK_OFFSET_BITS = 6

FIELD_NAMES = ("channel", "rank", "bankgroup", "bank", "row", "column")


class AddressMapping(Protocol):
    """Protocol implemented by every address mapping function."""

    geometry: MemoryDomainConfig

    def map(self, phys_addr: int) -> DramAddress:
        """Translate a byte address (relative to the domain base) to a DRAM address."""
        ...

    def inverse(self, dram_addr: DramAddress) -> int:
        """Translate a DRAM address back to the byte address of its block."""
        ...


def _field_width(geometry: MemoryDomainConfig, name: str) -> int:
    sizes = {
        "channel": geometry.channels,
        "rank": geometry.ranks_per_channel,
        "bankgroup": geometry.bankgroups_per_rank,
        "bank": geometry.banks_per_group,
        "row": geometry.rows_per_bank,
        "column": geometry.columns_per_row,
    }
    size = sizes[name]
    if size & (size - 1) != 0:
        raise ValueError(
            f"geometry dimension '{name}'={size} must be a power of two for bit-field mapping"
        )
    return size.bit_length() - 1


@dataclass(frozen=True)
class FieldSlice:
    """One contiguous slice of a DRAM-address field placed in the layout."""

    name: str
    width: int
    field_lsb: int = 0

    def __post_init__(self) -> None:
        if self.name not in FIELD_NAMES:
            raise ValueError(f"unknown field '{self.name}'")
        if self.width < 0:
            raise ValueError("slice width must be non-negative")


@dataclass(frozen=True)
class XorHash:
    """XOR a target field with selected bits of another field (usually the row).

    ``target`` is the field whose stored bits are hashed; ``source`` supplies
    the hash bits, starting at ``source_lsb`` and spanning the full width of
    the target field.  This reproduces permutation-based interleaving
    (Zhang et al., MICRO 2000) that conventional MLP-centric mappings employ.
    """

    target: str
    source: str = "row"
    source_lsb: int = 0


class BitFieldMapping:
    """Concrete, invertible bit-field mapping for one memory domain."""

    def __init__(
        self,
        geometry: MemoryDomainConfig,
        layout: Sequence[Tuple[str, int]],
        xor_hashes: Sequence[XorHash] = (),
        name: str = "custom",
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.xor_hashes: Tuple[XorHash, ...] = tuple(xor_hashes)
        self._slices: List[FieldSlice] = []
        self._field_widths: Dict[str, int] = {
            field_name: _field_width(geometry, field_name) for field_name in FIELD_NAMES
        }

        consumed: Dict[str, int] = {field_name: 0 for field_name in FIELD_NAMES}
        for field_name, width in layout:
            if width == 0:
                continue
            slice_ = FieldSlice(name=field_name, width=width, field_lsb=consumed[field_name])
            consumed[field_name] += width
            self._slices.append(slice_)

        for field_name in FIELD_NAMES:
            expected = self._field_widths[field_name]
            if consumed[field_name] != expected:
                raise ValueError(
                    f"layout assigns {consumed[field_name]} bits to '{field_name}' "
                    f"but geometry '{geometry.name}' requires {expected}"
                )

        self._total_bits = sum(slice_.width for slice_ in self._slices)
        self._validate_hashes()
        self._decode_block, self._encode_fields = self._compile()
        self._addressable_bytes = 1 << (self._total_bits + BLOCK_OFFSET_BITS)

    def _validate_hashes(self) -> None:
        targets = {hash_.target for hash_ in self.xor_hashes}
        if len(targets) != len(self.xor_hashes):
            raise ValueError("each field may be the target of at most one XOR hash")
        for hash_ in self.xor_hashes:
            if hash_.target == hash_.source:
                raise ValueError("XOR hash target and source must differ")
            if hash_.source in targets:
                raise ValueError(
                    f"XOR hash source '{hash_.source}' is itself hashed; "
                    "hash sources must be plain fields so the mapping stays invertible"
                )
            target_width = self._field_widths[hash_.target]
            source_width = self._field_widths[hash_.source]
            if hash_.source_lsb + target_width > source_width:
                raise ValueError(
                    f"XOR hash for '{hash_.target}' reads bits "
                    f"[{hash_.source_lsb}, {hash_.source_lsb + target_width}) of "
                    f"'{hash_.source}' which only has {source_width} bits"
                )

    def _compile(self):
        """Specialise this mapping's decode/encode into generated functions.

        The layout is fixed at construction time, so the per-slice loop (two
        dict-building passes per call in the seed) can be unrolled once into
        straight-line integer ops -- shifts, masks and ors -- and compiled
        with ``exec``.  Decoding is the hottest mapping operation in the
        simulator (once per memory request), and the generated function is
        several times faster than the generic loop while computing exactly
        the same bits.
        """
        terms: Dict[str, List[str]] = {field_name: [] for field_name in FIELD_NAMES}
        cursor = 0
        for slice_ in self._slices:
            mask = (1 << slice_.width) - 1
            term = f"((block >> {cursor}) & {mask})"
            if slice_.field_lsb:
                term = f"({term} << {slice_.field_lsb})"
            terms[slice_.name].append(term)
            cursor += slice_.width
        decode_lines = ["def decode_block(block):"]
        for field_name in FIELD_NAMES:
            expression = " | ".join(terms[field_name]) or "0"
            decode_lines.append(f"    {field_name} = {expression}")
        for hash_ in self.xor_hashes:
            # Hash sources are plain (never themselves hashed), so their
            # stored bits equal their true values and ordering is free.
            width = self._field_widths[hash_.target]
            mask = (1 << width) - 1
            source = (
                f"({hash_.source} >> {hash_.source_lsb})"
                if hash_.source_lsb
                else hash_.source
            )
            decode_lines.append(f"    {hash_.target} ^= {source} & {mask}")
        decode_lines.append(
            "    return DramAddress(channel, rank, bankgroup, bank, row, column)"
        )

        encode_lines = [
            "def encode_fields(channel, rank, bankgroup, bank, row, column):"
        ]
        for hash_ in self.xor_hashes:
            width = self._field_widths[hash_.target]
            mask = (1 << width) - 1
            source = (
                f"({hash_.source} >> {hash_.source_lsb})"
                if hash_.source_lsb
                else hash_.source
            )
            encode_lines.append(f"    {hash_.target} ^= {source} & {mask}")
        parts: List[str] = []
        cursor = 0
        for slice_ in self._slices:
            mask = (1 << slice_.width) - 1
            term = (
                f"(({slice_.name} >> {slice_.field_lsb}) & {mask})"
                if slice_.field_lsb
                else f"({slice_.name} & {mask})"
            )
            if cursor:
                term = f"({term} << {cursor})"
            parts.append(term)
            cursor += slice_.width
        block = " | ".join(parts) or "0"
        encode_lines.append(f"    return ({block}) << {BLOCK_OFFSET_BITS}")

        namespace: Dict[str, object] = {"DramAddress": DramAddress}
        exec("\n".join(decode_lines), namespace)
        exec("\n".join(encode_lines), namespace)
        return namespace["decode_block"], namespace["encode_fields"]

    @property
    def layout(self) -> Tuple[FieldSlice, ...]:
        return tuple(self._slices)

    @property
    def addressable_bytes(self) -> int:
        """Capacity covered by the mapping."""
        return 1 << (self._total_bits + BLOCK_OFFSET_BITS)

    def field_width(self, name: str) -> int:
        return self._field_widths[name]

    def _hash_value(self, source_values: Dict[str, int], hash_: XorHash) -> int:
        width = self._field_widths[hash_.target]
        source = source_values[hash_.source]
        return (source >> hash_.source_lsb) & ((1 << width) - 1)

    def map(self, phys_addr: int) -> DramAddress:
        """Decode ``phys_addr`` (bytes, relative to the domain base)."""
        if not 0 <= phys_addr < self._addressable_bytes:
            if phys_addr < 0:
                raise ValueError(
                    f"physical address must be non-negative, got {phys_addr}"
                )
            raise ValueError(
                f"physical address {phys_addr:#x} outside domain of "
                f"{self._addressable_bytes:#x} bytes"
            )
        return self._decode_block(phys_addr >> BLOCK_OFFSET_BITS)

    def inverse(self, dram_addr: DramAddress) -> int:
        """Encode a DRAM address back into the byte address of its 64 B block."""
        dram_addr.validate(self.geometry)
        return self._encode_fields(*dram_addr)

    def block_address(self, phys_addr: int) -> int:
        """Align ``phys_addr`` down to its cache-line block."""
        return phys_addr & ~(CACHE_LINE_BYTES - 1)

    def describe(self) -> str:
        """Human-readable MSB->LSB field order, e.g. ``Ch Ra Bg Bk Ro Co``."""
        short = {
            "channel": "Ch",
            "rank": "Ra",
            "bankgroup": "Bg",
            "bank": "Bk",
            "row": "Ro",
            "column": "Co",
        }
        parts = [short[slice_.name] for slice_ in reversed(self._slices)]
        suffix = " +XOR" if self.xor_hashes else ""
        return " ".join(parts) + suffix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitFieldMapping(name={self.name!r}, layout='{self.describe()}')"


__all__ = [
    "AddressMapping",
    "BLOCK_OFFSET_BITS",
    "BitFieldMapping",
    "FIELD_NAMES",
    "FieldSlice",
    "XorHash",
]
