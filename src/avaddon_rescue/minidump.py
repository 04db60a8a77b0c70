"""Minimal reader/writer for the standard process-dump container ("MDMP").

Only the pieces the scanner needs are handled: the header, the stream
directory, the system-info stream (pointer width), and the two memory-list
stream flavors that map virtual addresses to file offsets. The full-memory
64-bit list is preferred; the 32-bit list is the fallback. Everything else
in a real dump is ignored on read and absent on write.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .errors import DumpFormatError, UnusableDumpError

SIGNATURE = b"MDMP"
_VERSION = 0xA793

_HEADER = struct.Struct("<4sIIIIIQ")  # signature, version, n_streams, dir_rva, checksum, time, flags
_DIR_ENTRY = struct.Struct("<III")  # stream_type, data_size, rva

STREAM_MEMORY_LIST = 5
STREAM_SYSTEM_INFO = 7
STREAM_MEMORY64_LIST = 9

_ARCH_X86 = 0
_ARCH_AMD64 = 9

_SYSTEM_INFO_LEN = 56


@dataclass(frozen=True)
class MemoryRange:
    """One mapped region: virtual base, length, and backing file offset."""

    va: int
    length: int
    offset: int

    @property
    def va_end(self) -> int:
        return self.va + self.length


def read_minidump(data) -> tuple[list[MemoryRange], int | None]:
    """Parse ranges and pointer width out of a minidump.

    `data` is the dump's bytes, or anything that gives them by `len()` and
    slicing; it is sliced once for the header, once for the stream
    directory and once or twice per stream read. Returns (ranges,
    pointer_width); pointer width is None when the dump has no system-info
    stream.

    Raises:
        DumpFormatError: bad signature or truncated structures.
        UnusableDumpError: parsed fine but contains no memory-list stream.
    """
    if len(data) < _HEADER.size:
        raise DumpFormatError("dump shorter than the 32-byte header")
    sig, _version, n_streams, dir_rva, _checksum, _time, _flags = _HEADER.unpack(data[:_HEADER.size])
    if sig != SIGNATURE:
        raise DumpFormatError(f"bad signature {sig!r}, expected {SIGNATURE!r}")

    dir_end = dir_rva + n_streams * _DIR_ENTRY.size
    if dir_end > len(data):
        raise DumpFormatError("stream directory extends past end of file")

    pointer_width: int | None = None
    mem64_rva: int | None = None
    mem32_rva: int | None = None
    for stream_type, _size, rva in _DIR_ENTRY.iter_unpack(data[dir_rva:dir_end]):
        if stream_type == STREAM_SYSTEM_INFO:
            if rva + 2 > len(data):
                raise DumpFormatError("system-info stream truncated")
            (arch,) = struct.unpack("<H", data[rva : rva + 2])
            pointer_width = 8 if arch == _ARCH_AMD64 else 4
        elif stream_type == STREAM_MEMORY64_LIST:
            mem64_rva = rva
        elif stream_type == STREAM_MEMORY_LIST:
            mem32_rva = rva

    if mem64_rva is not None:
        ranges = _read_memory64_list(data, mem64_rva)
    elif mem32_rva is not None:
        ranges = _read_memory_list(data, mem32_rva)
    else:
        raise UnusableDumpError("no memory-list stream; nothing to scan")
    return ranges, pointer_width


def _read_memory64_list(data, rva: int) -> list[MemoryRange]:
    if rva + 16 > len(data):
        raise DumpFormatError("64-bit memory list truncated")
    count, base_rva = struct.unpack("<QQ", data[rva : rva + 16])
    if rva + 16 + count * 16 > len(data):
        raise DumpFormatError("64-bit memory descriptors truncated")
    ranges = []
    offset = base_rva
    for va, length in struct.iter_unpack("<QQ", data[rva + 16 : rva + 16 + count * 16]):
        ranges.append(MemoryRange(va, length, offset))
        offset += length
    if ranges and offset > len(data):
        raise DumpFormatError("memory payload extends past end of file")
    return ranges


def _read_memory_list(data, rva: int) -> list[MemoryRange]:
    if rva + 4 > len(data):
        raise DumpFormatError("memory list truncated")
    (count,) = struct.unpack("<I", data[rva : rva + 4])
    if rva + 4 + count * 16 > len(data):
        raise DumpFormatError("memory descriptors truncated")
    ranges = []
    table = data[rva + 4 : rva + 4 + count * 16]
    for va, length, data_rva in struct.iter_unpack("<QII", table):
        if data_rva + length > len(data):
            raise DumpFormatError("memory payload extends past end of file")
        ranges.append(MemoryRange(va, length, data_rva))
    return ranges


def write_minidump(
    ranges: list[tuple[int, bytes]],
    pointer_width: int = 4,
    *,
    list_kind: str = "memory64",
) -> list[bytes]:
    """Serialize (va, payload) pairs into a loadable minidump, as chunks to
    write back to back: the head, then each payload itself, uncopied.

    `list_kind` selects the stream flavor: "memory64" (full-memory list)
    or "memory32" (the legacy fallback list, ranges capped at 4 GiB each).
    """
    if list_kind not in ("memory64", "memory32"):
        raise ValueError(f"unknown list kind {list_kind!r}")
    if pointer_width not in (4, 8):
        raise ValueError("pointer width must be 4 or 8")

    n_streams = 2
    dir_rva = _HEADER.size
    sysinfo_rva = dir_rva + n_streams * _DIR_ENTRY.size
    list_rva = sysinfo_rva + _SYSTEM_INFO_LEN

    stream = bytearray()
    if list_kind == "memory64":
        stream_type = STREAM_MEMORY64_LIST
        payload_rva = list_rva + 16 + len(ranges) * 16
        stream += struct.pack("<QQ", len(ranges), payload_rva)
        for va, data in ranges:
            stream += struct.pack("<QQ", va, len(data))
    else:
        stream_type = STREAM_MEMORY_LIST
        offset = list_rva + 4 + len(ranges) * 16
        stream += struct.pack("<I", len(ranges))
        for va, data in ranges:
            if len(data) >= 1 << 32:
                raise ValueError("memory32 ranges are limited to 4 GiB")
            stream += struct.pack("<QII", va, len(data), offset)
            offset += len(data)

    directory = _DIR_ENTRY.pack(STREAM_SYSTEM_INFO, _SYSTEM_INFO_LEN, sysinfo_rva)
    directory += _DIR_ENTRY.pack(stream_type, len(stream), list_rva)
    header = _HEADER.pack(SIGNATURE, _VERSION, n_streams, dir_rva, 0, 0, 0)
    # system info: the architecture, then the processor count at offset 6
    arch = _ARCH_AMD64 if pointer_width == 8 else _ARCH_X86
    system_info = struct.pack("<H4xB", arch, 1).ljust(_SYSTEM_INFO_LEN, b"\0")
    head = header + directory + system_info + bytes(stream)
    return [head, *(data for _, data in ranges)]
