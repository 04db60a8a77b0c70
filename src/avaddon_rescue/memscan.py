"""Locate AES-256 session keys inside a memory dump of the paused process.

The platform crypto provider keeps a generated key behind a three-level
chain: an opaque key handle whose last field, XOR-masked with 0xE35A172C,
points to a one-pointer cell, which in turn points to the key-data record

    { unknown*, alg: u32, flags: u32, key_size: u32, key_bytes* }

For an AES-256 session key the three known fields are 0x6610, 1 and 0x20.
The scanner anchors on that 12-byte triple (strictly weaker than matching
the whole record, so it never misses), reads the key pointer that follows,
and extracts 32 candidate key bytes. False positives are culled by
known-plaintext verification, never by the scan itself; the full chain is
looked for only behind verified candidates, to rank confidence.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import logging
import mmap
import os
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .cipher import SessionKey, decrypt_stream
from .errors import DumpFormatError, EvidenceError
from .minidump import SIGNATURE as MDMP_SIGNATURE
from .minidump import MemoryRange, read_minidump
from .trailer import ceil16, open_classified
from .trailer import open_regular, read_at

log = logging.getLogger(__name__)

ALG_AES_256 = 0x6610
KEY_FLAGS = 0x1
KEY_SIZE = 0x20

#: The 12 bytes every AES-256 key-data record carries: (alg, flags, key_size).
KEY_DATA_PATTERN = struct.pack("<III", ALG_AES_256, KEY_FLAGS, KEY_SIZE)

#: Mask applied to the key handle's last pointer field.
HANDLE_XOR_CONSTANT = 0xE35A172C

#: Pointer cells sit on 4-byte boundaries; the chain search skips the rest.
POINTER_CELL_ALIGNMENT = 4

#: Dump containers `load_dump` reads and `write_synthetic_dump` writes.
DUMP_FORMATS = ("raw", "raw_with_map", "minidump")

#: Leading bytes of common file types, used when no original file is at
#: hand. Every entry must be at least 8 bytes so a match is meaningful.
HEADER_MAGICS: tuple[tuple[str, bytes], ...] = (
    ("png", b"\x89PNG\r\n\x1a\n"),
    ("ole-cfb", bytes.fromhex("d0cf11e0a1b11ae1")),
    ("sqlite3", b"SQLite format 3\x00"),
    ("rar5", b"Rar!\x1a\x07\x01\x00"),
    ("xml-decl", b"<?xml ve"),
)
MIN_MAGIC_MATCH = 8
assert all(len(magic) >= MIN_MAGIC_MATCH for _, magic in HEADER_MAGICS)

MIN_PLAINTEXT_MATCH = 16


def _load_sidecar_map(side: Path) -> list[MemoryRange]:
    try:
        fd, _st = open_regular(side)
    except FileNotFoundError:  # a link at its name that leads nowhere
        raise DumpFormatError(f"sidecar map not found: {side}") from None
    with open(fd, "rb") as fh:
        text = fh.read()
    try:
        entries = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise DumpFormatError(f"sidecar map {side} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise DumpFormatError(f"sidecar map {side} must be a JSON array")
    ranges = []
    for entry in entries:
        try:
            ranges.append(MemoryRange(int(entry["va"]), int(entry["length"]), int(entry["offset"])))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DumpFormatError(f"bad sidecar map entry {entry!r}: {exc}") from exc
    return ranges


def sidecar_path(dump_path: str | os.PathLike) -> Path:
    """The one name a raw dump's sidecar map has: `<dump>.map.json`."""
    return Path(str(dump_path) + ".map.json")


class DumpImage:
    """A loaded dump: its file, open on one descriptor that it owns, and
    the virtual-address map. `len()` and slicing give what the file's bytes
    would, each slice one `pread`, and `window` maps one span of it.
    Nothing maps the whole file.

    The container is sniffed, the one way every caller reads a dump: a
    file that starts with the MDMP signature is a minidump, whose stream
    directory gives its ranges; else a sidecar named `<dump>.map.json`
    (`sidecar_path`) makes it raw_with_map, its ranges read from that JSON
    file: a link at that name is followed, and one that leads nowhere is a
    format error; else it is raw, the whole file mapped at virtual address
    0 (offset == VA). `format` names the container.
    `pointer_width` is the width a minidump's system-info stream records,
    and None where the container records none (raw flavors included).

    Read-only after construction; safe to share across scanning threads.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = path = Path(path)
        self.fd, st = open_regular(path)
        self._size = st.st_size
        try:
            self.pointer_width = None  # a minidump may record its own
            side = sidecar_path(path)
            if self[:4] == MDMP_SIGNATURE:
                self.format = "minidump"
                ranges, self.pointer_width = read_minidump(self)
            elif os.path.lexists(side):
                self.format = "raw_with_map"
                ranges = _load_sidecar_map(side)
            else:
                self.format = "raw"
                ranges = [MemoryRange(0, self._size, 0)]
            for r in ranges:
                if min(r.va, r.length, r.offset) < 0:
                    raise DumpFormatError(f"range va={r.va:#x} length={r.length:#x} "
                                          f"offset={r.offset:#x} has a negative field")
            self.ranges = sorted((r for r in ranges if r.length > 0), key=lambda r: r.va)
            self._starts = [r.va for r in self.ranges]
            for prev, cur in zip(self.ranges, self.ranges[1:]):
                if cur.va < prev.va_end:
                    raise DumpFormatError(
                        f"ranges overlap in virtual space: "
                        f"[{prev.va:#x},{prev.va_end:#x}) and [{cur.va:#x},{cur.va_end:#x})"
                    )
            for r in self.ranges:
                if r.offset + r.length > self._size:
                    raise DumpFormatError(
                        f"range at va {r.va:#x} points past the end of the dump file"
                    )
        except BaseException:
            self.close()
            raise

    @property
    def pointer_widths(self) -> tuple[int, ...]:
        """The widths to read a pointer at: the recorded one, else both."""
        return (self.pointer_width,) if self.pointer_width else (4, 8)

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, span: slice) -> bytes:
        start, stop, _ = span.indices(self._size)
        return os.pread(self.fd, max(0, stop - start), start)

    def window(self, start: int, stop: int) -> mmap.mmap:
        """A read-only mapping of [start, stop); `start` is a multiple of
        `mmap.ALLOCATIONGRANULARITY`. OSError if the file no longer reaches `stop`."""
        try:
            return mmap.mmap(self.fd, stop - start, access=mmap.ACCESS_READ, offset=start)
        except ValueError:  # mmap's refusal of a span past the end of the file
            raise OSError(f"dump {self.path} shrank since it was loaded") from None

    def __enter__(self) -> "DumpImage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def range_of(self, va: int) -> MemoryRange | None:
        i = bisect.bisect_right(self._starts, va) - 1
        if i >= 0 and va < self.ranges[i].va_end:
            return self.ranges[i]
        return None

    def translate(self, va: int) -> int | None:
        """Virtual address to file offset; None when unmapped."""
        r = self.range_of(va)
        if r is None:
            return None
        return r.offset + (va - r.va)

    def read_va(self, va: int, count: int) -> bytes | None:
        """Read `count` bytes at a virtual address, walking adjacent ranges.

        Returns None when any part of the span is unmapped.
        """
        out = bytearray()
        while count > 0:
            r = self.range_of(va)
            if r is None:
                return None
            take = min(count, r.va_end - va)
            off = r.offset + (va - r.va)
            out += self[off : off + take]
            va += take
            count -= take
        return bytes(out)


#: The name every caller opens a dump by.
load_dump = DumpImage


@dataclass
class KeyCandidate:
    """One scan hit: where the pattern sat and what the key pointer yielded."""

    struct_offset: int
    struct_va: int
    key_va: int | None = None
    key: SessionKey | None = None
    chain_confirmed: bool | None = None  # None: not checked (only verified keys are)
    verified: bool = False

    def to_dict(self) -> dict:
        return {
            "struct_offset": self.struct_offset,
            "struct_va": self.struct_va,
            "key_va": self.key_va,
            "key_present": self.key is not None,
            "chain_confirmed": self.chain_confirmed,
            "verified": self.verified,
        }


#: Bytes of a range that `_windows` maps at a time, and so the most of
#: the dump a scan keeps resident. 2 MiB windows on 2 MiB file boundaries,
#: which the kernel maps with one fault where it caches the file in 2 MiB
#: folios, scanned a 32 MiB dump in 18.6 ms against 20.3 ms (2-vCPU VM,
#: Linux 6.18, ext4), but `recover-key` then peaked 2 MiB higher on a
#: 128 MiB dump than on a 1 MiB one.
_SCAN_WINDOW = 1 << 20


def _windows(dump: DumpImage, needle_len: int, from_va: int = 0):
    """Map each range at `from_va` or above, in VA order, one window of
    `_SCAN_WINDOW` bytes at a time, and yield (window, lo, hi, offset, va):
    the `needle_len`-byte matches inside `window[lo:hi]` are the ones that
    start in this window's share of the range, so a search of every window
    finds each match in a range exactly once, one that runs on into the
    next window included, and none that spans two ranges. `offset` and
    `va` are the file offset and the virtual address of `window[0]`.

    A window is closed when the caller asks for the next one or closes
    this iterator. So the dump's resident bytes stay at one window,
    whatever the size of the dump or of the kernel's page-cache folios, as
    long as no caller starts a second pass while one is suspended (see
    `_first_aligned`).
    """
    for rng in dump.ranges:
        end = rng.offset + rng.length
        for start in range(rng.offset + max(0, from_va - rng.va), end, _SCAN_WINDOW):
            # a match found below this limit starts inside the window
            limit = min(end, start + _SCAN_WINDOW + needle_len - 1)
            base = start - start % mmap.ALLOCATIONGRANULARITY
            with dump.window(base, limit) as window:
                yield window, start - base, limit - base, base, rng.va + base - rng.offset


def _find_aligned(dump: DumpImage, needle: bytes, alignment: int, from_va: int = 0):
    """Yield (file offset, va) of every aligned occurrence of `needle` at
    `from_va` or above, range by range in VA order, searched forward
    through `_windows`."""
    for window, lo, hi, offset, va in _windows(dump, len(needle), from_va):
        while (found := window.find(needle, lo, hi)) != -1:
            lo = found + 1
            if (va + found) % alignment == 0:
                yield offset + found, va + found


def _first_aligned(
    dump: DumpImage, needle: bytes, alignment: int, from_va: int = 0
) -> tuple[int, int] | None:
    """The first match `_find_aligned` yields, its window closed by the
    time this returns; None when there is none."""
    with contextlib.closing(_find_aligned(dump, needle, alignment, from_va)) as matches:
        return next(matches, None)


def scan_key_candidates(dump: DumpImage) -> list[KeyCandidate]:
    """Single linear pass over all mapped ranges for the key-data triple.

    The triple is searched at every byte offset: verification, not the
    scan, culls false hits. Each hit's key pointer is read at each of the
    dump's `pointer_widths`, and each key read is a candidate; a hit whose
    pointer yields no key is still one. Candidates with identical key bytes
    are collapsed to the first occurrence. An empty list is a normal
    result. Each window is searched from its top down, and the hits are
    put in file order before they are collapsed.
    """
    n = len(KEY_DATA_PATTERN)
    hits: list[KeyCandidate] = []
    for window, lo, hi, offset, va in _windows(dump, n):
        # from the top down: `rfind` skips on the pattern's first byte,
        # 0x10, where `find` skips on its last, 0x00, the commonest byte in memory
        while (found := window.rfind(KEY_DATA_PATTERN, lo, hi)) != -1:
            hi = found + n - 1  # the next match starts below this one, overlapping it or not
            read = []  # one candidate per width at which the key pointer is mapped
            for pw in dump.pointer_widths:
                # by VA, so a pointer that runs on into the next range is still read
                if (ptr := dump.read_va(va + found + n, pw)) is not None:
                    key_va = int.from_bytes(ptr, "little")
                    # a key is read only where the dump maps all 32 of its bytes
                    key = dump.read_va(key_va, 32)
                    read.append(KeyCandidate(offset + found, va + found, key_va,
                                             None if key is None else SessionKey(key)))
            # a hit that yields no key is one candidate, with the first pointer read
            keyed = [c for c in read if c.key is not None]
            hits += keyed or read[:1] or [KeyCandidate(offset + found, va + found)]

    hits.sort(key=lambda c: c.struct_offset)
    seen: set[bytes] = set()
    out = []
    for cand in hits:
        if cand.key is not None:
            if cand.key.key_bytes in seen:
                continue
            seen.add(cand.key.key_bytes)
        out.append(cand)
    return out


def confirm_chain(dump: DumpImage, candidate: KeyCandidate) -> bool:
    """Look for the two upper links of the key-handle chain.

    True iff, at one of the dump's `pointer_widths`, some cell points at
    the candidate's key-data record and some other cell holds that cell's
    address XOR-masked with the handle constant. Only raises candidate
    confidence; never disqualifies.
    """
    step = POINTER_CELL_ALIGNMENT
    for pw in dump.pointer_widths:
        mask = (1 << (8 * pw)) - 1
        key_data_va = candidate.struct_va - pw
        if not 0 <= key_data_va <= mask:  # no pointer cell of this width can hold it
            continue
        pointer = key_data_va.to_bytes(pw, "little")
        # one pass at a time: each cell's search ends before the next begins
        magic_cell = _first_aligned(dump, pointer, step)
        while magic_cell is not None:
            _, magic_cell_va = magic_cell
            masked = (magic_cell_va ^ HANDLE_XOR_CONSTANT) & mask
            if _first_aligned(dump, masked.to_bytes(pw, "little"), step) is not None:
                return True
            magic_cell = _first_aligned(dump, pointer, step, magic_cell_va + 1)
    return False


@dataclass(frozen=True)
class Evidence:
    """What we check a candidate key against: the first ciphertext block(s)
    of one encrypted file, and the plaintext they must decrypt to, which is
    the first bytes (at least 16) of that file's original version. When no
    original is at hand, `plaintext` is None and the built-in library of
    file-type header magics stands in for it. `victim_block` is the
    encrypted file's (`trailer.Classification.victim_block`): the files a
    key found by this evidence may restore are the ones of its session,
    which carry the same block.

    Both factories read the files when called, so verifying many candidates
    costs one small decrypt each. The encrypted file's path is resolved
    once, so a link given for it still works, and then opened as a walked
    file is (`trailer.open_classified`): a FIFO, a device or any other
    non-regular file raises OSError and is never read.
    """

    ciphertext: bytes
    plaintext: bytes | None = None
    victim_block: bytes | None = None

    def __post_init__(self) -> None:
        if self.plaintext is not None and len(self.plaintext) < MIN_PLAINTEXT_MATCH:
            raise EvidenceError(
                f"known plaintext prefix must be at least {MIN_PLAINTEXT_MATCH} bytes, "
                f"got {len(self.plaintext)}"
            )

    @classmethod
    def from_original(
        cls, encrypted_path: str | os.PathLike, original_path: str | os.PathLike
    ) -> "Evidence":
        fd, _st = open_regular(original_path)
        with open(fd, "rb") as fh:
            prefix = fh.read(64)
        if len(prefix) < MIN_PLAINTEXT_MATCH:
            raise EvidenceError(
                f"original file {original_path} is shorter than "
                f"{MIN_PLAINTEXT_MATCH} bytes and cannot anchor verification"
            )
        return cls._read(Path(encrypted_path), prefix)

    @classmethod
    def from_header_magics(cls, encrypted_path: str | os.PathLike) -> "Evidence":
        return cls._read(Path(encrypted_path), None)

    @classmethod
    def _read(cls, encrypted_path: Path, prefix: bytes | None) -> "Evidence":
        fd, _st, found = open_classified(encrypted_path.resolve())
        try:
            if found.damage:
                raise EvidenceError(f"{encrypted_path} has a damaged trailer: {found.damage}")
            if found.trailer is None:
                raise EvidenceError(f"{encrypted_path} is not an infected file")
            if found.trailer.prefix_length < 16:
                raise EvidenceError(f"{encrypted_path} has an empty encrypted body")

            want = None
            ct_len = 16
            if prefix is not None:
                want = prefix[: found.trailer.original_length]
                if len(want) < MIN_PLAINTEXT_MATCH:
                    raise EvidenceError("known plaintext shorter than the evidence file content")
                ct_len = min(ceil16(len(want)), found.trailer.prefix_length)
            return cls(read_at(fd, ct_len, 0), want, found.victim_block)
        finally:
            if fd is not None:
                os.close(fd)


def verify_key(key: SessionKey, evidence: Evidence) -> bool:
    """Decrypt the evidence file's first block(s) with `key` and compare.

    Known-plaintext mode needs a 16-byte match minimum; header-magic mode
    accepts any library entry (all 8+ bytes) as a decrypted prefix.
    """
    plain = decrypt_stream(key, evidence.ciphertext)
    if evidence.plaintext is not None:
        return plain[: len(evidence.plaintext)] == evidence.plaintext
    return any(plain.startswith(magic) for _, magic in HEADER_MAGICS)


class RecoveryOutcome(str, Enum):
    FOUND = "found"
    NOT_FOUND = "not_found"
    AMBIGUOUS = "ambiguous"

    def __str__(self) -> str:
        return self.value


@dataclass
class RecoveryResult:
    outcome: RecoveryOutcome
    key: SessionKey | None
    candidates: list[KeyCandidate] = field(default_factory=list)

    def to_dict(self, *, include_key: bool = False) -> dict:
        return {
            "outcome": self.outcome.value,
            "key_hex": self.key.hex() if (self.key and include_key) else None,
            "candidates": [c.to_dict() for c in self.candidates],
        }


def recover_key(dump: DumpImage, evidence: Evidence) -> RecoveryResult:
    """Scan, verify, and rank; return the single verified key if any.

    Never returns an unverified key; keyless candidates never verify. Two
    distinct keys both passing verification is reported as ambiguous
    rather than guessing. The outcome depends only on the verified set, so
    the key-handle chain (a full pass over the dump per call) is looked for
    only behind verified candidates; the rest keep `chain_confirmed=None`.
    """
    candidates = scan_key_candidates(dump)
    for cand in candidates:
        cand.verified = cand.key is not None and verify_key(cand.key, evidence)
        if cand.verified:
            cand.chain_confirmed = confirm_chain(dump, cand)
    candidates.sort(key=lambda c: (not c.verified, not c.chain_confirmed, c.struct_offset))

    verified_keys = {c.key.key_bytes for c in candidates if c.verified}
    if not verified_keys:
        log.info("scan produced %d candidates, none verified", len(candidates))
        return RecoveryResult(RecoveryOutcome.NOT_FOUND, None, candidates)
    if len(verified_keys) > 1:
        log.warning("%d distinct keys verified; refusing to guess", len(verified_keys))
        return RecoveryResult(RecoveryOutcome.AMBIGUOUS, None, candidates)
    key = next(c.key for c in candidates if c.verified)
    return RecoveryResult(RecoveryOutcome.FOUND, key, candidates)
