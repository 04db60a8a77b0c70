"""On-disk infection format: the one place that knows an infected file's layout.

An infected file is its body (`Trailer.body_length`): the encrypted prefix
(`Trailer.prefix_length`), then the rest of the original, untouched. 536
bytes follow: a 512-byte opaque victim block, then a 24-byte trailer that
records the original length (little-endian u64 at offset 0) and two fixed
magics (u32 at offsets 8 and 16) that mark the file as encrypted. Detection
is content-based only; file names and extensions are never consulted.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass

from .errors import TrailerError

TRAILER_LEN = 24
VICTIM_BLOCK_LEN = 512
APPENDIX_LEN = VICTIM_BLOCK_LEN + TRAILER_LEN

MAGIC_A = 0x200
MAGIC_B = 0x01030307

#: Only the first 0x100000 bytes of a file are ever encrypted.
ENCRYPTED_PREFIX_LIMIT = 0x100000

#: Sanity bound on the recorded original length (2^48 bytes).
MAX_ORIGINAL_LENGTH = 1 << 48

_TRAILER_STRUCT = struct.Struct("<QIII4s")
assert _TRAILER_STRUCT.size == TRAILER_LEN


@dataclass(frozen=True)
class Trailer:
    """Decoded trailer fields; decoding never validates, see `classify`."""

    original_length: int
    magic_a: int
    reserved_c: int
    magic_b: int
    tail_d: bytes

    @property
    def body_length(self) -> int:
        """Length of the body before the appendix: `expected_body_length`."""
        return expected_body_length(self.original_length)

    @property
    def prefix_length(self) -> int:
        """Length of the ciphertext: `encrypted_prefix_length`, zero-padded."""
        return ceil16(encrypted_prefix_length(self.original_length))


@dataclass(frozen=True)
class VictimBlock:
    """The 512 opaque bytes written before the trailer."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != VICTIM_BLOCK_LEN:
            raise TrailerError(
                f"victim block must be {VICTIM_BLOCK_LEN} bytes, got {len(self.data)}"
            )

    @classmethod
    def zeros(cls) -> "VictimBlock":
        return cls(bytes(VICTIM_BLOCK_LEN))


def ceil16(n: int) -> int:
    """Round up to the next multiple of the AES block size."""
    return (n + 15) & ~15


def encrypted_prefix_length(original_length: int) -> int:
    """How many leading bytes of a file of `original_length` are encrypted."""
    return min(original_length, ENCRYPTED_PREFIX_LIMIT)


def expected_body_length(original_length: int) -> int:
    """Body length implied by a recorded original length: the encrypted
    prefix, zero-padded to a whole block, then the untouched rest."""
    prefix = encrypted_prefix_length(original_length)
    return ceil16(prefix) + original_length - prefix


def parse_trailer(raw: bytes) -> Trailer:
    """Decode 24 trailer bytes.

    Decoding is purely structural: magic mismatches do not raise, so a
    damaged trailer can still be inspected and reported field by field.

    Raises:
        TrailerError: if `raw` is not exactly 24 bytes.
    """
    if len(raw) != TRAILER_LEN:
        raise TrailerError(f"trailer must be {TRAILER_LEN} bytes, got {len(raw)}")
    original_length, magic_a, reserved_c, magic_b, tail_d = _TRAILER_STRUCT.unpack(raw)
    return Trailer(original_length, magic_a, reserved_c, magic_b, tail_d)


def build_trailer(original_length: int) -> bytes:
    """Serialize a trailer for a file of `original_length` bytes.

    The reserved field is written as 1 and the 4 tail bytes as zeros; their
    semantics are unknown and nothing downstream checks them.
    """
    if not 0 <= original_length <= MAX_ORIGINAL_LENGTH:
        raise TrailerError(f"original length {original_length} outside sanity bound")
    return _TRAILER_STRUCT.pack(original_length, MAGIC_A, 1, MAGIC_B, b"\x00" * 4)


@dataclass(frozen=True)
class Classification:
    """What a file's size and last 24 bytes say about it.

    Infected: `trailer` is set. Damaged: `damage` says why (one magic
    matches, or both match but the recorded length does not fit the body).
    Clean: neither is set.
    """

    trailer: Trailer | None = None
    damage: str | None = None


def classify(size: int, tail: bytes) -> Classification:
    """The one infection rule, over a file's size and its last 24 bytes.

    A file is infected when it is large enough to carry the 536-byte
    appendix, both magics match, and the recorded original length is sane
    and implies the file's body length (`Trailer.body_length`). `tail` is
    ignored for files too small to carry the appendix.
    """
    if size < APPENDIX_LEN:
        return Classification()
    trailer = parse_trailer(tail)
    magic_hits = (trailer.magic_a == MAGIC_A) + (trailer.magic_b == MAGIC_B)
    if magic_hits == 0:
        return Classification()
    if magic_hits == 1:
        return Classification(
            damage=f"one magic damaged: magic_a={trailer.magic_a:#x} magic_b={trailer.magic_b:#x}"
        )
    if trailer.original_length > MAX_ORIGINAL_LENGTH or trailer.body_length != size - APPENDIX_LEN:
        return Classification(
            damage=f"magics match but recorded length {trailer.original_length} is "
            f"inconsistent with body length {size - APPENDIX_LEN}"
        )
    return Classification(trailer=trailer)


def read_at(fd: int, n: int, offset: int) -> bytes:
    """`n` bytes of the open descriptor `fd` from `offset`; OSError if the file ends first."""
    data = os.pread(fd, n, offset)
    if len(data) != n:
        raise OSError(f"file shrank while being read: wanted {n} bytes, got {len(data)}")
    return data


def classify_fd(fd: int, size: int) -> Classification:
    """`classify` the file open on `fd`, of `size` bytes: one `pread` of its tail.

    Raises:
        OSError: if the file is now shorter than `size`.
    """
    if size < APPENDIX_LEN:  # cannot be infected; spare the read
        return classify(size, b"")
    return classify(size, read_at(fd, TRAILER_LEN, size - TRAILER_LEN))


#: How a file is opened for reading: without blocking, so a FIFO or device
#: named where a regular file was expected cannot hang a caller
_READ_FLAGS = os.O_RDONLY | os.O_NONBLOCK | os.O_CLOEXEC


def open_regular(
    path: str | os.PathLike, *, dir_fd: int | None = None, follow_symlinks: bool = True
) -> tuple[int, os.stat_result]:
    """Open the regular file at `path` for reading: its descriptor, for the
    caller to close, and the `fstat` of the open file. As in `os`, a
    relative `path` is taken relative to the directory open on `dir_fd`,
    and with `follow_symlinks=False` a link at `path` raises.

    The open never blocks; anything the `fstat` does not show as a regular
    file (a FIFO, a device) raises OSError `not a regular file: …`, with
    nothing left open.
    """
    flags = _READ_FLAGS if follow_symlinks else _READ_FLAGS | os.O_NOFOLLOW
    fd = os.open(path, flags, dir_fd=dir_fd)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise OSError(f"not a regular file: {os.fspath(path)}")
        return fd, st
    except BaseException:
        os.close(fd)
        raise


def open_classified(
    path: str | os.PathLike, *, dir_fd: int | None = None
) -> tuple[int | None, os.stat_result, Classification]:
    """`classify` the file at `path` and leave it open: its descriptor, for
    the caller to close, its stat result and its `Classification`. As in
    `os`, a relative `path` is taken relative to the directory open on
    `dir_fd`.

    One `stat` that does not follow a link. A regular file too small to
    carry the appendix is clean and never opened: the descriptor is None.
    Anything else is opened by `open_regular`, never through a link, so a
    FIFO or device put in its place after a walk cannot hang the caller;
    the `fstat` of the open file, which is the stat returned, must show a
    file no shorter than the `stat` saw; it is classified at the size the
    `fstat` shows, with one 24-byte `pread` of the tail. I/O problems
    propagate as OSError, with nothing left open, so callers can tell
    "unreadable" from "clean".
    """
    seen = os.stat(path, dir_fd=dir_fd, follow_symlinks=False)
    if seen.st_size < APPENDIX_LEN and stat.S_ISREG(seen.st_mode):  # cannot be infected
        return None, seen, classify(seen.st_size, b"")
    fd, st = open_regular(path, dir_fd=dir_fd, follow_symlinks=False)
    try:
        if st.st_size < seen.st_size:  # one that grows is read at its new size
            raise OSError(f"file shrank while being read: {seen.st_size} bytes, "
                          f"then {st.st_size}")
        return fd, st, classify_fd(fd, st.st_size)
    except BaseException:
        os.close(fd)
        raise


def probe(path: str | os.PathLike, *, dir_fd: int | None = None) -> Classification:
    """`classify` the file at `path` (see `open_classified`), relative to
    the directory open on `dir_fd` as in `os`."""
    fd, _st, found = open_classified(path, dir_fd=dir_fd)
    if fd is not None:
        os.close(fd)
    return found
