"""Whole-file transforms: infect (emulator only) and recover.

Encryption touches only the first 0x100000 bytes of a file, leaves the
remainder untouched, and appends the 512-byte victim block plus the
24-byte trailer. Recovery reverses that: decrypt the encrypted prefix,
drop its zero padding past the recorded original length, copy the
remainder, and leave out the 536-byte appendix.

Both directions write to a temporary sibling and replace atomically, so a
crash mid-operation never leaves a half-written file as the only copy. The
replacement keeps the source file's owner, group, mode, atime and mtime.
"""

from __future__ import annotations

import logging
import os
import stat
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator

from .cipher import SessionKey, decrypt_stream, encrypt_stream
from .errors import SandboxViolation
from .trailer import (
    APPENDIX_LEN,
    ENCRYPTED_PREFIX_LIMIT,
    VictimBlock,
    build_trailer,
    classify_open,
    read_exact,
)

log = logging.getLogger(__name__)

_TMP_SUFFIX = ".avrescue-tmp"
SIDE_BY_SIDE_SUFFIX = ".decrypted"


class FileStatus(str, Enum):
    DECRYPTED = "decrypted"
    ENCRYPTED = "encrypted"
    SKIPPED_CLEAN = "skipped_clean"
    SKIPPED_INFECTED = "skipped_infected"
    CORRUPT_TRAILER = "corrupt_trailer"
    IO_ERROR = "io_error"

    def __str__(self) -> str:
        return self.value


@dataclass
class FileRecoveryReport:
    """One row of a run report; `status == decrypted` implies the output
    file length equals `original_length`."""

    path: str
    status: FileStatus
    original_length: int | None = None
    bytes_processed: int = 0
    duration_s: float = 0.0
    detail: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "status": self.status.value,
            "original_length": self.original_length,
            "bytes_processed": self.bytes_processed,
            "duration_s": round(self.duration_s, 6),
            "detail": self.detail,
        }


def walk_files(roots: Iterable[str | os.PathLike]) -> Iterator[Path]:
    """Regular files under `roots`, depth-first in lexicographic order.

    A regular-file root yields itself, and paths keep the form the caller
    gave. A root that is a symlink is followed, to a directory or to a
    file; a file link yields its resolved target, so that a restore
    replaces the target and the link keeps pointing at it. A root that
    equals an earlier root, or lies inside another, is dropped, so
    overlapping roots yield each file once. Symlinks inside a tree are
    never followed or yielded. Unreadable directories are logged and
    skipped.
    """
    roots = [Path(root) for root in roots]
    real = [root.resolve() for root in roots]  # once per root, never per file
    for i, root in enumerate(roots):
        if any(real[i].is_relative_to(other) and (j < i or real[i] != other)
               for j, other in enumerate(real)):
            continue
        if not root.is_file():
            yield from _walk_dir(root)
        elif root.is_symlink():
            yield real[i]
        else:
            yield root


def _walk_dir(directory: Path) -> Iterator[Path]:
    try:
        with os.scandir(directory) as it:
            entries = sorted(it, key=lambda e: e.name)
    except OSError as exc:
        log.warning("cannot list %s: %s", directory, exc)
        return
    for entry in entries:
        child = Path(entry.path)
        try:
            if entry.is_symlink():
                continue
            is_dir = entry.is_dir(follow_symlinks=False)
            is_file = entry.is_file(follow_symlinks=False)
        except OSError as exc:
            log.warning("cannot stat %s: %s", child, exc)
            continue
        if is_dir:
            yield from _walk_dir(child)
        elif is_file:
            yield child


def _copy_exact(src: BinaryIO, dst: BinaryIO, n: int) -> None:
    """Copy the next `n` bytes of `src` to `dst`, 1 MiB at a time."""
    while n:
        chunk = read_exact(src, min(n, 1 << 20))
        dst.write(chunk)
        n -= len(chunk)


def replace_atomically(
    path: str | os.PathLike,
    write_body: Callable[[BinaryIO], object],
    source: os.stat_result | None = None,
) -> None:
    """Write a replacement for `path` to a new temp sibling, then rename over it.

    `mkstemp` creates the temp `.<name>.<random><_TMP_SUFFIX>` with O_EXCL
    and mode 0600, so it never follows a planted link. With `source`, the
    stat result of the file the replacement was made from, the replacement
    gets its owner, group, mode, atime and mtime; where the owner cannot be
    copied, the set-id and sticky bits are dropped.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=_TMP_SUFFIX)
    try:
        with open(fd, "wb") as dst:
            write_body(dst)
            if source is not None:
                dst.flush()  # so that no later write moves the mtime
                mode = stat.S_IMODE(source.st_mode)
                try:
                    os.fchown(fd, source.st_uid, source.st_gid)
                except OSError:
                    mode &= 0o777
                os.fchmod(fd, mode)
                os.utime(fd, ns=(source.st_atime_ns, source.st_mtime_ns))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def encrypt_file(
    path: str | os.PathLike,
    key: SessionKey,
    victim_block: VictimBlock,
    *,
    sandbox_root: str | os.PathLike,
) -> FileRecoveryReport:
    """Infect one regular file in place. Emulator and fixture use only.

    The mandatory `sandbox_root` is a hard gate: the resolved target must
    live strictly inside it. Already-infected files are refused, mirroring
    the re-encryption check the format was designed around.
    """
    started = time.perf_counter()
    path = Path(path)
    root = Path(sandbox_root).resolve()
    real = path.resolve()
    if root == Path(root.anchor) or not real.is_relative_to(root) or real == root:
        raise SandboxViolation(f"{path} is not inside the sandbox root {root}")

    try:
        with open(real, "rb") as src:
            st = os.fstat(src.fileno())  # of the bytes read, even if the name is swapped
            size = st.st_size
            trailer = classify_open(src, size).trailer
            if trailer is not None:
                return FileRecoveryReport(
                    str(path),
                    FileStatus.SKIPPED_INFECTED,
                    original_length=trailer.original_length,
                    duration_s=time.perf_counter() - started,
                )

            src.seek(0)
            prefix_len = min(size, ENCRYPTED_PREFIX_LIMIT)
            processed = 0

            def write_body(dst: BinaryIO) -> None:
                nonlocal processed
                processed = dst.write(encrypt_stream(key, read_exact(src, prefix_len)))
                _copy_exact(src, dst, size - prefix_len)
                dst.write(victim_block.data)
                dst.write(build_trailer(size))

            replace_atomically(real, write_body, st)
    except OSError as exc:
        log.warning("could not encrypt %s: %s", path, exc)
        return FileRecoveryReport(
            str(path),
            FileStatus.IO_ERROR,
            duration_s=time.perf_counter() - started,
            detail=str(exc),
        )

    return FileRecoveryReport(
        str(path),
        FileStatus.ENCRYPTED,
        original_length=size,
        bytes_processed=processed,
        duration_s=time.perf_counter() - started,
    )


def decrypt_file(
    path: str | os.PathLike,
    key: SessionKey,
    output_policy: str = "in_place",
) -> FileRecoveryReport:
    """Recover one infected file.

    `output_policy` is "in_place" (atomic replace of the infected file) or
    "side_by_side" (write `<name>.decrypted` next to it, source untouched).
    Key validity is not judged here; a wrong key yields garbage content
    with correct structure. Verification belongs to the memory-scan side.
    """
    if output_policy not in ("in_place", "side_by_side"):
        raise ValueError(f"unknown output policy {output_policy!r}")
    started = time.perf_counter()
    path = Path(path)
    original_length: int | None = None

    try:
        with open(path, "rb") as src:
            st = os.fstat(src.fileno())  # of the bytes read, even if the name is swapped
            size = st.st_size
            found = classify_open(src, size)
            if found.trailer is None:
                status = FileStatus.CORRUPT_TRAILER if found.damage else FileStatus.SKIPPED_CLEAN
                return FileRecoveryReport(
                    str(path),
                    status,
                    duration_s=time.perf_counter() - started,
                    detail=found.damage,
                )

            original_length = found.trailer.original_length
            body = size - APPENDIX_LEN
            enc_prefix = min(body, ENCRYPTED_PREFIX_LIMIT)
            src.seek(0)
            processed = enc_prefix

            def write_body(dst: BinaryIO) -> None:
                # classify checked the recorded length against the body, so
                # the slice drops exactly the zero padding
                dst.write(decrypt_stream(key, read_exact(src, enc_prefix))[:original_length])
                # untouched middle of a large file; stop before the appendix
                _copy_exact(src, dst, body - enc_prefix)

            if output_policy == "in_place":
                out_path = path
            else:
                out_path = path.with_name(path.name + SIDE_BY_SIDE_SUFFIX)
            replace_atomically(out_path, write_body, st)
    except OSError as exc:
        log.warning("could not decrypt %s: %s", path, exc)
        return FileRecoveryReport(
            str(path),
            FileStatus.IO_ERROR,
            original_length=original_length,
            duration_s=time.perf_counter() - started,
            detail=str(exc),
        )

    return FileRecoveryReport(
        str(path),
        FileStatus.DECRYPTED,
        original_length=original_length,
        bytes_processed=processed,
        duration_s=time.perf_counter() - started,
    )
