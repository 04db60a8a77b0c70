"""Whole-file transforms: infect (emulator only) and recover.

Encryption touches only the first 0x100000 bytes of a file, leaves the
remainder untouched, and appends the 512-byte victim block plus the
24-byte trailer. Recovery reverses that: decrypt the encrypted prefix,
check that its padding past the recorded original length is zero and
drop it, copy the remainder, and leave out the 536-byte appendix. Every
read is a `pread` on one raw descriptor and every write an `os.write` to
one exclusively created temp file.

Both directions write to a temporary sibling of the output and replace
it atomically, so a crash never leaves a half-written file as the only
copy. The output keeps the source file's owner, group, mode and times.
"""

from __future__ import annotations

import contextlib
import errno
import itertools
import logging
import os
import re
import stat
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Any, Iterable, Iterator, NamedTuple

from .cipher import PAD_BYTE, SessionKey, decrypt_stream, encrypt_stream
from .errors import SandboxViolation
from .trailer import (
    VictimBlock,
    build_trailer,
    classify_fd,
    encrypted_prefix_length,
    open_classified,
    open_regular,
    read_at,
)

log = logging.getLogger(__name__)

_TMP_SUFFIX = ".avrescue-tmp"
#: `.<12 hex>.avrescue-tmp`, the name `replace_atomically` gives its temp, or
#: `.<name>.<12 hex>.avrescue-tmp`, the name it gave one before
_TMP_NAME = re.compile(r"\.(?:.+\.)?[0-9a-f]{12}" + re.escape(_TMP_SUFFIX), re.DOTALL)
_STALE_TEMP_DETAIL = "leftover temp file of an interrupted restore; not probed"
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC
_CHUNK_LEN = 1 << 20


class FileStatus(str, Enum):
    """The status of one report row, for every command that writes rows."""

    INFECTED = "infected"
    CLEAN = "clean"
    DECRYPTED = "decrypted"
    ENCRYPTED = "encrypted"
    SKIPPED_CLEAN = "skipped_clean"
    SKIPPED_INFECTED = "skipped_infected"
    CORRUPT_TRAILER = "corrupt_trailer"
    WRONG_KEY = "wrong_key"
    IO_ERROR = "io_error"

    def __str__(self) -> str:
        return self.value

    @property
    def failed(self) -> bool:
        """Whether a row of this status counts as failed."""
        return self in (FileStatus.CORRUPT_TRAILER, FileStatus.WRONG_KEY, FileStatus.IO_ERROR)


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


class Run(NamedTuple):
    """What the walk found in one directory, up to its next subdirectory.

    `directory` is the directory as the caller wrote it, so a row's path is
    `os.path.join(directory, name)`. `opened` is the same directory with
    every link resolved when it was listed, and `identity` its
    `(st_dev, st_ino)` then: a restore opens `opened` and checks that it
    is still that directory. `names` are its regular files, in name order.
    `failures` pairs a path with why it gets a failed row and no probe: a
    subdirectory that could not be listed, or a leftover temp file of an
    interrupted restore. Sorted together, the paths of `names` and
    `failures` follow the paths of the run before and precede those of
    the run after.
    """

    directory: str
    opened: str
    identity: tuple[int, int] | None
    names: list[str]
    failures: list[tuple[str, str]]


def walk_runs(roots: Iterable[str | os.PathLike],
              skip: AbstractSet[tuple[int, int]] = frozenset()) -> Iterator[Run]:
    """The files under `roots`, depth-first in path order, as runs of files
    that share a directory.

    Path order is the order of the paths as strings: a directory's files
    and subdirectories are visited as their paths sort, a subdirectory as
    its name plus "/", so `a.txt` comes before `a/`, and roots go in the
    order of their paths too. Each directory is listed whole before its
    runs are yielded, and a subdirectory is listed where its own path
    sorts, so that one which cannot be listed is a failure in path order.

    A regular-file root is a run of itself, and paths keep the form the
    caller gave. A root that is a symlink is followed, to a directory or to
    a file; a file link yields its resolved target, so that a restore
    replaces the target and the link keeps pointing at it. A root that
    equals an earlier root, or lies inside another, is dropped, so
    overlapping roots yield each file once. Symlinks inside a tree are
    never followed or yielded. A root that is neither a regular file nor a
    directory (a FIFO or a device) is logged and skipped; an unreadable
    directory becomes a failure, which the caller logs. No name of a file
    whose `(st_dev, st_ino)` is in `skip` is yielded.
    """
    roots = [Path(root) for root in roots]
    real = [root.resolve() for root in roots]  # once per root, never per file
    kept = []  # (sort key, path, resolved, is a directory)
    for i, root in enumerate(roots):
        if any(real[i].is_relative_to(other) and (j < i or real[i] != other)
               for j, other in enumerate(real)):
            continue
        try:
            st = os.stat(root)
        except OSError as exc:
            log.warning("cannot stat %s: %s", root, exc)
            continue
        if stat.S_ISDIR(st.st_mode):
            kept.append((os.path.join(root, ""), str(root), real[i], True))
        elif not stat.S_ISREG(st.st_mode):
            log.warning("skipping %s: not a regular file or directory", root)
        elif (st.st_dev, st.st_ino) not in skip:
            path = str(real[i] if root.is_symlink() else root)
            kept.append((path, path, real[i], False))
    for _key, path, resolved, is_dir in sorted(kept):
        if is_dir:
            try:
                listing = _list_dir(path, str(resolved), skip)
            except OSError as exc:
                yield Run(path, str(resolved), None, [], [_unlistable(path, exc)])
            else:
                yield from _walk_dir(path, str(resolved), listing, skip)
        else:
            st = os.stat(resolved.parent)
            yield Run(os.path.dirname(path), str(resolved.parent), (st.st_dev, st.st_ino),
                      [os.path.basename(path)], [])


# what a directory entry is to the walk, by where its path sorts
_FILE, _STALE_TEMP, _SUBDIR, _DESCEND = range(4)

_Listing = tuple[tuple[int, int], list[tuple[str, str, int]]]


def _list_dir(directory: str, opened: str, skip: AbstractSet[tuple[int, int]]) -> _Listing:
    """The `(st_dev, st_ino)` of `directory`, open at `opened`, and its entries
    as (sort key, name, kind), sorted by key, leaving out the files in `skip`.
    A subdirectory is two entries: `_SUBDIR` under its name, where a
    failure to list it sorts, and `_DESCEND` under its name plus "/",
    where its files sort."""
    st = os.stat(opened, follow_symlinks=False)
    if not stat.S_ISDIR(st.st_mode):  # swapped for a link since its parent was listed
        raise NotADirectoryError(errno.ENOTDIR, "no longer a directory", opened)
    inodes = {ino for _dev, ino in skip}
    entries = []
    with os.scandir(opened) as it:
        for entry in it:
            name = entry.name
            try:
                if entry.is_symlink():
                    continue
                is_dir = entry.is_dir(follow_symlinks=False)
                is_file = entry.is_file(follow_symlinks=False)
                # the listing's inode costs no syscall; only a match is stat'ed
                if is_file and entry.inode() in inodes:
                    found = entry.stat(follow_symlinks=False)
                    if (found.st_dev, found.st_ino) in skip:
                        continue
            except OSError as exc:
                log.warning("cannot stat %s: %s", os.path.join(directory, name), exc)
                continue
            if is_dir:
                entries += [(name, name, _SUBDIR), (name + "/", name, _DESCEND)]
            elif not is_file:
                continue
            elif name.endswith(_TMP_SUFFIX) and _TMP_NAME.fullmatch(name):
                entries.append((name, name, _STALE_TEMP))
            else:
                entries.append((name, name, _FILE))
    entries.sort()
    return (st.st_dev, st.st_ino), entries


def _unlistable(directory: str, exc: OSError) -> tuple[str, str]:
    return directory, f"cannot list directory: {exc}"


def _walk_dir(directory: str, opened: str, listing: _Listing,
              skip: AbstractSet[tuple[int, int]]) -> Iterator[Run]:
    identity, entries = listing
    names: list[str] = []
    failures: list[tuple[str, str]] = []
    listed: dict[str, _Listing] = {}  # subdirectories listed, not yet walked
    for _key, name, kind in entries:
        if kind == _FILE:
            names.append(name)
        elif kind == _STALE_TEMP:
            failures.append((os.path.join(directory, name), _STALE_TEMP_DETAIL))
        elif kind == _SUBDIR:
            path = os.path.join(directory, name)
            try:
                listed[name] = _list_dir(path, os.path.join(opened, name), skip)
            except OSError as exc:
                failures.append(_unlistable(path, exc))
        elif name in listed:
            if names or failures:
                yield Run(directory, opened, identity, names, failures)
                names, failures = [], []
            yield from _walk_dir(os.path.join(directory, name), os.path.join(opened, name),
                                 listed.pop(name), skip)
    if names or failures:
        yield Run(directory, opened, identity, names, failures)


def _read_span(fd: int, start: int, end: int) -> Iterator[bytes]:
    """Bytes `start` to `end` of the file open on `fd`, in 1 MiB `pread`s."""
    for offset in range(start, end, _CHUNK_LEN):
        yield read_at(fd, min(_CHUNK_LEN, end - offset), offset)


def replace_atomically(
    path: str | os.PathLike,
    chunks: Iterable[bytes],
    source: os.stat_result | None = None,
    *,
    dir_fd: int | None = None,
) -> None:
    """Write `chunks` to a new temp sibling of `path`, then rename it over `path`.

    The temp `.<random hex><_TMP_SUFFIX>` is created exclusively,
    with mode 0600 and without following a link, so a planted link or file
    under its name is never written through. With `source`, the stat
    result of the file the replacement was made from, the replacement gets
    its owner, group, mode, atime and mtime; where the owner cannot be
    copied, the set-id and sticky bits are dropped. As in `os`, a relative
    `path` is taken relative to the directory open on `dir_fd`. Any
    failure removes the temp. Key files are written here too: a reader
    that holds the old file open never sees the key. The temp's name does
    not repeat `path`'s, so a name as long as the directory allows can be
    replaced.
    """
    directory = os.path.dirname(path)
    while True:
        tmp = os.path.join(directory, f".{os.urandom(6).hex()}{_TMP_SUFFIX}")
        try:
            fd = os.open(tmp, _TMP_FLAGS, 0o600, dir_fd=dir_fd)
            break
        except FileExistsError:
            continue
    try:
        try:
            for chunk in chunks:
                while chunk:
                    chunk = chunk[os.write(fd, chunk):]
            if source is not None:  # after the last write, so that none moves the mtime
                mode = stat.S_IMODE(source.st_mode)
                try:
                    os.fchown(fd, source.st_uid, source.st_gid)
                except OSError:
                    mode &= 0o777
                os.fchmod(fd, mode)
                os.utime(fd, ns=(source.st_atime_ns, source.st_mtime_ns))
        finally:
            os.close(fd)
        os.replace(tmp, path, src_dir_fd=dir_fd, dst_dir_fd=dir_fd)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp, dir_fd=dir_fd)
        raise


def _row(
    path: str | os.PathLike,
    status: FileStatus,
    started: float,
    original_length: int | None = None,
    processed: int = 0,
    detail: str | None = None,
) -> FileRecoveryReport:
    """The report row of one file, timed from `started`."""
    return FileRecoveryReport(str(path), status, original_length, processed,
                              time.perf_counter() - started, detail)


def encrypt_file(
    path: str | os.PathLike,
    key: SessionKey,
    victim_block: VictimBlock,
    *,
    sandbox_root: str | os.PathLike,
) -> FileRecoveryReport:
    """Infect one regular file in place. Emulator and fixture use only.

    The mandatory `sandbox_root` is a hard gate: `path`, its directory
    resolved, must live strictly inside it, and a link at its name is
    refused, never followed. Already-infected files are refused, mirroring
    the re-encryption check the format was designed around.
    """
    started = time.perf_counter()
    path = Path(path)
    root = Path(sandbox_root).resolve()
    real = path.parent.resolve() / path.name
    if root == Path(root.anchor) or not real.is_relative_to(root) or real == root:
        raise SandboxViolation(f"{path} is not inside the sandbox root {root}")
    if real.is_symlink():
        raise SandboxViolation(f"{path} is a symbolic link")

    try:
        # the stat of the bytes read, even if the name is swapped; a FIFO
        # or a link swapped in for a planned file raises here instead
        fd, st = open_regular(real, follow_symlinks=False)
        try:
            size = st.st_size
            trailer = classify_fd(fd, size).trailer
            if trailer is not None:
                return _row(path, FileStatus.SKIPPED_INFECTED, started, trailer.original_length)
            prefix_len = encrypted_prefix_length(size)
            ciphertext = encrypt_stream(key, read_at(fd, prefix_len, 0))
            appendix = [victim_block.data, build_trailer(size)]
            replace_atomically(
                real, itertools.chain([ciphertext], _read_span(fd, prefix_len, size), appendix), st
            )
        finally:
            os.close(fd)
    except OSError as exc:
        log.warning("could not encrypt %s: %s", path, exc)
        return _row(path, FileStatus.IO_ERROR, started, detail=str(exc))
    return _row(path, FileStatus.ENCRYPTED, started, size, len(ciphertext))


def decrypt_file(
    path: str | os.PathLike,
    key: SessionKey,
    *,
    dir_fd: int | None = None,
    out_dir_fd: int | None = None,
) -> FileRecoveryReport:
    """Recover one infected file.

    The restored file replaces the infected one atomically, or, with
    `out_dir_fd`, takes the name `path` ends in inside the directory open
    on `out_dir_fd`, and the infected file is only ever opened read-only.
    The key is judged here only by the zero padding of a prefix shorter
    than 1 MiB: padding that decrypts to anything but zeros proves the key
    wrong, and the file is left untouched with a `wrong_key` row. A file
    with no pad bytes (its length a multiple of 16, or at least 1 MiB)
    cannot be checked, and a wrong key restores it to garbage with correct
    structure. Verification belongs to the memory-scan side.

    The file is classified as `probe` does it (`trailer.open_classified`): a
    regular file too small to be infected is never opened, and a link, a
    FIFO or a device at `path` is an `io_error` row. As in `os`, a
    relative `path` is taken relative to the directory open on `dir_fd`,
    and every call on the file names it that way.
    """
    started = time.perf_counter()
    original_length: int | None = None

    try:
        fd, st, found = open_classified(path, dir_fd=dir_fd)
        try:
            if found.trailer is None:
                status = FileStatus.CORRUPT_TRAILER if found.damage else FileStatus.SKIPPED_CLEAN
                return _row(path, status, started, detail=found.damage)

            layout = found.trailer
            original_length = layout.original_length
            plaintext = decrypt_stream(key, read_at(fd, layout.prefix_length, 0))
            # classify checked the recorded length against the body, so
            # what lies past it is exactly the zero padding
            padding = plaintext[original_length:]
            if padding.strip(PAD_BYTE):
                return _row(path, FileStatus.WRONG_KEY, started, original_length,
                            detail="padding past the recorded length is not zero")
            # the untouched middle of a large file follows; stop before the appendix
            rest = _read_span(fd, layout.prefix_length, layout.body_length)
            chunks = itertools.chain([plaintext[:original_length]], rest)
            if out_dir_fd is None:
                replace_atomically(path, chunks, st, dir_fd=dir_fd)
            else:
                replace_atomically(os.path.basename(path), chunks, st, dir_fd=out_dir_fd)
        finally:
            if fd is not None:
                os.close(fd)
    except OSError as exc:
        return _row(path, FileStatus.IO_ERROR, started, original_length, detail=str(exc))
    return _row(path, FileStatus.DECRYPTED, started, original_length, layout.prefix_length,
                None if padding else "no pad bytes to check")
