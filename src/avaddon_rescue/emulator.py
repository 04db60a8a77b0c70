"""Benign, sandboxed generation of format-faithful test artifacts.

Three fixture factories live here: an infection emulator that encrypts a
corpus under the same traversal/skip rules the real sample uses, a hybrid
wrap of the session key under a locally generated operator RSA pair, and
a synthetic memory-dump writer that plants the key-handle structure chain
for the scanner to find.

Every write is gated: the sandbox root must sit strictly inside an
allow-listed location and the caller must pass a literal confirmation
token. Nothing here deletes a file it did not write, persists, spawns
processes, or touches anything outside the sandbox and the explicit dump
output path.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import random
import secrets
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Any, Sequence

from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .cipher import SessionKey
from .errors import LayoutSpecError, SandboxViolation, WrapError
from .filecodec import FileRecoveryReport, FileStatus, encrypt_file, replace_atomically, walk_runs
from .memscan import (
    DUMP_FORMATS,
    HANDLE_XOR_CONSTANT,
    KEY_DATA_PATTERN,
    default_map_path,
    load_dump,
)
from .minidump import write_minidump
from .trailer import VICTIM_BLOCK_LEN, VictimBlock

log = logging.getLogger(__name__)

#: Path fragments the encryption pass leaves untouched.
DEFAULT_PATH_SUBSTRINGS: tuple[str, ...] = (
    "C:\\Program Files\\Microsoft\\Exchange Server",
    "C:\\Program Files (x86)\\Microsoft\\Exchange Server",
    "C:\\Program Files\\Microsoft SQL Server",
    "C:\\Program Files (x86)\\Microsoft SQL Server",
    "C:\\Windows",
    "C:\\Program Files",
    "C:\\Users\\All Users",
    "C:\\Users\\Public",
    "C:\\Users\\%User Profile%\\AppData\\Local\\Temp",
    "C:\\Program Files (x86)",
    "C:\\Users\\%User Profile%\\AppData",
    "C:\\ProgramData",
    "Tor Browser",
    "AppData",
    "ProgramData",
    "Program Files",
    "Windows",
    "363053-readme.html",
    "bckgrd.bmp",
)

#: Extensions that are never encrypted.
DEFAULT_EXCLUDED_EXTENSIONS: tuple[str, ...] = (
    "bin", "ini", "sys", "dll", "lnk", "dat", "exe",
    "drv", "rdp", "prf", "swp", "mdf", "mds", "sql",
)

CONFIRM_TOKEN = "i-understand-this-writes-files"
ALLOWLIST_ENV_VAR = "AVADDON_RESCUE_SANDBOX_ALLOWLIST"


@dataclass(frozen=True)
class SkipPolicy:
    """The path-substring whitelist plus the excluded-extension list."""

    path_substrings: tuple[str, ...]
    extensions: tuple[str, ...]

    @classmethod
    def default(cls) -> "SkipPolicy":
        return cls(DEFAULT_PATH_SUBSTRINGS, DEFAULT_EXCLUDED_EXTENSIONS)

    def exclusion_reason(self, path: str | os.PathLike, *, check_substrings: bool = True) -> str | None:
        """Why `path` would be skipped, or None if it would be encrypted.

        The substring check is suppressed for priority folders, matching
        the original traversal's special case.
        """
        text = str(path)
        if check_substrings:
            for fragment in self.path_substrings:
                if fragment in text:
                    return f"path contains {fragment!r}"
        suffix = Path(text).suffix
        if suffix:
            ext = suffix[1:].lower()
            if ext in self.extensions:
                return f"extension {ext!r} is excluded"
        return None


def generate_session_key(seed: int | None = None) -> SessionKey:
    """32 random key bytes; pass a seed for reproducible fixtures."""
    if seed is None:
        return SessionKey(secrets.token_bytes(32))
    return SessionKey(random.Random(seed).randbytes(32))


_OAEP = padding.OAEP(
    mgf=padding.MGF1(algorithm=hashes.SHA256()), algorithm=hashes.SHA256(), label=None
)


@dataclass(frozen=True)
class OperatorKeyPair:
    """Test-only stand-in for the operators' RSA pair (we hold both halves)."""

    private: rsa.RSAPrivateKey

    @property
    def public(self) -> rsa.RSAPublicKey:
        return self.private.public_key()

    @classmethod
    def generate(cls, bits: int = 2048) -> "OperatorKeyPair":
        if bits < 2048:
            raise WrapError(f"operator key must be at least 2048 bits, got {bits}")
        return cls(rsa.generate_private_key(public_exponent=65537, key_size=bits))

    def private_pem(self) -> bytes:
        return self.private.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )


def wrap_session_key(key: SessionKey, operator_public: rsa.RSAPublicKey) -> VictimBlock:
    """Asymmetrically encrypt the session key into a 512-byte victim block.

    Ciphertext sits at offset 0, zero-filled to 512. The recovery path
    never parses this block; it exists so the operator-side round trip can
    be exercised end to end.
    """
    ciphertext = operator_public.encrypt(key.key_bytes, _OAEP)
    if len(ciphertext) > VICTIM_BLOCK_LEN:
        raise WrapError(
            f"wrapped key is {len(ciphertext)} bytes and does not fit the "
            f"{VICTIM_BLOCK_LEN}-byte victim block; use a smaller operator key"
        )
    return VictimBlock(ciphertext + bytes(VICTIM_BLOCK_LEN - len(ciphertext)))


def unwrap_session_key(block: VictimBlock, operator_private: rsa.RSAPrivateKey) -> SessionKey:
    """Inverse of `wrap_session_key`; tampering fails the padding check."""
    ciphertext = block.data[: operator_private.key_size // 8]
    try:
        raw = operator_private.decrypt(ciphertext, _OAEP)
    except ValueError as exc:
        raise WrapError("victim block failed integrity check during unwrap") from exc
    if len(raw) != 32:
        raise WrapError(f"unwrapped key has {len(raw)} bytes, expected 32")
    return SessionKey(raw)


def plan_traversal(
    roots: Sequence[str | os.PathLike],
    priority_paths: Sequence[str | os.PathLike] = (),
    policy: SkipPolicy | None = None,
    skip: AbstractSet[tuple[int, int]] = frozenset(),
) -> list[Path]:
    """Depth-first, lexicographic traversal producing the encryption plan.

    Each priority path is walked in the order given, then each root, so
    priority folders come first; they skip the path-substring whitelist
    (the extension check still applies there). A file reached twice, as
    by a priority folder inside a root or a link to one, is planned once,
    where it is first reached. Symlinks inside a tree are never followed.
    Unreadable directories and leftover temps are logged and skipped.
    Already-infected files stay in the plan; `encrypt_file` refuses them.
    No name of a file whose `(st_dev, st_ino)` is in `skip` is planned.
    """
    policy = policy or SkipPolicy.default()
    planned: list[Path] = []
    seen: set[str] = set()
    for paths, check_substrings in ((priority_paths, False), (roots, True)):
        for top in paths:
            for run in walk_runs([Path(top).absolute()], skip):
                for failed, detail in run.failures:
                    log.warning("not planned %s: %s", failed, detail)
                for name in run.names:
                    key = os.path.join(run.opened, name)  # the walk resolved the directory
                    if key in seen:
                        continue
                    seen.add(key)
                    path = Path(run.directory, name)
                    if not policy.exclusion_reason(path, check_substrings=check_substrings):
                        planned.append(path)
    return planned


def allowed_sandbox_roots() -> list[Path]:
    """Locations a sandbox may live under.

    Defaults to the system temp directory; the env var points at a config
    file (one path per line, `#` comments) that replaces the default.
    """
    roots: list[Path] = []
    config = os.environ.get(ALLOWLIST_ENV_VAR)
    if config:
        for line in Path(config).read_text().splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                roots.append(Path(line))
    else:
        roots.append(Path(tempfile.gettempdir()))
    return [p.resolve() for p in roots]


def ensure_sandbox(
    sandbox_root: str | os.PathLike,
    *,
    confirm_token: str | None,
    allow_roots: Sequence[str | os.PathLike] | None = None,
) -> Path:
    """Validate the sandbox gate; returns the resolved root or raises.

    Refuses: a missing token, filesystem roots, home directories, and any
    resolved path (symlinks and `..` collapse first) that is not a strict
    descendant of an allow-listed location.
    """
    if confirm_token != CONFIRM_TOKEN:
        raise SandboxViolation(
            f"refusing to write files: confirmation token missing "
            f"(pass {CONFIRM_TOKEN!r})"
        )
    root = Path(sandbox_root).resolve()
    if not root.is_dir():
        raise SandboxViolation(f"sandbox root {root} is not an existing directory")
    if root == Path(root.anchor):
        raise SandboxViolation(f"refusing to use the filesystem root {root} as sandbox")
    if root == Path.home().resolve():
        raise SandboxViolation(f"refusing to use the home directory {root} as sandbox")
    allowed = (
        [Path(p).resolve() for p in allow_roots]
        if allow_roots is not None
        else allowed_sandbox_roots()
    )
    for candidate in allowed:
        if root != candidate and root.is_relative_to(candidate):
            return root
    raise SandboxViolation(
        f"sandbox root {root} is not strictly inside any allow-listed "
        f"location ({', '.join(map(str, allowed)) or 'none configured'})"
    )


@dataclass
class InfectionReport:
    """One emulation pass: one row per planned file; every count is read off the rows."""

    rows: list[FileRecoveryReport] = field(default_factory=list)

    def _count(self, status: FileStatus) -> int:
        return sum(1 for row in self.rows if row.status is status)

    planned = property(lambda self: len(self.rows))
    encrypted = property(lambda self: self._count(FileStatus.ENCRYPTED))
    skipped_infected = property(lambda self: self._count(FileStatus.SKIPPED_INFECTED))
    errors = property(lambda self: self.planned - self.encrypted - self.skipped_infected)
    bytes_encrypted = property(lambda self: sum(
        row.original_length or 0 for row in self.rows if row.status is FileStatus.ENCRYPTED
    ))

    def totals(self) -> dict[str, int]:
        names = ("planned", "encrypted", "skipped_infected", "errors", "bytes_encrypted")
        return {name: getattr(self, name) for name in names}


def emulate_infection(
    sandbox_root: str | os.PathLike,
    key: SessionKey,
    policy: SkipPolicy | None,
    victim_block: VictimBlock,
    *,
    confirm_token: str | None = None,
    allow_roots: Sequence[str | os.PathLike] | None = None,
    priority_paths: Sequence[str | os.PathLike] = (),
    skip: AbstractSet[tuple[int, int]] = frozenset(),
) -> InfectionReport:
    """Encrypt every plannable file under the sandbox root.

    The gate runs before any file is touched; a violation is a hard
    refusal. Every planned file gets one row. Re-running over the same
    sandbox encrypts nothing: `encrypt_file`'s re-encryption check turns
    each infected file into a `skipped_infected` row, and a file it cannot
    read into an `io_error` row. A file whose `(st_dev, st_ino)` is in
    `skip`, such as the report of the run, is never planned.
    """
    root = ensure_sandbox(sandbox_root, confirm_token=confirm_token, allow_roots=allow_roots)
    plan = plan_traversal([root], priority_paths=priority_paths, policy=policy, skip=skip)
    report = InfectionReport()
    for path in plan:
        try:
            row = encrypt_file(path, key, victim_block, sandbox_root=root)
        except SandboxViolation as exc:
            row = FileRecoveryReport(str(path), FileStatus.IO_ERROR, detail=str(exc))
        report.rows.append(row)
    return report


# --- synthetic dumps -------------------------------------------------------


@dataclass
class PlantedChain:
    """Ground truth for one key-handle chain inside a synthetic dump.

    `magic_s_va`/`hcryptkey_va` may be None to plant a bare key-data
    record, which the scanner must still pick up (chain unconfirmed).
    """

    key: SessionKey
    key_data_va: int
    key_va: int
    magic_s_va: int | None = None
    hcryptkey_va: int | None = None


@dataclass
class Decoy:
    """A key-data pattern that must never verify.

    kind "wrong_key": valid pointer to 32 garbage bytes at `key_va`.
    kind "bad_pointer": pointer that resolves neither as VA nor as a file
    offset.
    """

    kind: str
    key_data_va: int
    key_va: int | None = None


@dataclass
class DumpLayoutSpec:
    """Declarative layout for `write_synthetic_dump`."""

    ranges: list[tuple[int, int]]  # (va, length)
    chains: list[PlantedChain]
    decoys: list[Decoy] = field(default_factory=list)
    pointer_width: int = 4
    container: str = "raw"  # one of memscan.DUMP_FORMATS
    minidump_list: str = "memory64"
    fill: str = "zero"  # zero | random
    seed: int | None = None


_BAD_POINTER_32 = 0xFFFF_FF00
_BAD_POINTER_64 = 0xFFFF_FFFF_FFFF_F000


def _hcryptkey_bytes(pw: int, magic_s_va: int) -> bytes:
    mask = (1 << (8 * pw)) - 1
    fields = [0] * 11 + [(magic_s_va ^ HANDLE_XOR_CONSTANT) & mask]
    return b"".join(v.to_bytes(pw, "little") for v in fields)


def _key_data_bytes(pw: int, key_va: int) -> bytes:
    return bytes(pw) + KEY_DATA_PATTERN + key_va.to_bytes(pw, "little")


def manifest_path(dump_path: str | os.PathLike) -> Path:
    return Path(str(dump_path) + ".manifest.json")


def write_synthetic_dump(spec: DumpLayoutSpec, path: str | os.PathLike) -> dict[str, Any]:
    """Emit the dump file plus a ground-truth manifest.

    The manifest (also written to `<path>.manifest.json`) records every
    planted VA and the final file offsets so tests can assert translation
    correctness without re-deriving the layout. Each file is written by
    `replace_atomically`, with mode 0600, and the dump from the range
    buffers themselves, so one copy of it is held. As a self-check, the
    written dump (and its sidecar map) is opened with `load_dump`, as the
    recovery commands open it, and every planted structure is read back
    there; a failed check removes the files this call wrote.
    """
    if spec.pointer_width not in (4, 8):
        raise LayoutSpecError("pointer width must be 4 or 8")
    if spec.container not in DUMP_FORMATS:
        raise LayoutSpecError(f"unknown container {spec.container!r}")
    if spec.fill not in ("zero", "random"):
        raise LayoutSpecError(f"unknown fill profile {spec.fill!r}")
    pw = spec.pointer_width
    rng = random.Random(spec.seed)

    ranges = sorted(spec.ranges, key=lambda r: r[0])
    if spec.container == "raw":
        # a raw dump is one identity mapping; collapse to a single flat region
        if ranges:
            flat_end = max(va + length for va, length in ranges)
            ranges = [(0, flat_end)]
    for (va_a, len_a), (va_b, _len_b) in zip(ranges, ranges[1:]):
        if va_b < va_a + len_a:
            raise LayoutSpecError(f"declared ranges overlap at {va_b:#x}")
    if any(length <= 0 for _, length in ranges):
        raise LayoutSpecError("ranges must have positive length")

    total = sum(length for _, length in ranges)
    bad_pointer = _BAD_POINTER_32 if pw == 4 else _BAD_POINTER_64
    if total > bad_pointer:
        raise LayoutSpecError("dump too large for the reserved bad-pointer value")
    if any(d.kind == "bad_pointer" for d in spec.decoys) and any(
        rva <= bad_pointer < rva + rlen for rva, rlen in ranges
    ):
        raise LayoutSpecError("a declared range covers the reserved bad-pointer value")

    for i, decoy in enumerate(spec.decoys):
        if decoy.kind not in ("wrong_key", "bad_pointer"):
            raise LayoutSpecError(f"unknown decoy kind {decoy.kind!r}")
        if decoy.kind == "wrong_key" and decoy.key_va is None:
            raise LayoutSpecError(f"decoy{i} of kind wrong_key needs a key_va")

    # build per-range buffers
    def filler(length: int) -> bytearray:
        buf = bytearray(length)
        if spec.fill == "random":
            step = 16 << 20  # randbytes overflows past ~256 MiB
            for lo in range(0, length, step):
                buf[lo : lo + step] = rng.randbytes(min(step, length - lo))
        return buf

    buffers = [filler(length) for _, length in ranges]
    planted: list[tuple[int, bytes, str]] = []

    def poke(va: int, data: bytes, what: str) -> None:
        for buf, (rva, rlen) in zip(buffers, ranges):
            if rva <= va and va + len(data) <= rva + rlen:
                buf[va - rva : va - rva + len(data)] = data
                planted.append((va, data, what))
                return
        raise LayoutSpecError(f"{what} at {va:#x} does not fit inside any range")

    true_keys = {chain.key.key_bytes for chain in spec.chains}
    for i, chain in enumerate(spec.chains):
        poke(chain.key_data_va, _key_data_bytes(pw, chain.key_va), f"chain{i}.key_data")
        poke(chain.key_va, chain.key.key_bytes, f"chain{i}.key")
        if chain.magic_s_va is not None:
            poke(chain.magic_s_va, chain.key_data_va.to_bytes(pw, "little"), f"chain{i}.magic_s")
            if chain.hcryptkey_va is not None:
                poke(chain.hcryptkey_va, _hcryptkey_bytes(pw, chain.magic_s_va),
                     f"chain{i}.hcryptkey")
    decoy_rows = []
    for i, decoy in enumerate(spec.decoys):
        if decoy.kind == "wrong_key":
            garbage = rng.randbytes(32)
            while garbage in true_keys:
                garbage = rng.randbytes(32)
            poke(decoy.key_data_va, _key_data_bytes(pw, decoy.key_va), f"decoy{i}.key_data")
            poke(decoy.key_va, garbage, f"decoy{i}.key")
        else:
            poke(decoy.key_data_va, _key_data_bytes(pw, bad_pointer), f"decoy{i}.key_data")
        decoy_rows.append({"kind": decoy.kind, "key_data_va": decoy.key_data_va,
                           "key_va": decoy.key_va})

    # lay out the container from the range buffers, uncopied, then read it back
    path = Path(path)
    if spec.container == "minidump":
        chunks = write_minidump([(rva, buf) for buf, (rva, _r) in zip(buffers, ranges)], pw,
                                list_kind=spec.minidump_list)
    else:
        # payloads back to back; raw's one range starts at va 0, so offset == va
        chunks = buffers
    written: list[Path] = []
    try:
        replace_atomically(path, chunks)
        written.append(path)
        if spec.container == "raw_with_map":
            offsets = itertools.accumulate((rlen for _, rlen in ranges), initial=0)
            rows = [{"va": rva, "length": rlen, "offset": offset}
                    for (rva, rlen), offset in zip(ranges, offsets)]
            replace_atomically(default_map_path(path), [json.dumps(rows, indent=2).encode()])
            written.append(default_map_path(path))
        with load_dump(path, spec.container) as image:
            if image.pointer_width not in (None, pw):  # a raw flavor records no width
                raise LayoutSpecError(f"self-check failed: the {spec.container} reads back "
                                      f"with pointer width {image.pointer_width}, not {pw}")
            # a structure that does not read back either collides with one
            # planted after it or sits in a range the container misplaced
            for va, data, what in planted:
                if image.read_va(va, len(data)) != data:
                    raise LayoutSpecError(
                        f"self-check failed: {what} at {va:#x} does not read back "
                        f"(it collides with a later structure, or its range is misplaced)"
                    )
    except BaseException:
        for done in written:
            done.unlink()
        raise
    range_rows = [{"va": r.va, "length": r.length, "offset": r.offset} for r in image.ranges]

    manifest: dict[str, Any] = {
        "container": spec.container,
        "pointer_width": pw,
        "key_hex": spec.chains[0].key.hex() if spec.chains else None,
        "chains": [
            {
                "hcryptkey_va": c.hcryptkey_va,
                "magic_s_va": c.magic_s_va,
                "key_data_va": c.key_data_va,
                "key_va": c.key_va,
                "key_hex": c.key.hex(),
                "key_file_offset": image.translate(c.key_va),
            }
            for c in spec.chains
        ],
        "decoys": decoy_rows,
        "ranges": range_rows,
    }
    replace_atomically(manifest_path(path), [json.dumps(manifest, indent=2).encode()])
    return manifest


def random_dump_layout(
    seed: int,
    *,
    pointer_width: int = 4,
    container: str = "raw",
    n_decoys: int = 0,
    n_chains: int = 1,
    total_bytes: int = 64 << 20,
    fill: str | None = None,
    minidump_list: str | None = None,
) -> DumpLayoutSpec:
    """Build a randomized but valid layout for stress fixtures.

    All placement, filler, decoy kinds and keys derive from `seed`, so a
    failing case reproduces exactly.
    """
    rng = random.Random(seed)
    pw = pointer_width

    if container == "raw":
        ranges = [(0, total_bytes)]
    else:
        n_ranges = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, 64), n_ranges - 1)) if n_ranges > 1 else []
        parts, prev = [], 0
        for cut in cuts + [64]:
            parts.append((cut - prev) * (total_bytes // 64))
            prev = cut
        parts[-1] += total_bytes - sum(parts)
        ranges = []
        va = rng.randrange(0x0040_0000, 0x0100_0000, 0x1000)
        for length in parts:
            ranges.append((va, length))
            va += length + rng.randrange(0x1000, 0x10_0000, 0x1000)

    # sequential allocator with random gaps; structures never collide
    cursors = [va + rng.randrange(0x100, 0x1000, 16) for va, _ in ranges]

    def alloc(size: int) -> int:
        idx = rng.randrange(len(ranges))
        rva, rlen = ranges[idx]
        va = cursors[idx]
        if va + size > rva + rlen:
            idx = max(range(len(ranges)), key=lambda i: ranges[i][0] + ranges[i][1] - cursors[i])
            rva, rlen = ranges[idx]
            va = cursors[idx]
            if va + size > rva + rlen:
                raise LayoutSpecError("layout ran out of room for structures")
        cursors[idx] = va + size + rng.randrange(16, 0x2000, 16)
        return va

    chains = []
    for _ in range(n_chains):
        chains.append(
            PlantedChain(
                key=SessionKey(rng.randbytes(32)),
                key_data_va=alloc(2 * pw + 12),
                key_va=alloc(32),
                magic_s_va=alloc(pw),
                hcryptkey_va=alloc(12 * pw),
            )
        )
    decoys = []
    for _ in range(n_decoys):
        kind = rng.choice(("wrong_key", "bad_pointer"))
        decoys.append(
            Decoy(
                kind=kind,
                key_data_va=alloc(2 * pw + 12),
                key_va=alloc(32) if kind == "wrong_key" else None,
            )
        )

    return DumpLayoutSpec(
        ranges=ranges,
        chains=chains,
        decoys=decoys,
        pointer_width=pw,
        container=container,
        minidump_list=minidump_list or rng.choice(("memory64", "memory32")),
        fill=fill or rng.choice(("zero", "random")),
        seed=rng.randrange(1 << 30),
    )
