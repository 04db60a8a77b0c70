"""Operator-facing command line: detect, recover-key, decrypt, emulate, strings.

Reports go to stdout (or --out) as versioned JSON; progress and logging go
to stderr, never interleaved with report data. Key material is written
only to permission-restricted key files and is withheld from the terminal
unless --show-key is passed.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Any, BinaryIO

import click

from . import __version__
from .cipher import SessionKey
from .emulator import (
    CONFIRM_TOKEN,
    OperatorKeyPair,
    SkipPolicy,
    emulate_infection,
    generate_session_key,
    random_dump_layout,
    wrap_session_key,
    write_synthetic_dump,
)
from .errors import AvaddonRescueError, SandboxViolation
from .filecodec import SIDE_BY_SIDE_SUFFIX, decrypt_file, replace_atomically, walk_files
from .memscan import (
    DUMP_FORMATS,
    Evidence,
    RecoveryOutcome,
    RecoveryResult,
    load_dump,
    recover_key,
    verify_key,
)
from .strings import label_batch, parse_batch_input, rows_to_json, rows_to_tsv
from .trailer import probe

REPORT_SCHEMA_VERSION = 1


class ExitCode(IntEnum):
    OK = 0
    ERROR = 1
    # 2 is reserved for usage errors
    NOTHING_INFECTED = 3
    KEY_NOT_FOUND = 4
    AMBIGUOUS_KEY = 5
    PARTIAL_FAILURE = 6
    GATE_REFUSAL = 7


@dataclass
class RunReport:
    """Machine-readable result of one command invocation."""

    command: str
    parameters: dict[str, Any]
    rows: list[dict[str, Any]] = field(default_factory=list)
    key_recovery: dict[str, Any] | None = None
    totals: dict[str, Any] = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": self.parameters,
            "rows": self.rows,
            "key_recovery": self.key_recovery,
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _status_note(message: str) -> None:
    click.echo(message, err=True)


def _write_key_file(path: str, data: bytes) -> None:
    """Write key material to a new mode-0600 sibling, then rename it over `path`,
    so that a reader holding an existing file there open never sees the key."""
    replace_atomically(path, lambda fh: fh.write(data))


def _totals(rows: list[dict[str, Any]], wall_time: float) -> dict[str, Any]:
    return {
        "files_scanned": len(rows),
        # detect and decrypt rows carry original_length only for infected files
        "infected": sum(1 for r in rows if r.get("original_length") is not None),
        "decrypted": sum(1 for r in rows if r.get("status") == "decrypted"),
        "failed": sum(
            1 for r in rows if r.get("status") in ("io_error", "corrupt_trailer")
        ),
        "bytes": sum(r.get("bytes_processed") or 0 for r in rows),
        "wall_time": round(wall_time, 3),
    }


def _exit_by_rows(totals: dict[str, Any]) -> None:
    """Exit 6 when any row failed, else 3 when no row is infected, else 0."""
    if totals["failed"]:
        raise SystemExit(ExitCode.PARTIAL_FAILURE)
    if totals["infected"] == 0:
        raise SystemExit(ExitCode.NOTHING_INFECTED)
    raise SystemExit(ExitCode.OK)


_OUT_OPTION = click.option("--out", type=click.Path(dir_okay=False),
                           help="Write the report to a file instead of stdout.")


@click.group()
@click.version_option(version=__version__, prog_name="avaddon-rescue")
@click.option("-v", "--verbose", is_flag=True, help="Chatty progress on stderr.")
def cli(verbose: bool) -> None:
    """Detect, analyze, and recover from Avaddon-format file encryption."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s [%(levelname)s] %(name)s: %(message)s",
    )


@cli.command("detect")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")
@_OUT_OPTION
def cmd_detect(paths: tuple[str, ...], as_json: bool, out: str | None) -> None:
    """Recursively scan PATHS and report infected files."""
    started = time.perf_counter()
    rows: list[dict[str, Any]] = []
    for path in walk_files(paths):
        try:
            found = probe(path)
        except OSError as exc:
            rows.append({"path": str(path), "status": "io_error", "detail": str(exc)})
            continue
        if found.trailer is not None:
            rows.append({"path": str(path), "status": "infected",
                         "original_length": found.trailer.original_length})
        elif found.damage:
            rows.append({"path": str(path), "status": "corrupt_trailer", "detail": found.damage})
        else:
            rows.append({"path": str(path), "status": "clean"})
    rows.sort(key=lambda r: r["path"])
    report = RunReport(
        command="detect",
        parameters={"paths": list(paths)},
        rows=rows,
        totals=_totals(rows, time.perf_counter() - started),
    )

    if as_json or out:
        _emit(report.to_json(), out)
    else:
        for row in rows:
            if row["status"] != "clean":
                click.echo(f"{row['status']:>10}  {row['path']}")
        t = report.totals
        click.echo(
            f"scanned {t['files_scanned']} files: {t['infected']} infected, "
            f"{t['failed']} failed"
        )
    _exit_by_rows(report.totals)


def _evidence_from_flags(
    evidence_encrypted: str | None,
    evidence_original: str | None,
    header_magic: bool,
) -> Evidence:
    if not evidence_encrypted:
        raise click.UsageError("--evidence-encrypted is required to verify a key")
    if evidence_original and header_magic:
        raise click.UsageError("--evidence-original and --header-magic are mutually exclusive")
    if evidence_original:
        return Evidence.from_original(evidence_encrypted, evidence_original)
    if header_magic:
        return Evidence.from_header_magics(evidence_encrypted)
    raise click.UsageError("pass --evidence-original FILE or --header-magic")


_KEY_SOURCE_OPTIONS = (
    click.option("--format", "fmt", type=click.Choice(["auto", *DUMP_FORMATS]),
                 default="auto", show_default=True, help="Dump container."),
    click.option("--map", "map_path", type=click.Path(exists=True, dir_okay=False),
                 help="Sidecar VA map (raw_with_map)."),
    click.option("--pointer-width", type=click.Choice(["4", "8"]), default=None,
                 help="Override pointer width for raw dumps."),
    click.option("--evidence-encrypted", type=click.Path(exists=True, dir_okay=False),
                 help="One encrypted file to verify candidate keys against."),
    click.option("--evidence-original", type=click.Path(exists=True, dir_okay=False),
                 help="The original (pre-infection) copy of that file."),
    click.option("--header-magic", is_flag=True,
                 help="Verify against known file-type headers instead of an original copy."),
)


def _key_source_options(command):
    """The dump and evidence options `recover-key` and `decrypt` share."""
    for option in reversed(_KEY_SOURCE_OPTIONS):
        command = option(command)
    return command


def _recover_from_dump(
    dump: str,
    fmt: str,
    map_path: str | None,
    pointer_width: str | None,
    evidence: Evidence,
) -> RecoveryResult:
    width = int(pointer_width) if pointer_width else None
    with load_dump(dump, fmt, map_path=map_path, pointer_width=width) as image:
        _status_note(
            f"scanning {dump} ({image.format}, {len(image.ranges)} ranges, "
            f"{image.pointer_width * 8}-bit)"
        )
        return recover_key(image, evidence)


@cli.command("recover-key")
@click.option("--dump", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Process memory dump.")
@_key_source_options
@click.option("--key-out", type=click.Path(dir_okay=False), default="avaddon_session_key.hex",
              show_default=True, help="Where to store the recovered key (mode 0600).")
@click.option("--show-key", is_flag=True, help="Also print the key hex to the report.")
@click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")
@_OUT_OPTION
def cmd_recover_key(
    dump: str,
    fmt: str,
    map_path: str | None,
    pointer_width: str | None,
    evidence_encrypted: str | None,
    evidence_original: str | None,
    header_magic: bool,
    key_out: str,
    show_key: bool,
    as_json: bool,
    out: str | None,
) -> None:
    """Scan a memory dump for the AES-256 session key and verify it."""
    started = time.perf_counter()
    evidence = _evidence_from_flags(evidence_encrypted, evidence_original, header_magic)
    result = _recover_from_dump(dump, fmt, map_path, pointer_width, evidence)

    if result.outcome is RecoveryOutcome.FOUND:
        assert result.key is not None
        _write_key_file(key_out, f"{result.key.hex()}\n".encode())
        _status_note(f"key recovered and written to {key_out}")

    report = RunReport(
        command="recover-key",
        parameters={
            "dump": dump,
            "format": fmt,
            "evidence_encrypted": evidence_encrypted,
            "evidence_original": evidence_original,
            "header_magic": header_magic,
        },
        key_recovery=result.to_dict(include_key=show_key),
        totals={"wall_time": round(time.perf_counter() - started, 3)},
    )
    if as_json or out:
        _emit(report.to_json(), out)
    else:
        click.echo(f"outcome: {result.outcome}")
        click.echo(f"candidates: {len(result.candidates)}")
        if result.outcome is RecoveryOutcome.FOUND:
            click.echo(f"key file: {key_out}")
            if show_key:
                click.echo(f"key: {result.key.hex()}")

    if result.outcome is RecoveryOutcome.FOUND:
        raise SystemExit(ExitCode.OK)
    if result.outcome is RecoveryOutcome.AMBIGUOUS:
        raise SystemExit(ExitCode.AMBIGUOUS_KEY)
    raise SystemExit(ExitCode.KEY_NOT_FOUND)


@cli.command("decrypt")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--key-file", type=click.Path(exists=True, dir_okay=False),
              help="File holding the session key hex.")
@click.option("--dump", type=click.Path(exists=True, dir_okay=False),
              help="Recover the key from this dump first.")
@_key_source_options
@click.option("--no-verify", is_flag=True,
              help="Skip the key verification gate (only with --key-file).")
@click.option("--in-place/--side-by-side", "in_place", default=True,
              help="Replace infected files atomically, or write .decrypted copies.")
@click.option("--jobs", type=click.IntRange(min=1), default=os.cpu_count() or 1,
              show_default="CPU count", help="Worker threads; each restores one directory.")
@click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")
@_OUT_OPTION
def cmd_decrypt(
    paths: tuple[str, ...],
    key_file: str | None,
    dump: str | None,
    fmt: str,
    map_path: str | None,
    pointer_width: str | None,
    evidence_encrypted: str | None,
    evidence_original: str | None,
    header_magic: bool,
    no_verify: bool,
    in_place: bool,
    jobs: int,
    as_json: bool,
    out: str | None,
) -> None:
    """Detect infected files under PATHS and decrypt them all."""
    started = time.perf_counter()
    if bool(key_file) == bool(dump):
        raise click.UsageError("pass exactly one of --key-file or --dump")

    key_recovery: dict[str, Any] | None = None
    if key_file:
        key = SessionKey.from_hex(Path(key_file).read_bytes())
        if no_verify:
            _status_note("key verification skipped (--no-verify)")
        else:
            evidence = _evidence_from_flags(evidence_encrypted, evidence_original, header_magic)
            if not verify_key(key, evidence):
                _status_note("key failed verification against the evidence; refusing to touch files")
                raise SystemExit(ExitCode.GATE_REFUSAL)
    else:
        if no_verify:
            raise click.UsageError("--no-verify requires --key-file")
        evidence = _evidence_from_flags(evidence_encrypted, evidence_original, header_magic)
        result = _recover_from_dump(dump, fmt, map_path, pointer_width, evidence)
        key_recovery = result.to_dict(include_key=False)
        if result.outcome is RecoveryOutcome.AMBIGUOUS:
            raise SystemExit(ExitCode.AMBIGUOUS_KEY)
        if result.outcome is not RecoveryOutcome.FOUND:
            raise SystemExit(ExitCode.KEY_NOT_FOUND)
        key = result.key

    targets = [p for p in walk_files(paths) if not p.name.endswith(SIDE_BY_SIDE_SUFFIX)]
    policy = "in_place" if in_place else "side_by_side"
    # one task per run of files in one directory: workers that share a
    # directory contend for it in the kernel when they create and rename
    runs = [list(run) for _, run in itertools.groupby(targets, key=lambda p: p.parent)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        done = pool.map(lambda run: [decrypt_file(p, key, policy).to_dict() for p in run], runs)
        rows = sorted(itertools.chain.from_iterable(done), key=lambda r: r["path"])
    report = RunReport(
        command="decrypt",
        parameters={
            "paths": list(paths),
            "output_policy": policy,
            "jobs": jobs,
            "key_source": "key_file" if key_file else "dump",
        },
        rows=rows,
        key_recovery=key_recovery,
        totals=_totals(rows, time.perf_counter() - started),
    )
    if as_json or out:
        _emit(report.to_json(), out)
    else:
        t = report.totals
        click.echo(
            f"decrypted {t['decrypted']}/{t['infected']} infected files, {t['failed']} failed "
            f"({t['bytes']} ciphertext bytes, {t['wall_time']}s)"
        )
    _exit_by_rows(report.totals)


@cli.command("emulate")
@click.option("--sandbox", required=True, type=click.Path(exists=True, file_okay=False),
              help="Directory tree to encrypt; must live inside an allow-listed location.")
@click.option("--seed", type=int, default=None, help="Deterministic session key seed.")
@click.option("--i-understand-this-writes-files", "confirmed", is_flag=True,
              help="Mandatory confirmation; without it nothing is touched.")
@click.option("--allow-root", "allow_roots", multiple=True, type=click.Path(),
              help="Extra allow-listed location (repeatable).")
@click.option("--priority", "priority_paths", multiple=True, type=click.Path(),
              help="Folders to encrypt first, skipping the path whitelist (repeatable).")
@click.option("--key-out", type=click.Path(dir_okay=False),
              help="Store the session key hex (mode 0600).")
@click.option("--operator-key-out", type=click.Path(dir_okay=False),
              help="Store the generated operator RSA private key PEM (mode 0600).")
@click.option("--dump-out", type=click.Path(dir_okay=False),
              help="Also write a synthetic memory dump embedding the session key.")
@click.option("--dump-format", type=click.Choice(DUMP_FORMATS),
              default="minidump", show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")
@_OUT_OPTION
def cmd_emulate(
    sandbox: str,
    seed: int | None,
    confirmed: bool,
    allow_roots: tuple[str, ...],
    priority_paths: tuple[str, ...],
    key_out: str | None,
    operator_key_out: str | None,
    dump_out: str | None,
    dump_format: str,
    as_json: bool,
    out: str | None,
) -> None:
    """Encrypt a sandboxed tree with a benign, fully recoverable emulation."""
    started = time.perf_counter()
    key = generate_session_key(seed)
    pair = OperatorKeyPair.generate()
    block = wrap_session_key(key, pair.public)
    try:
        infection = emulate_infection(
            sandbox,
            key,
            SkipPolicy.default(),
            block,
            confirm_token=CONFIRM_TOKEN if confirmed else None,
            allow_roots=list(allow_roots) or None,
            priority_paths=priority_paths,
        )
    except SandboxViolation as exc:
        _status_note(f"gate refusal: {exc}")
        raise SystemExit(ExitCode.GATE_REFUSAL)

    if key_out:
        _write_key_file(key_out, f"{key.hex()}\n".encode())
        _status_note(f"session key written to {key_out}")
    if operator_key_out:
        _write_key_file(operator_key_out, pair.private_pem())
        _status_note(f"operator private key written to {operator_key_out}")
    if dump_out:
        layout = random_dump_layout(
            seed if seed is not None else int.from_bytes(os.urandom(4), "little"),
            container=dump_format,
            n_decoys=3,
            total_bytes=8 << 20,
        )
        layout.chains[0].key = key
        write_synthetic_dump(layout, dump_out)
        _status_note(f"synthetic dump written to {dump_out}")

    # no seed in the parameters: it derives the session key
    report = RunReport(
        command="emulate",
        parameters={
            "sandbox": infection.sandbox_root,
            "priority_paths": list(priority_paths),
            "dump_out": dump_out,
            "dump_format": dump_format,
        },
        rows=[row.to_dict() for row in infection.rows],
        totals={
            **infection.totals(),
            "wall_time": round(time.perf_counter() - started, 3),
        },
    )
    if as_json or out:
        _emit(report.to_json(), out)
    else:
        t = report.totals
        click.echo(
            f"encrypted {t['encrypted']}/{t['planned']} planned files "
            f"({t['bytes_encrypted']} bytes, {t['wall_time']}s); "
            f"{t['skipped_infected']} already infected, {t['errors']} errors"
        )
    raise SystemExit(ExitCode.PARTIAL_FAILURE if infection.errors else ExitCode.OK)


@cli.command("strings")
@click.option("--input", "batch", required=True, type=click.File("rb"),
              help="Batch file of identifier<TAB>base64 lines, or - for stdin.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv",
              show_default=True)
@_OUT_OPTION
def cmd_strings(batch: BinaryIO, fmt: str, out: str | None) -> None:
    """Decode obfuscated strings in batch and label each row."""
    rows = label_batch(parse_batch_input(batch.read()))
    rendered = rows_to_json(rows) if fmt == "json" else rows_to_tsv(rows)
    _emit(rendered, out)
    failed = sum(1 for r in rows if r.status != "ok")
    if failed:
        _status_note(f"{failed}/{len(rows)} rows failed to decode")
    raise SystemExit(ExitCode.OK)


def main() -> None:
    try:
        cli(standalone_mode=True)
    except (AvaddonRescueError, OSError) as exc:
        _status_note(f"error: {exc}")
        raise SystemExit(ExitCode.ERROR)


if __name__ == "__main__":
    main()
