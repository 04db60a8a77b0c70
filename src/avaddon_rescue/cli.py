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
from enum import IntEnum
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable

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
from .filecodec import (
    FileRecoveryReport,
    FileStatus,
    Run,
    decrypt_file,
    replace_atomically,
    walk_runs,
)
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

log = logging.getLogger(__name__)


class ExitCode(IntEnum):
    OK = 0
    ERROR = 1
    # 2 is reserved for usage errors
    NOTHING_INFECTED = 3
    KEY_NOT_FOUND = 4
    AMBIGUOUS_KEY = 5
    PARTIAL_FAILURE = 6
    GATE_REFUSAL = 7


def _report(
    command: str,
    parameters: dict[str, Any],
    rows: list[dict[str, Any]],
    key_recovery: dict[str, Any] | None,
    totals: dict[str, Any],
) -> dict[str, Any]:
    """The versioned, machine-readable result of one command invocation."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "rows": rows,
        "key_recovery": key_recovery,
        "totals": totals,
    }


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
    replace_atomically(path, [data])


def _totals(rows: list[dict[str, Any]], wall_time: float) -> dict[str, Any]:
    return {
        "files_scanned": len(rows),
        # detect and decrypt rows carry original_length only for infected files
        "infected": sum(1 for r in rows if r.get("original_length") is not None),
        "decrypted": sum(1 for r in rows if r.get("status") == "decrypted"),
        "failed": sum(
            1 for r in rows if r.get("status") in ("io_error", "corrupt_trailer", "wrong_key")
        ),
        "bytes": sum(r.get("bytes_processed") or 0 for r in rows),
        "wall_time": round(wall_time, 3),
    }


def _exit_by_rows(totals: dict[str, Any]) -> ExitCode:
    """6 when any row failed, else 3 when no row is infected, else 0."""
    if totals["failed"]:
        return ExitCode.PARTIAL_FAILURE
    if totals["infected"] == 0:
        return ExitCode.NOTHING_INFECTED
    return ExitCode.OK


def _render(report: dict[str, Any]) -> str:
    """`report` as indented JSON with one row per line, each row written by
    the C encoder; it parses to the same object as `json.dumps(report)`."""
    fields = []
    for key, value in report.items():
        if key == "rows" and value:
            text = "[\n" + ",\n".join("    " + json.dumps(row) for row in value) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _finish(report: dict[str, Any], as_json: bool, out: str | None, summary: Iterable[str],
            code: ExitCode) -> None:
    """Write `report` as JSON (with --json or --out) or print the `summary`
    lines, then exit. A lazy `summary` is never built for a JSON report."""
    if as_json or out:
        _emit(_render(report), out)
    else:
        for line in summary:
            click.echo(line)
    raise SystemExit(code)


#: How `_run_rows` opens a run's directory: never through a link at its
#: last component, and `_run_rows` checks the rest by the inode
_DIR_FLAGS = os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC

RowFn = Callable[[str, str, int], dict[str, Any]]
FailedFn = Callable[[str, str], dict[str, Any]]


def _tree_rows(
    paths: tuple[str, ...],
    row: RowFn,
    failed: FailedFn,
    started: float,
    map_: Callable,
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """The rows of every file under `paths`, sorted by path, and their totals.

    `row(path, name, dir_fd)` gives a file's row, with `name` relative to
    its directory open on `dir_fd`; `failed(path, detail)` gives a failed
    row. The walk finishes before the first `row` call, so a run never
    walks its own outputs. `map_` gets one task per run of files in one
    directory: workers that share a directory contend for it in the kernel
    when they create and rename.
    """
    runs = list(walk_runs(paths))
    done = map_(lambda run: _run_rows(run, row, failed), runs)
    rows = sorted(itertools.chain.from_iterable(done), key=lambda r: r["path"])
    return rows, _totals(rows, time.perf_counter() - started)


def _run_rows(run: Run, row: RowFn, failed: FailedFn) -> list[dict[str, Any]]:
    """The rows of one run, its directory open on one descriptor throughout.

    A directory that cannot be opened, or is no longer the one the walk
    listed (swapped for a link or for another directory), fails every
    file of the run, and nothing inside it is opened.
    """
    rows = [failed(path, detail) for path, detail in run.failures]
    if not run.names:
        return rows
    paths = [os.path.join(run.directory, name) for name in run.names]
    try:
        dir_fd = os.open(run.opened, _DIR_FLAGS)
    except OSError as exc:
        return rows + [failed(path, str(exc)) for path in paths]
    try:
        st = os.fstat(dir_fd)
        if (st.st_dev, st.st_ino) != run.identity:
            detail = f"{run.directory} is no longer the directory that was listed"
            return rows + [failed(path, detail) for path in paths]
        return rows + [row(path, name, dir_fd) for path, name in zip(paths, run.names)]
    finally:
        os.close(dir_fd)


_OUT_OPTION = click.option("--out", type=click.Path(dir_okay=False),
                           help="Write the report to a file instead of stdout.")
_JSON_OPTION = click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")


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
@_JSON_OPTION
@_OUT_OPTION
def cmd_detect(paths: tuple[str, ...], as_json: bool, out: str | None) -> None:
    """Recursively scan PATHS and report infected files."""
    rows, totals = _tree_rows(paths, _detect_row, _detect_failed, time.perf_counter(), map)
    flagged = (f"{row['status']:>10}  {row['path']}" for row in rows if row["status"] != "clean")
    scanned = (f"scanned {totals['files_scanned']} files: {totals['infected']} infected, "
               f"{totals['failed']} failed")
    _finish(_report("detect", {"paths": list(paths)}, rows, None, totals), as_json, out,
            itertools.chain(flagged, [scanned]), _exit_by_rows(totals))


def _detect_row(path: str, name: str, dir_fd: int) -> dict[str, Any]:
    try:
        found = probe(name, dir_fd=dir_fd)
    except OSError as exc:
        return _detect_failed(path, str(exc))
    if found.trailer is not None:
        return {"path": path, "status": "infected",
                "original_length": found.trailer.original_length}
    if found.damage:
        return {"path": path, "status": "corrupt_trailer", "detail": found.damage}
    return {"path": path, "status": "clean"}


def _detect_failed(path: str, detail: str) -> dict[str, Any]:
    return {"path": path, "status": "io_error", "detail": detail}


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
@_JSON_OPTION
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

    summary = [f"outcome: {result.outcome}", f"candidates: {len(result.candidates)}"]
    code = ExitCode.KEY_NOT_FOUND
    if result.outcome is RecoveryOutcome.FOUND:
        assert result.key is not None
        _write_key_file(key_out, f"{result.key.hex()}\n".encode())
        _status_note(f"key recovered and written to {key_out}")
        summary.append(f"key file: {key_out}")
        if show_key:
            summary.append(f"key: {result.key.hex()}")
        code = ExitCode.OK
    elif result.outcome is RecoveryOutcome.AMBIGUOUS:
        code = ExitCode.AMBIGUOUS_KEY

    parameters = {
        "dump": dump,
        "format": fmt,
        "evidence_encrypted": evidence_encrypted,
        "evidence_original": evidence_original,
        "header_magic": header_magic,
    }
    totals = {"wall_time": round(time.perf_counter() - started, 3)}
    _finish(_report("recover-key", parameters, [], result.to_dict(include_key=show_key), totals),
            as_json, out, summary, code)


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
@_JSON_OPTION
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

    policy = "in_place" if in_place else "side_by_side"

    def row(path: str, name: str, dir_fd: int) -> dict[str, Any]:
        report = decrypt_file(name, key, policy, dir_fd=dir_fd)
        report.path = path
        if report.status is FileStatus.IO_ERROR:
            log.warning("could not decrypt %s: %s", path, report.detail)
        return report.to_dict()

    def failed(path: str, detail: str) -> dict[str, Any]:
        log.warning("could not decrypt %s: %s", path, detail)
        return FileRecoveryReport(path, FileStatus.IO_ERROR, detail=detail).to_dict()

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows, totals = _tree_rows(paths, row, failed, started, pool.map)
    parameters = {
        "paths": list(paths),
        "output_policy": policy,
        "jobs": jobs,
        "key_source": "key_file" if key_file else "dump",
    }
    summary = (f"decrypted {totals['decrypted']}/{totals['infected']} infected files, "
               f"{totals['failed']} failed ({totals['bytes']} ciphertext bytes, "
               f"{totals['wall_time']}s)")
    _finish(_report("decrypt", parameters, rows, key_recovery, totals), as_json, out, [summary],
            _exit_by_rows(totals))


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
@_JSON_OPTION
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
    parameters = {
        "sandbox": infection.sandbox_root,
        "priority_paths": list(priority_paths),
        "dump_out": dump_out,
        "dump_format": dump_format,
    }
    totals = {**infection.totals(), "wall_time": round(time.perf_counter() - started, 3)}
    summary = (f"encrypted {totals['encrypted']}/{totals['planned']} planned files "
               f"({totals['bytes_encrypted']} bytes, {totals['wall_time']}s); "
               f"{totals['skipped_infected']} already infected, {totals['errors']} errors")
    rows = [row.to_dict() for row in infection.rows]
    _finish(_report("emulate", parameters, rows, None, totals), as_json, out, [summary],
            ExitCode.PARTIAL_FAILURE if infection.errors else ExitCode.OK)


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
