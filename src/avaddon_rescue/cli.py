"""Operator-facing command line: detect, recover-key, decrypt, emulate, strings.

Reports go to stdout (or --out) as versioned JSON; progress and logging go
to stderr, never interleaved with report data. Key material is written
only to permission-restricted key files and is withheld from the terminal
unless --show-key is passed.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import stat
import sys
import time
from enum import IntEnum
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable

import click

from . import __version__
from .cipher import SessionKey
from .errors import AvaddonRescueError, SandboxViolation
from .filecodec import (
    FileRecoveryReport,
    FileStatus,
    decrypt_file,
    replace_atomically,
    tree_rows,
)
from .memscan import (
    DUMP_FORMATS,
    HEADER_MAGICS,
    Evidence,
    RecoveryOutcome,
    RecoveryResult,
    load_dump,
    recover_key,
    sidecar_path,
    verify_key,
)
from .strings import label_batch, parse_batch_input, rows_to_json, rows_to_tsv
from .trailer import open_classified, open_regular, probe

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


#: How `_Report` opens --out: never through a link at its name, never
#: blocked by a FIFO with no reader (ENXIO instead), and a new report is
#: private, as `recover-key --show-key` puts the key in it
_REPORT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC


class _Report:
    """One command's report, written while the command runs.

    With --json or --out it is the versioned JSON envelope, each line by
    the C encoder: a head, one row per line as it arrives (as `as_dict`
    gives it), and a tail of `key_recovery` and the totals. A run killed
    midway leaves a truncated report that holds every row written.
    Without either flag, `line(row)` gives the line a row prints, if any,
    and the summary follows. `counts` are the tree commands' totals so far;
    `totals` adds `sessions`, the number of session tags among the
    infected rows.

    The --out file is opened when the report is, before any tree is
    walked, never through a link at its name nor blocked by a FIFO with
    no reader, and made with mode 0600: a report that cannot be written
    stops the command before it touches a file, and the walk leaves out
    every name of the file the report goes to, by its `skip`.
    """

    def __init__(self, command: str, parameters: dict[str, Any], as_json: bool,
                 out: str | None, line: Callable[[FileRecoveryReport], str | None] | None = None,
                 as_dict: Callable[..., dict[str, Any]] = FileRecoveryReport.to_dict
                 ) -> None:
        self.counts = {"files_scanned": 0, "infected": 0, "decrypted": 0, "failed": 0, "bytes": 0}
        self._sessions: set[str] = set()
        self._line = line
        self._as_dict = as_dict
        self._json = as_json or bool(out)
        self._file = None
        if out:
            fd = os.open(out, _REPORT_FLAGS, 0o600)
            os.set_blocking(fd, True)  # so a pipe with a reader is written as a file is
            self._file = open(fd, "w")
        if self._json:
            head = {"schema_version": REPORT_SCHEMA_VERSION, "command": command,
                    "parameters": parameters}
            try:
                self._write(json.dumps(head)[:-1] + ', "rows": [')
            except BaseException:
                self.__exit__()
                raise

    def __enter__(self) -> "_Report":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._file is not None:
            self._file.close()

    def _write(self, text: str) -> None:
        # click.echo flushes, so a killed run leaves every row written so far
        click.echo(text, file=self._file, nl=False)

    @property
    def skip(self) -> frozenset[tuple[int, int]]:
        """The (st_dev, st_ino) of the file the report goes to, --out or
        stdout, if it is a regular file; none for a tty, a pipe or a stream
        with no descriptor."""
        try:
            st = os.fstat((self._file or sys.stdout).fileno())
        except OSError:  # io.UnsupportedOperation: a stream with no descriptor
            return frozenset()
        return frozenset([(st.st_dev, st.st_ino)] if stat.S_ISREG(st.st_mode) else [])

    def add(self, rows: list[FileRecoveryReport]) -> None:
        """Write `rows` and count them into the totals."""
        counts = self.counts
        written = counts["files_scanned"]
        for row in rows:
            counts["files_scanned"] += 1
            # detect and decrypt rows carry original_length only for infected files
            counts["infected"] += row.original_length is not None
            if row.session is not None:  # set on infected rows only
                self._sessions.add(row.session)
            counts["decrypted"] += row.status is FileStatus.DECRYPTED
            counts["failed"] += row.status.failed
            counts["bytes"] += row.bytes_processed
        if self._json:
            if rows:
                lead = ",\n" if written else "\n"
                self._write(lead + ",\n".join(json.dumps(self._as_dict(row)) for row in rows))
        elif self._line is not None:
            for row in rows:
                if (text := self._line(row)) is not None:
                    click.echo(text)

    def totals(self, started: float) -> dict[str, Any]:
        """The counts so far, and the wall time since `started`."""
        return {**self.counts, "sessions": len(self._sessions),
                "wall_time": round(time.perf_counter() - started, 3)}

    def finish(self, key_recovery: dict[str, Any] | None, totals: dict[str, Any],
               summary: Iterable[str]) -> None:
        """Close the envelope with `key_recovery` and `totals`, or print `summary`."""
        if self._json:
            tail = json.dumps({"key_recovery": key_recovery, "totals": totals})
            self._write("\n], " + tail[1:] + "\n")
        else:
            for line in summary:
                click.echo(line)


#: The exit code of each outcome of a key recovery
_EXIT_BY_OUTCOME = {
    RecoveryOutcome.FOUND: ExitCode.OK,
    RecoveryOutcome.NOT_FOUND: ExitCode.KEY_NOT_FOUND,
    RecoveryOutcome.AMBIGUOUS: ExitCode.AMBIGUOUS_KEY,
}


def _status_note(message: str) -> None:
    click.echo(message, err=True)


def _exit_by_rows(totals: dict[str, Any]) -> ExitCode:
    """6 when any row failed, else 3 when no row is infected, else 0."""
    if totals["failed"]:
        return ExitCode.PARTIAL_FAILURE
    if totals["infected"] == 0:
        return ExitCode.NOTHING_INFECTED
    return ExitCode.OK


def _not_evidence(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """The callback of every output path: a usage error if `path` names an
    infected file or one with a damaged trailer, which the output would
    destroy. A path that cannot be classified (none there, a link, a
    directory, an unreadable file) is left to the writer."""
    if path is None:
        return None
    try:
        fd, _st, found = open_classified(path)
    except OSError:
        return path
    if fd is not None:
        os.close(fd)
    if found.trailer or found.damage:
        kind = "an infected file" if found.trailer else "a file with a damaged trailer"
        raise click.BadParameter(f"{path} is {kind}; writing there would destroy it",
                                 ctx, param)
    return path


_OUT_OPTION = click.option("--out", type=click.Path(dir_okay=False), callback=_not_evidence,
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
    started = time.perf_counter()
    with _Report("detect", {"paths": list(paths)}, as_json, out, _flagged, _detect_dict) as report:
        for rows in tree_rows(paths, _detect_row, skip=report.skip):
            report.add(rows)
        totals = report.totals(started)
        report.finish(None, totals, [f"scanned {totals['files_scanned']} files: "
                                     f"{totals['infected']} infected, {totals['failed']} failed"])
    raise SystemExit(_exit_by_rows(totals))


def _flagged(row: FileRecoveryReport) -> str | None:
    return None if row.status is FileStatus.CLEAN else f"{row.status.value:>10}  {row.path}"


def _detect_row(name: str, dir_fd: int) -> FileRecoveryReport:
    found = probe(name, dir_fd=dir_fd)
    if found.trailer is not None:
        return FileRecoveryReport(name, FileStatus.INFECTED, found.trailer.original_length,
                                  session=found.session)
    if found.damage:
        return FileRecoveryReport(name, FileStatus.CORRUPT_TRAILER, detail=found.damage)
    return FileRecoveryReport(name, FileStatus.CLEAN)


def _detect_dict(row: FileRecoveryReport) -> dict[str, Any]:
    """A detect row: the fields of `row` that detect sets."""
    return {field: value for field, value in row.to_dict().items()
            if value is not None and field not in ("bytes_processed", "duration_s")}


def _evidence_from_flags(evidence_encrypted: str, evidence_original: str | None) -> Evidence:
    """Known plaintext when the original is given, else the header magics."""
    if evidence_original:
        return Evidence.from_original(evidence_encrypted, evidence_original)
    evidence = Evidence.from_header_magics(evidence_encrypted)
    # named, so that exit 4 or 7 on a type outside the library is not read as a wrong key
    _status_note(f"no --evidence-original: a key is proven only if {evidence_encrypted} "
                 f"starts as one of {', '.join(name for name, _ in HEADER_MAGICS)}")
    return evidence


_KEY_SOURCE_OPTIONS = (
    click.option("--evidence-encrypted", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="One encrypted file to verify candidate keys against."),
    click.option("--evidence-original", type=click.Path(exists=True, dir_okay=False),
                 help="The original (pre-infection) copy of that file; without it, "
                      "the encrypted file must be of a type whose header is known."),
)


def _key_source_options(command):
    """The dump and evidence options `recover-key` and `decrypt` share."""
    for option in reversed(_KEY_SOURCE_OPTIONS):
        command = option(command)
    return command


def _recover_from_dump(dump: str, evidence: Evidence) -> RecoveryResult:
    with load_dump(dump) as image:
        bits = "/".join(str(8 * pw) for pw in image.pointer_widths)
        _status_note(f"scanning {dump} ({image.format}, {len(image.ranges)} ranges, {bits}-bit)")
        return recover_key(image, evidence)


def _recovery_summary(result: RecoveryResult) -> list[str]:
    return [f"outcome: {result.outcome}", f"candidates: {len(result.candidates)}"]


@cli.command("recover-key")
@click.option("--dump", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Process memory dump.")
@_key_source_options
@click.option("--key-out", type=click.Path(dir_okay=False), default="avaddon_session_key.hex",
              show_default=True, callback=_not_evidence,
              help="Where to store the recovered key (mode 0600).")
@click.option("--show-key", is_flag=True, help="Also print the key hex to the report.")
@_JSON_OPTION
@_OUT_OPTION
def cmd_recover_key(
    dump: str,
    evidence_encrypted: str,
    evidence_original: str | None,
    key_out: str,
    show_key: bool,
    as_json: bool,
    out: str | None,
) -> None:
    """Scan a memory dump for the AES-256 session key and verify it."""
    started = time.perf_counter()
    evidence = _evidence_from_flags(evidence_encrypted, evidence_original)
    result = _recover_from_dump(dump, evidence)

    parameters = {
        "dump": dump,
        "evidence_encrypted": evidence_encrypted,
        "evidence_original": evidence_original,
    }
    # opened before the key file is written, so that a report that cannot be leaves none
    with _Report("recover-key", parameters, as_json, out) as report:
        summary = _recovery_summary(result)
        if result.outcome is RecoveryOutcome.FOUND:
            assert result.key is not None
            replace_atomically(key_out, [f"{result.key.hex()}\n".encode()])
            _status_note(f"key recovered and written to {key_out}")
            summary.append(f"key file: {key_out}")
            if show_key:
                summary.append(f"key: {result.key.hex()}")
        report.finish(result.to_dict(include_key=show_key),
                      {"wall_time": round(time.perf_counter() - started, 3)}, summary)
    raise SystemExit(_EXIT_BY_OUTCOME[result.outcome])


@cli.command("decrypt")
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--key-file", type=click.Path(exists=True, dir_okay=False),
              help="File holding the session key hex.")
@click.option("--dump", type=click.Path(exists=True, dir_okay=False),
              help="Recover the key from this dump first.")
@_key_source_options
@click.option("--into", type=click.Path(file_okay=False),
              help="Restore into this new directory, leaving PATHS untouched.")
@click.option("--jobs", type=click.IntRange(min=1), default=os.cpu_count() or 1,
              show_default="CPU count", help="Worker threads; each restores one directory.")
@_JSON_OPTION
@_OUT_OPTION
def cmd_decrypt(
    paths: tuple[str, ...],
    key_file: str | None,
    dump: str | None,
    evidence_encrypted: str,
    evidence_original: str | None,
    into: str | None,
    jobs: int,
    as_json: bool,
    out: str | None,
) -> None:
    """Detect infected files under PATHS and decrypt them all."""
    started = time.perf_counter()
    if bool(key_file) == bool(dump):
        raise click.UsageError("pass exactly one of --key-file or --dump")
    if into and any(Path(into).resolve().is_relative_to(Path(p).resolve()) for p in paths):
        raise click.UsageError(f"--into {into} lies inside a PATH")

    parameters = {
        "paths": list(paths),
        "into": into,
        "jobs": jobs,
        "key_source": "key_file" if key_file else "dump",
    }
    evidence = _evidence_from_flags(evidence_encrypted, evidence_original)
    key: SessionKey | None
    if key_file:
        fd, _st = open_regular(key_file)  # never blocks on a FIFO
        with open(fd, "rb") as fh:
            key = SessionKey.from_hex(fh.read())
        if not verify_key(key, evidence):
            _status_note("key failed verification against the evidence; refusing to touch files")
            key = None
        key_recovery, refusal, summary = None, ExitCode.GATE_REFUSAL, []
    else:
        result = _recover_from_dump(dump, evidence)
        key, key_recovery = result.key, result.to_dict(include_key=False)
        refusal, summary = _EXIT_BY_OUTCOME[result.outcome], _recovery_summary(result)
    if key is None:  # reported, and no file opened
        with _Report("decrypt", parameters, as_json, out) as report:
            report.finish(key_recovery, report.totals(started), summary)
        raise SystemExit(refusal)

    def row(name: str, dir_fd: int, out_dir_fd: int | None = None) -> FileRecoveryReport:
        # only the files of the evidence file's session
        return decrypt_file(name, key, dir_fd=dir_fd, out_dir_fd=out_dir_fd,
                            victim_block=evidence.victim_block)

    if into:  # before the report opens, so that an existing one writes nothing
        os.mkdir(into, 0o700)
    try:
        report = _Report("decrypt", parameters, as_json, out)
    except BaseException:
        if into:  # still empty, so that a re-run with a writable report may make it
            os.rmdir(into)
        raise
    with report:
        for rows in tree_rows(paths, row, skip=report.skip, into=into, jobs=jobs):
            report.add(rows)
        totals = report.totals(started)
        report.finish(key_recovery, totals, [
            f"decrypted {totals['decrypted']}/{totals['infected']} infected files, "
            f"{totals['failed']} failed ({totals['bytes']} ciphertext bytes, "
            f"{totals['wall_time']}s)"])
    raise SystemExit(_exit_by_rows(totals))


@cli.command("emulate")
@click.option("--sandbox", required=True, type=click.Path(exists=True, file_okay=False),
              help="Directory tree to encrypt; must live inside an allow-listed location.")
@click.option("--seed", type=int, default=None, help="Deterministic session key seed.")
@click.option("--i-understand-this-writes-files", "confirmed", is_flag=True,
              help="Mandatory confirmation; without it nothing is touched.")
@click.option("--allow-root", "allow_roots", multiple=True, type=click.Path(),
              help="Allow-listed location, in place of the system temp directory (repeatable).")
@click.option("--priority", "priority_paths", multiple=True, type=click.Path(),
              help="Folders to encrypt first, skipping the path whitelist (repeatable).")
@click.option("--key-out", type=click.Path(dir_okay=False), callback=_not_evidence,
              help="Store the session key hex (mode 0600).")
@click.option("--operator-key-out", type=click.Path(dir_okay=False), callback=_not_evidence,
              help="Store the generated operator RSA private key PEM (mode 0600).")
@click.option("--dump-out", type=click.Path(dir_okay=False), callback=_not_evidence,
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
    # only this command needs the emulator and its RSA stack
    from .emulator import (
        CONFIRM_TOKEN,
        OperatorKeyPair,
        SkipPolicy,
        emulate_infection,
        ensure_sandbox,
        generate_session_key,
        manifest_path,
        random_dump_layout,
        wrap_session_key,
        write_synthetic_dump,
    )

    started = time.perf_counter()
    key = generate_session_key(seed)
    pair = OperatorKeyPair.generate()
    block = wrap_session_key(key, pair.public)
    token = CONFIRM_TOKEN if confirmed else None
    allowed = list(allow_roots) or None
    try:
        root = ensure_sandbox(sandbox, confirm_token=token, allow_roots=allowed)
    except SandboxViolation as exc:
        _status_note(f"gate refusal: {exc}")
        raise SystemExit(ExitCode.GATE_REFUSAL)

    # no seed in the parameters: it derives the session key
    parameters = {
        "sandbox": str(root),
        "priority_paths": list(priority_paths),
        "dump_out": dump_out,
        "dump_format": dump_format,
    }
    outputs = [key_out, operator_key_out]
    if dump_out:
        outputs += [dump_out, sidecar_path(dump_out), manifest_path(dump_out)]
    with _Report("emulate", parameters, as_json, out) as report:
        # every output is written before any file is encrypted, so that one
        # that cannot be written leaves the sandbox as it was; the plan
        # leaves them all out, and the report too
        if key_out:
            replace_atomically(key_out, [f"{key.hex()}\n".encode()])
            _status_note(f"session key written to {key_out}")
        if operator_key_out:
            replace_atomically(operator_key_out, [pair.private_pem()])
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
        infection = emulate_infection(
            root,
            key,
            SkipPolicy.default(),
            block,
            confirm_token=token,
            allow_roots=allowed,
            priority_paths=priority_paths,
            skip=report.skip | _identities(outputs),
        )
        totals = {**infection.totals(), "wall_time": round(time.perf_counter() - started, 3)}
        summary = (f"encrypted {totals['encrypted']}/{totals['planned']} planned files "
                   f"({totals['bytes_encrypted']} bytes, {totals['wall_time']}s); "
                   f"{totals['skipped_infected']} already infected, {totals['errors']} errors")
        report.add(infection.rows)
        report.finish(None, totals, [summary])
    raise SystemExit(ExitCode.PARTIAL_FAILURE if infection.errors else ExitCode.OK)


def _identities(paths: Iterable[str | os.PathLike | None]) -> frozenset[tuple[int, int]]:
    """The (st_dev, st_ino) of each of `paths` that names a file now."""
    found = set()
    for path in filter(None, paths):
        with contextlib.suppress(FileNotFoundError):
            st = os.stat(path, follow_symlinks=False)
            found.add((st.st_dev, st.st_ino))
    return frozenset(found)


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
    if out:
        replace_atomically(out, [rendered.encode()])
    else:
        click.echo(rendered, nl=False)
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
