"""Correctness gate: checks every output of a pass and counts each failure.

An operation is one thing the operator relies on:

- each file's classification in the `detect` report,
- each file's content after `decrypt` (byte-identical to the original;
  clean files untouched; no stray files),
- the key recovery (outcome `found`, key file equal to the planted key),
- each command (exit code 0, report totals that agree with the tree).

A report row with `io_error` or `corrupt_trailer` fails its operation.
Failures are counted, never dropped; `self_check` proves that the gate
catches a wrong key and a single flipped byte.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

FAILED_ROW_STATUSES = ("io_error", "corrupt_trailer")


@dataclass
class Tally:
    """Attempted and failed operations, with a count per failure reason."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1
        return ok


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _load_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def check_detect(tally: Tally, code: int, report_path: Path, tree: Path, truth: dict) -> None:
    files = truth["files"]
    report = _load_report(report_path)
    rows = {os.path.relpath(r["path"], tree): r for r in report.get("rows", [])}
    for rel, meta in files.items():
        status = rows.get(rel, {}).get("status")
        want = "infected" if meta["infected"] else "clean"
        tally.check(status == want, f"detect row {status or 'missing'}, want {want}")
    totals = report.get("totals", {})
    n_infected = sum(1 for m in files.values() if m["infected"])
    tally.check(
        code == 0
        and len(rows) == len(files)
        and totals.get("files_scanned") == len(files)
        and totals.get("infected") == n_infected
        and totals.get("failed") == 0,
        "detect exit code or totals",
    )


def check_key(tally: Tally, code: int, report_path: Path, key_hex: str | None, truth: dict) -> None:
    outcome = _load_report(report_path).get("key_recovery", {}).get("outcome")
    tally.check(
        code == 0 and outcome == "found" and key_hex == truth["key_hex"],
        f"key recovery {outcome}",
    )


def read_key_file(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def check_decrypt(tally: Tally, code: int, report_path: Path, truth: dict) -> None:
    report = _load_report(report_path)
    for row in report.get("rows", []):
        status = row.get("status")
        tally.check(status not in FAILED_ROW_STATUSES, f"decrypt row {status}")
    totals = report.get("totals", {})
    n_infected = sum(1 for m in truth["files"].values() if m["infected"])
    tally.check(
        code == 0
        and totals.get("infected") == n_infected
        and totals.get("decrypted") == n_infected
        and totals.get("failed") == 0,
        "decrypt exit code, failed rows or totals",
    )


def check_file(tally: Tally, path: Path, meta: dict) -> bool:
    """Content check of one file; True when a restored file lost its mode."""
    same = sha256_file(path) == meta["sha256"]
    tally.check(same, "restored bytes differ" if meta["infected"] else "clean file changed")
    return meta["infected"] and os.stat(path).st_mode & 0o7777 != meta["infected_mode"]


def check_tree(tally: Tally, tree: Path, truth: dict) -> int:
    """Compare every file with its original; returns the restored files
    whose permission bits differ from those of the infected file."""
    files = truth["files"]
    present = set()
    for dirpath, _dirnames, filenames in os.walk(tree):
        for name in filenames:
            present.add(os.path.relpath(os.path.join(dirpath, name), tree))
    for _stray in present - files.keys():
        tally.check(False, "stray file in the restored tree")
    mode_lost = 0
    for rel, meta in files.items():
        if tally.check(rel in present, "file missing after decrypt"):
            mode_lost += check_file(tally, tree / rel, meta)
    return mode_lost


def self_check(tree: Path, truth: dict, recover_report: Path) -> list[str]:
    """Feed the gate a wrong key and one flipped byte; both must fail.

    Runs on a tree the last pass restored, with that pass's recovery
    report, where the right key and the unflipped file pass. Returns what
    the gate missed.
    """
    missed = []
    key_hex = truth["key_hex"]
    wrong = f"{int(key_hex[0], 16) ^ 1:x}" + key_hex[1:]
    right_probe, wrong_probe = Tally(), Tally()
    check_key(right_probe, 0, recover_report, key_hex, truth)
    check_key(wrong_probe, 0, recover_report, wrong, truth)
    if right_probe.failed or not wrong_probe.failed:
        missed.append("wrong key")

    rel, meta = next((r, m) for r, m in sorted(truth["files"].items()) if m["infected"])
    path = tree / rel
    if os.stat(path).st_nlink != 1:
        # still a link to the pristine copy: never write through it
        return missed + ["flipped byte (file was not restored)"]
    clean_probe, flipped_probe = Tally(), Tally()
    check_file(clean_probe, path, meta)
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0xFF]))
    check_file(flipped_probe, path, meta)
    with open(path, "r+b") as fh:
        fh.write(first)
    if clean_probe.failed or not flipped_probe.failed:
        missed.append("flipped byte")
    return missed
