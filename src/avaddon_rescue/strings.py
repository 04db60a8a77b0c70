"""Decode the obfuscated strings the binary carries, and batch-label them.

The obfuscation is Base64 over a byte-wise transform: each stored byte c
decodes to ((c - 2) mod 256) XOR 0x43. The subtraction wraps, matching the
8-bit register arithmetic of the original routine, so the transform is a
bijection on all 256 byte values and the encoder below is its exact
inverse.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import asdict, dataclass
from typing import Iterable

from .errors import StringCodecError

_XOR_CONST = 0x43
_SUB_CONST = 2


def decode_string(b64: str) -> bytes:
    """Decrypt one Base64 payload to its plaintext bytes.

    Total on valid Base64: no assumption is made that the result is text.

    Raises:
        StringCodecError: if `b64` is not valid Base64.
    """
    try:
        decoded = base64.b64decode(b64, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise StringCodecError(f"invalid Base64: {exc}") from exc
    return bytes(((c - _SUB_CONST) % 256) ^ _XOR_CONST for c in decoded)


def encode_string(plain: bytes) -> str:
    """Inverse of `decode_string`; used to build fixtures and test corpora."""
    obfuscated = bytes(((p ^ _XOR_CONST) + _SUB_CONST) % 256 for p in plain)
    return base64.b64encode(obfuscated).decode("ascii")


def render_plaintext(data: bytes) -> str:
    """Best-effort textual rendering: UTF-8 when it decodes cleanly,
    otherwise printable ASCII with \\xNN escapes. Encodings are never
    guessed beyond that."""
    try:
        text = data.decode("utf-8")
        if text.isprintable() or text == "":
            return text
    except UnicodeDecodeError:
        pass
    return "".join(
        chr(b) if 0x20 <= b < 0x7F else f"\\x{b:02x}" for b in data
    )


@dataclass
class LabelRow:
    identifier: str
    b64: str
    plaintext: str | None
    status: str  # "ok" or "invalid_base64"
    error: str | None = None


def label_batch(entries: Iterable[tuple[str, str]]) -> list[LabelRow]:
    """Decode a batch of (identifier, base64) pairs.

    Per-row failures are recorded in the row and never abort the batch;
    input order is preserved.
    """
    rows: list[LabelRow] = []
    for identifier, b64 in entries:
        try:
            plaintext = render_plaintext(decode_string(b64))
            rows.append(LabelRow(identifier, b64, plaintext, "ok"))
        except StringCodecError as exc:
            rows.append(LabelRow(identifier, b64, None, "invalid_base64", str(exc)))
    return rows


def parse_batch_input(data: bytes) -> list[tuple[str, str]]:
    """Parse the batch wire format: UTF-8, one `identifier<TAB>base64` per line.

    Blank lines are skipped. A line without a tab is taken as a bare
    payload and given a line-number identifier, so plain string lists work
    too.

    Raises:
        StringCodecError: if `data` is not UTF-8.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StringCodecError(f"batch input is not UTF-8: {exc}") from exc
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" in line:
            identifier, _, b64 = line.partition("\t")
            entries.append((identifier, b64.strip()))
        else:
            entries.append((f"line{lineno}", line.strip()))
    return entries


def rows_to_tsv(rows: list[LabelRow]) -> str:
    out = ["identifier\tb64\tstatus\tplaintext"]
    for row in rows:
        out.append(f"{row.identifier}\t{row.b64}\t{row.status}\t{row.plaintext or ''}")
    return "\n".join(out) + "\n"


def rows_to_json(rows: list[LabelRow]) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"
