"""Defensive forensics toolkit for Avaddon-format file encryption.

Detects infected files by their appended trailer, recovers the AES-256
session key from a memory dump of the paused ransomware process, and
restores encrypted file trees byte for byte. Ships with a sandboxed
format emulator and a synthetic-dump generator so the whole pipeline is
testable without any malware involved.
"""

__version__ = "0.1.0"

from .cipher import SessionKey, decrypt_stream, encrypt_stream
from .emulator import (
    SkipPolicy,
    emulate_infection,
    generate_session_key,
    unwrap_session_key,
    wrap_session_key,
    write_synthetic_dump,
)
from .errors import AvaddonRescueError
from .filecodec import FileRecoveryReport, decrypt_file, encrypt_file, walk_files
from .memscan import Evidence, load_dump, recover_key, scan_key_candidates
from .strings import decode_string, encode_string, label_batch
from .trailer import (
    Trailer,
    VictimBlock,
    build_trailer,
    classify,
    parse_trailer,
    probe,
)

__all__ = [
    "__version__",
    "AvaddonRescueError",
    "Evidence",
    "FileRecoveryReport",
    "SessionKey",
    "SkipPolicy",
    "Trailer",
    "VictimBlock",
    "build_trailer",
    "classify",
    "decode_string",
    "decrypt_file",
    "decrypt_stream",
    "emulate_infection",
    "encode_string",
    "encrypt_file",
    "encrypt_stream",
    "generate_session_key",
    "label_batch",
    "load_dump",
    "parse_trailer",
    "probe",
    "recover_key",
    "scan_key_candidates",
    "unwrap_session_key",
    "walk_files",
    "wrap_session_key",
    "write_synthetic_dump",
]
