"""Byte-exact emulation of the ransomware's AES-256 usage.

The malware encrypts each file with AES-256 in CBC mode, zero IV, feeding
0x2000-byte chunks through a never-finalized encryption call. Because the
chain is never finalized there is no standard padding: a trailing partial
block is zero-padded and the true length is recorded in the trailer
instead. Chunk boundaries are invisible in the ciphertext; one continuous
CBC stream per file, so this module runs a whole prefix through one call.

The CBC/zero-IV choice matches the platform default for an AES key created
with no explicit mode or IV parameters, which is how the sample behaves.
It is the compatibility target of this whole toolkit; if a field sample
ever disagrees, only this module's defaults need to change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import CipherError
from .trailer import ENCRYPTED_PREFIX_LIMIT, ceil16

KEY_LEN = 32
BLOCK_LEN = 16

_ZERO_IV = bytes(BLOCK_LEN)
PAD_BYTE = b"\x00"  # fills the partial last block of a prefix


@dataclass(frozen=True)
class SessionKey:
    """A 32-byte AES-256 session key."""

    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_LEN:
            raise CipherError(f"session key must be {KEY_LEN} bytes, got {len(self.key_bytes)}")

    def hex(self) -> str:
        return self.key_bytes.hex()

    @classmethod
    def from_hex(cls, text: str | bytes) -> "SessionKey":
        """Parse key hex, given as text or as the ASCII bytes of a key file."""
        try:
            raw = bytes.fromhex(text.decode("ascii") if isinstance(text, bytes) else text)
        except ValueError as exc:  # UnicodeDecodeError included
            raise CipherError(f"invalid key hex: {exc}") from exc
        return cls(raw)

    def __repr__(self) -> str:  # keep key material out of logs and tracebacks
        return "SessionKey(<32 bytes>)"

    @cached_property
    def _zero_iv_cbc(self) -> Cipher:
        """This key's zero-IV CBC cipher, built once; every stream takes a
        fresh encryptor or decryptor from it, so none shares chaining state."""
        return Cipher(algorithms.AES(self.key_bytes), modes.CBC(_ZERO_IV))


def zero_pad16(data: bytes) -> bytes:
    """Zero-pad to the next block boundary (identity for aligned input)."""
    if len(data) % BLOCK_LEN == 0:
        return data
    return data + PAD_BYTE * (ceil16(len(data)) - len(data))


def encrypt_stream(key: SessionKey, plaintext: bytes) -> bytes:
    """Encrypt a whole buffer as one zero-IV CBC stream.

    The input is zero-padded to a block boundary, so the output length is
    ceil16(len(plaintext)). Callers never pass more than the encrypted
    prefix of a file.
    """
    if len(plaintext) > ENCRYPTED_PREFIX_LIMIT:
        raise CipherError(
            f"plaintext length {len(plaintext)} exceeds the encrypted prefix "
            f"limit {ENCRYPTED_PREFIX_LIMIT:#x}"
        )
    return key._zero_iv_cbc.encryptor().update(zero_pad16(plaintext))


def decrypt_stream(key: SessionKey, ciphertext: bytes) -> bytes:
    """Invert `encrypt_stream`; returns the zero-padded plaintext.

    No padding is removed here: truncation to the recorded original length
    is the file codec's job.
    """
    if len(ciphertext) % BLOCK_LEN != 0:
        raise CipherError(f"ciphertext length {len(ciphertext)} is not a multiple of {BLOCK_LEN}")
    return key._zero_iv_cbc.decryptor().update(ciphertext)
