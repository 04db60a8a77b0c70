import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avaddon_rescue.cipher import (
    BLOCK_LEN,
    SessionKey,
    decrypt_stream,
    encrypt_stream,
    zero_pad16,
)
from avaddon_rescue.errors import CipherError
from avaddon_rescue.trailer import ENCRYPTED_PREFIX_LIMIT, ceil16

from reference_aes import aes256_encrypt_block, cbc_encrypt

ZERO_IV = bytes(16)
#: Chunk size of the sample's encryption loop.
SAMPLE_CHUNK_LEN = 0x2000

# NIST SP 800-38A, AES-256 ECB: with a zero IV the first CBC block equals
# the raw block encryption, so these published pairs test the stream directly.
NIST_KEY = bytes.fromhex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
NIST_ECB_PAIRS = [
    ("6bc1bee22e409f96e93d7e117393172a", "f3eed1bdb5d2a03c064b5a7e3db181f8"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "591ccb10d410ed26dc5ba74a31362870"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "b6ed21b99ca6f4f9f153e7b1beafed1d"),
    ("f69f2445df4f9b17ad2b417be66c3710", "23304b7a39f9f3ff067d8d8f9e24ecc7"),
]


@pytest.mark.parametrize("plain_hex,cipher_hex", NIST_ECB_PAIRS)
def test_known_answer_single_block(plain_hex, cipher_hex):
    key = SessionKey(NIST_KEY)
    assert encrypt_stream(key, bytes.fromhex(plain_hex)) == bytes.fromhex(cipher_hex)
    assert decrypt_stream(key, bytes.fromhex(cipher_hex)) == bytes.fromhex(plain_hex)


def test_zero_iv_single_block_equals_raw_block_cipher(session_key):
    block = bytes(range(16))
    assert encrypt_stream(session_key, block) == aes256_encrypt_block(
        session_key.key_bytes, block
    )


def test_matches_reference_cbc_with_zero_iv(session_key):
    rng = random.Random(7)
    for length in (16, 48, 160):
        plain = rng.randbytes(length)
        expect = cbc_encrypt(session_key.key_bytes, ZERO_IV, plain)
        assert encrypt_stream(session_key, plain) == expect


def test_empty_input():
    key = SessionKey(NIST_KEY)
    assert encrypt_stream(key, b"") == b""
    assert decrypt_stream(key, b"") == b""


@pytest.mark.parametrize("length", [1, 15, 16, 17, 8191, 8192, 8193])
def test_round_trip_lengths(session_key, length):
    plain = random.Random(length).randbytes(length)
    ct = encrypt_stream(session_key, plain)
    assert len(ct) == ceil16(length)
    assert decrypt_stream(session_key, ct) == zero_pad16(plain)


def test_chunked_equals_whole(session_key):
    """Two chained 0x2000 chunks must equal the one-shot stream."""
    plain = random.Random(42).randbytes(2 * SAMPLE_CHUNK_LEN)
    whole = encrypt_stream(session_key, plain)

    # oracle: encrypt each chunk separately, carrying the CBC chain by hand
    first = cbc_encrypt(session_key.key_bytes, ZERO_IV, plain[:SAMPLE_CHUNK_LEN])
    second = cbc_encrypt(session_key.key_bytes, first[-16:], plain[SAMPLE_CHUNK_LEN:])
    assert whole == first + second


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=0, max_size=512), cut_blocks=st.integers(0, 32))
def test_chunk_transparency_any_split(data, cut_blocks):
    key = SessionKey(bytes(range(32)))
    cut = min(cut_blocks * BLOCK_LEN, len(data) // BLOCK_LEN * BLOCK_LEN)
    first = cbc_encrypt(key.key_bytes, ZERO_IV, data[:cut])
    chain = first[-16:] if first else ZERO_IV
    second = cbc_encrypt(key.key_bytes, chain, zero_pad16(data[cut:]))
    assert first + second == encrypt_stream(key, data)


def test_determinism(session_key):
    plain = b"same input, same output" * 3
    assert encrypt_stream(session_key, plain) == encrypt_stream(session_key, plain)


def test_key_length_contract():
    with pytest.raises(CipherError):
        SessionKey(b"short")
    with pytest.raises(CipherError):
        SessionKey(bytes(33))


def test_key_hex_round_trip(session_key):
    assert SessionKey.from_hex(session_key.hex()) == session_key
    assert "SessionKey" in repr(session_key)
    assert session_key.hex() not in repr(session_key)
    with pytest.raises(CipherError):
        SessionKey.from_hex("zz")
    # a key file's bytes: ASCII hex, maybe with a newline
    assert SessionKey.from_hex(session_key.hex().encode() + b"\n") == session_key
    with pytest.raises(CipherError):
        SessionKey.from_hex(b"\xff" * 64)


def test_decrypt_requires_block_alignment(session_key):
    with pytest.raises(CipherError):
        decrypt_stream(session_key, bytes(15))


def test_encrypt_prefix_limit(session_key):
    encrypt_stream(session_key, bytes(ENCRYPTED_PREFIX_LIMIT))
    with pytest.raises(CipherError):
        encrypt_stream(session_key, bytes(ENCRYPTED_PREFIX_LIMIT + 1))
