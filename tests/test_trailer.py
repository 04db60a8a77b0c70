import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avaddon_rescue.errors import TrailerError
from avaddon_rescue.trailer import (
    APPENDIX_LEN,
    ENCRYPTED_PREFIX_LIMIT,
    MAGIC_A,
    MAGIC_B,
    MAX_ORIGINAL_LENGTH,
    TRAILER_LEN,
    Classification,
    VictimBlock,
    build_trailer,
    ceil16,
    classify,
    expected_body_length,
    parse_trailer,
    probe,
)

# 24 trailer bytes as printed in the hexdump of an observed sample
OBSERVED_TRAILER = bytes.fromhex("4E4D000000000000" "00020000" "01000000" "07030301" "0101E202")


def le_u64(raw: bytes) -> int:
    """Independent byte-order oracle: base-256 little-endian by hand."""
    value = 0
    for i, b in enumerate(raw):
        value += b * (256 ** i)
    return value


def test_observed_trailer_fields():
    t = parse_trailer(OBSERVED_TRAILER)
    assert t.magic_a == MAGIC_A == 0x200
    assert t.reserved_c == 1
    assert t.magic_b == MAGIC_B == 0x01030307
    assert t.tail_d == bytes.fromhex("0101E202")
    assert t.original_length == le_u64(OBSERVED_TRAILER[:8])


def test_zero_trailer_parses_but_is_not_valid():
    t = parse_trailer(bytes(24))
    assert t.original_length == 0
    assert t.magic_a == 0
    assert t.magic_b == 0
    assert classify(APPENDIX_LEN, bytes(24)) == Classification()


@pytest.mark.parametrize("n", [0, 1, 20045, 0x100000])
def test_round_trip_named_lengths(n):
    t = parse_trailer(build_trailer(n))
    assert t.original_length == n
    assert (t.magic_a, t.magic_b) == (MAGIC_A, MAGIC_B)
    assert t.reserved_c == 1
    assert t.tail_d == bytes(4)


@given(st.integers(min_value=0, max_value=MAX_ORIGINAL_LENGTH))
def test_round_trip_property(n):
    assert parse_trailer(build_trailer(n)).original_length == n


def test_build_trailer_byte_order_oracle():
    # canonical length encoding checked against int.to_bytes, which is
    # independent of the struct-based implementation
    raw = build_trailer(0x1234567890)
    assert raw[:8] == (0x1234567890).to_bytes(8, "little")
    assert le_u64(raw[:8]) == 0x1234567890
    assert raw[8:12] == (0x200).to_bytes(4, "little")
    assert raw[16:20] == (0x01030307).to_bytes(4, "little")
    assert len(raw) == TRAILER_LEN


def test_build_trailer_20045_encoding():
    raw = build_trailer(20045)
    assert raw[:8] == (20045).to_bytes(8, "little")
    assert parse_trailer(raw).original_length == 20045


def test_sanity_bound():
    build_trailer(MAX_ORIGINAL_LENGTH)  # inclusive bound is fine
    with pytest.raises(TrailerError):
        build_trailer(MAX_ORIGINAL_LENGTH + 1)
    with pytest.raises(TrailerError):
        build_trailer(-1)


def test_parse_wrong_length():
    with pytest.raises(TrailerError):
        parse_trailer(b"short")
    with pytest.raises(TrailerError):
        parse_trailer(bytes(25))


def test_victim_block_length():
    VictimBlock(bytes(512))
    with pytest.raises(TrailerError):
        VictimBlock(bytes(511))
    assert VictimBlock.zeros().data == bytes(512)


@pytest.mark.parametrize(
    "original,expected_body",
    [
        (0, 0),
        (1, 16),
        (15, 16),
        (16, 16),
        (17, 32),
        (20045, 20048),
        (ENCRYPTED_PREFIX_LIMIT - 1, ENCRYPTED_PREFIX_LIMIT),
        (ENCRYPTED_PREFIX_LIMIT, ENCRYPTED_PREFIX_LIMIT),
        (ENCRYPTED_PREFIX_LIMIT + 1, ENCRYPTED_PREFIX_LIMIT + 1),
        (5 << 20, 5 << 20),
    ],
)
def test_expected_body_length(original, expected_body):
    assert expected_body_length(original) == expected_body


def test_consistency_rule():
    tail = build_trailer(20045)
    assert classify(20048 + APPENDIX_LEN, tail) == Classification(trailer=parse_trailer(tail))
    assert classify(20045 + APPENDIX_LEN, tail).damage
    assert classify(20064 + APPENDIX_LEN, tail).damage
    # past the sanity bound a recorded length is damage, even where the body fits it
    insane = MAX_ORIGINAL_LENGTH + 16
    tail = struct.pack("<QIII4s", insane, MAGIC_A, 1, MAGIC_B, bytes(4))
    assert classify(insane + APPENDIX_LEN, tail).damage


def test_ceil16():
    assert ceil16(0) == 0
    assert ceil16(1) == 16
    assert ceil16(16) == 16
    assert ceil16(17) == 32


def test_small_files_never_infected(tmp_path):
    f = tmp_path / "small.bin"
    f.write_bytes(b"\xaa" * 100)
    assert probe(f) == Classification()
    f.write_bytes(b"\xaa" * (APPENDIX_LEN - 1))
    assert probe(f) == Classification()


def test_infected_requires_magics_and_consistency(tmp_path):
    body = bytes(range(256)) * 10  # 2560 bytes, block aligned
    f = tmp_path / "candidate.bin"

    f.write_bytes(body + bytes(512) + build_trailer(2560))
    assert probe(f).trailer == parse_trailer(build_trailer(2560))

    # right magics, wrong recorded length
    f.write_bytes(body + bytes(512) + build_trailer(2550 - 16))
    found = probe(f)
    assert found.trailer is None and "recorded length 2534" in found.damage

    # flipped last byte of magic_b breaks detection
    good = body + bytes(512) + build_trailer(2560)
    bad = good[:-5] + bytes([good[-5] ^ 0xFF]) + good[-4:]
    f.write_bytes(bad)
    found = probe(f)
    assert found.trailer is None and "one magic damaged" in found.damage

    # the 4 opaque tail bytes are deliberately not checked
    tail_flip = good[:-1] + bytes([good[-1] ^ 0xFF])
    f.write_bytes(tail_flip)
    assert probe(f).trailer is not None


def test_probe_raises_on_missing_file(tmp_path):
    with pytest.raises(OSError):
        probe(tmp_path / "nope.bin")


def test_pristine_corpus_never_detected(tmp_path):
    from conftest import make_tree, random_corpus

    files = make_tree(tmp_path, random_corpus(seed=424, n_files=60, max_size=2000))
    assert all(probe(p) == Classification() for p in files)
