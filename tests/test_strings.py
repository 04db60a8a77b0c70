import base64

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avaddon_rescue.errors import StringCodecError
from avaddon_rescue.strings import (
    LabelRow,
    decode_string,
    encode_string,
    label_batch,
    parse_batch_input,
    render_plaintext,
    rows_to_json,
    rows_to_tsv,
)


def oracle_decode(b64: str) -> bytes:
    """Independent byte-wise oracle: invert the encoder by exhaustive search."""
    table = {((p ^ 0x43) + 2) % 256: p for p in range(256)}
    return bytes(table[c] for c in base64.b64decode(b64))


def test_known_path_string():
    assert oracle_decode("AnshGSgwNQ==") == b"C:\\Temp"
    assert decode_string("AnshGSgwNQ==") == b"C:\\Temp"
    assert encode_string(b"C:\\Temp") == "AnshGSgwNQ=="


def test_single_byte_vector():
    # 'A' (0x41) maps to 0x04, whose Base64 is hand-checkable
    assert encode_string(b"A") == base64.b64encode(b"\x04").decode() == "BA=="
    assert decode_string("BA==") == b"A"


def test_empty():
    assert decode_string("") == b""
    assert encode_string(b"") == ""


def test_exhaustive_inverse_all_byte_values():
    for b in range(256):
        single = bytes([b])
        assert decode_string(encode_string(single)) == single
        assert oracle_decode(encode_string(single)) == single


def test_wraparound_bytes_explicitly():
    # encoded bytes 0 and 1 exercise the modular subtraction
    low = base64.b64encode(bytes([0, 1, 2, 3])).decode()
    assert decode_string(low) == oracle_decode(low)


@given(st.binary(min_size=0, max_size=200))
def test_round_trip_property(data):
    assert decode_string(encode_string(data)) == data


def test_decode_matches_oracle_on_arbitrary_base64():
    payload = base64.b64encode(bytes(range(256))).decode()
    assert decode_string(payload) == oracle_decode(payload)


def test_invalid_base64_raises():
    with pytest.raises(StringCodecError):
        decode_string("not base64!!!")
    with pytest.raises(StringCodecError):
        decode_string("AnshGSgwNQ=")  # bad padding


def test_render_plaintext():
    assert render_plaintext(b"C:\\Temp") == "C:\\Temp"
    assert render_plaintext(b"\x00\x01A") == "\\x00\\x01A"
    assert render_plaintext(b"") == ""


def test_label_batch_empty():
    assert label_batch([]) == []


def test_label_batch_marks_only_the_bad_row():
    rows = label_batch(
        [
            ("s1", encode_string(b"first")),
            ("s2", "@@broken@@"),
            ("s3", encode_string(b"third")),
        ]
    )
    assert [r.identifier for r in rows] == ["s1", "s2", "s3"]
    assert [r.status for r in rows] == ["ok", "invalid_base64", "ok"]
    assert rows[0].plaintext == "first"
    assert rows[1].plaintext is None
    assert rows[1].error
    assert rows[2].plaintext == "third"


def test_label_batch_preserves_order():
    entries = [(f"id{i}", encode_string(f"value{i}".encode())) for i in range(20)]
    rows = label_batch(entries)
    assert [r.identifier for r in rows] == [f"id{i}" for i in range(20)]
    assert [r.plaintext for r in rows] == [f"value{i}" for i in range(20)]


def test_parse_batch_input():
    data = b"name1\tAAAA\n\nbare_payload\nname2\tBBBB\n"
    entries = parse_batch_input(data)
    assert entries == [("name1", "AAAA"), ("line3", "bare_payload"), ("name2", "BBBB")]
    with pytest.raises(StringCodecError, match="not UTF-8"):
        parse_batch_input(b"name1\t\xff\xfe\n")


def test_row_serialization():
    rows = [LabelRow("a", "QQ==", "x", "ok")]
    assert "identifier\tb64\tstatus\tplaintext" in rows_to_tsv(rows)
    assert '"identifier": "a"' in rows_to_json(rows)
