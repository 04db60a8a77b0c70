"""Parsers of untrusted input fail only with `AvaddonRescueError` subclasses.

Dumps, sidecar maps and trailers come from the infected machine. Whatever
their bytes, a parser either returns something consistent with its input or
raises one of the package's own errors; nothing else may escape. A file's
bytes get one infection verdict, whichever path reads them.
"""

import json
import os
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avaddon_rescue.cipher import decrypt_stream
from avaddon_rescue.errors import AvaddonRescueError
from avaddon_rescue.filecodec import FileStatus, decrypt_file
from avaddon_rescue.memscan import KEY_DATA_PATTERN, confirm_chain, load_dump, scan_key_candidates
from avaddon_rescue.minidump import read_minidump, write_minidump
from avaddon_rescue.trailer import (
    APPENDIX_LEN,
    MAGIC_A,
    MAGIC_B,
    TRAILER_LEN,
    VICTIM_BLOCK_LEN,
    ceil16,
    classify,
    classify_fd,
    parse_trailer,
    probe,
)

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

#: The raw dump under every fuzzed sidecar: a key-data triple at offset
#: 0x100, its key pointer 0x200 when read at 4 bytes and 0x1_0000_0200 at 8
DUMP_BYTES = (bytes(range(256)) + KEY_DATA_PATTERN + (0x1_0000_0200).to_bytes(8, "little")
              + bytes(range(20, 256)) + bytes(range(256)) * 14)
assert len(DUMP_BYTES) == 4096


@st.composite
def mutated_minidumps(draw) -> bytes:
    """A well-formed minidump with a few bytes overwritten and maybe cut short."""
    ranges = draw(
        st.lists(st.tuples(st.integers(0, (1 << 64) - 1), st.binary(max_size=48)), max_size=3)
    )
    blob = bytearray(b"".join(
        write_minidump(
            ranges,
            draw(st.sampled_from([4, 8])),
            list_kind=draw(st.sampled_from(["memory64", "memory32"])),
        )
    ))
    for _ in range(draw(st.integers(0, 6))):
        pos = draw(st.integers(0, len(blob) - 1))
        blob[pos] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob))) :]
    return bytes(blob)


@FUZZ
@given(
    data=st.one_of(
        st.binary(max_size=256),
        st.binary(max_size=256).map(lambda rest: b"MDMP" + rest),
        mutated_minidumps(),
    )
)
def test_fuzz_read_minidump(tmp_path, data):
    try:
        ranges, width = read_minidump(data)
    except AvaddonRescueError:
        return
    assert width in (None, 4, 8)
    assert all(r.offset >= 0 and r.offset + r.length <= len(data) for r in ranges)
    # what parsed must also load, scan and chain-walk without a foreign error
    dump_path = tmp_path / "fuzz.dmp"
    dump_path.write_bytes(data)
    try:
        dump = load_dump(dump_path)
    except AvaddonRescueError:
        return
    with dump:
        for cand in scan_key_candidates(dump):
            confirm_chain(dump, cand)


sidecar_value = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.integers(0, 0x2000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.none(),
    st.booleans(),
)
sidecar_entries = st.lists(
    st.one_of(
        st.fixed_dictionaries({"va": sidecar_value, "length": sidecar_value, "offset": sidecar_value}),
        st.dictionaries(st.sampled_from(["va", "length", "offset", "x"]), sidecar_value),
        sidecar_value,
    ),
    max_size=4,
).map(lambda entries: json.dumps(entries).encode())


@FUZZ
@given(
    sidecar=st.one_of(
        st.binary(max_size=128),
        st.text(max_size=128).map(str.encode),
        sidecar_entries,
    )
)
@example(sidecar=b'[{"va": Infinity, "length": 16, "offset": 0}]')
@example(sidecar=b'\xff\xfe[{"va": 0, "length": 16, "offset": 0}]')
@example(sidecar=b'[{"va": 4096, "length": 16, "offset": -512}]')
@example(sidecar=b'[{"va": -4096, "length": 16, "offset": 0}]')
@example(sidecar=b'[{"va": 4096, "length": -16, "offset": 0}]')
@example(sidecar=b"[" * 100_000)
def test_fuzz_sidecar_map(tmp_path, sidecar):
    dump_path = tmp_path / "fuzz.dmp"
    dump_path.write_bytes(DUMP_BYTES)
    dump_path.with_name("fuzz.dmp.map.json").write_bytes(sidecar)
    try:
        dump = load_dump(dump_path)
    except AvaddonRescueError:
        return
    with dump:
        for r in dump.ranges:
            assert min(r.va, r.length, r.offset) >= 0
            assert dump.read_va(r.va, r.length) == DUMP_BYTES[r.offset : r.offset + r.length]
        # a raw dump records no width: it is scanned and chain-walked at both
        for cand in scan_key_candidates(dump):
            confirm_chain(dump, cand)


@given(raw=st.binary(max_size=2 * TRAILER_LEN), size=st.integers(0, 1 << 50))
@example(raw=bytes(TRAILER_LEN), size=APPENDIX_LEN)
def test_fuzz_parse_trailer(raw, size):
    try:
        trailer = parse_trailer(raw)
    except AvaddonRescueError:
        assert len(raw) != TRAILER_LEN
        return
    assert len(raw) == TRAILER_LEN
    assert trailer.tail_d == raw[20:]
    verdict = classify(size, raw)
    assert verdict.trailer is None or verdict.damage is None


@st.composite
def trailed_files(draw) -> bytes:
    """A body, a victim block and a trailer whose magics and recorded length
    are each right or a little off, so infected, damaged and clean all occur."""
    original_length = draw(st.integers(0, 100))
    body_length = draw(st.one_of(st.just(ceil16(original_length)), st.integers(0, 128)))
    magic_a = draw(st.sampled_from([MAGIC_A, MAGIC_A ^ 1]))
    magic_b = draw(st.sampled_from([MAGIC_B, MAGIC_B ^ 0x100, 0]))
    tail_d = draw(st.binary(min_size=4, max_size=4))
    body = draw(st.binary(min_size=body_length, max_size=body_length))
    return body + bytes(VICTIM_BLOCK_LEN) + struct.pack(
        "<QIII4s", original_length, magic_a, 1, magic_b, tail_d
    )


@FUZZ
@given(data=st.one_of(st.binary(max_size=2 * APPENDIX_LEN), trailed_files()))
@example(data=bytes(APPENDIX_LEN - 1))
def test_fuzz_probe_and_decrypt_agree_with_classify(tmp_path, session_key, data):
    f = tmp_path / "evidence.bin"
    f.write_bytes(data)
    verdict = classify(len(data), data[-TRAILER_LEN:])
    found = probe(f)
    assert (found.trailer, found.damage) == (verdict.trailer, verdict.damage)
    report = decrypt_file(f, session_key)
    if verdict.trailer is None:
        want = FileStatus.CORRUPT_TRAILER if verdict.damage else FileStatus.SKIPPED_CLEAN
        assert (report.status, report.detail) == (want, verdict.damage)
        return
    # an infected file is restored unless its padding proves the key wrong
    # (every body here is shorter than the encrypted-prefix limit)
    n = verdict.trailer.original_length
    padding = decrypt_stream(session_key, data[: len(data) - APPENDIX_LEN])[n:]
    want = FileStatus.WRONG_KEY if any(padding) else FileStatus.DECRYPTED
    assert (report.status, report.original_length) == (want, n)


@FUZZ
@given(data=st.one_of(st.binary(max_size=2 * APPENDIX_LEN), trailed_files()),
       block=st.binary(min_size=VICTIM_BLOCK_LEN, max_size=VICTIM_BLOCK_LEN))
def test_fuzz_classify_fd_reads_the_appendix_as_classify_reads_the_trailer(tmp_path, data,
                                                                           block):
    """One `pread` of the whole appendix gives the verdict that the last 24
    bytes give, and an infected file's victim block, whatever it holds."""
    if len(data) >= APPENDIX_LEN:
        data = data[:-APPENDIX_LEN] + block + data[-TRAILER_LEN:]
    f = tmp_path / "appendix.bin"
    f.write_bytes(data)
    verdict = classify(len(data), data[-TRAILER_LEN:])
    fd = os.open(f, os.O_RDONLY)
    try:
        found = classify_fd(fd, len(data))
    finally:
        os.close(fd)
    assert (found.trailer, found.damage) == (verdict.trailer, verdict.damage)
    assert found.victim_block == (block if verdict.trailer else None)
