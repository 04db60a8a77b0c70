"""Parsers of untrusted input fail only with `AvaddonRescueError` subclasses.

Dumps, sidecar maps and trailers come from the infected machine. Whatever
their bytes, a parser either returns something consistent with its input or
raises one of the package's own errors; nothing else may escape.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avaddon_rescue.errors import AvaddonRescueError
from avaddon_rescue.memscan import DumpImage, confirm_chain, load_dump, scan_key_candidates
from avaddon_rescue.minidump import read_minidump, write_minidump
from avaddon_rescue.trailer import APPENDIX_LEN, TRAILER_LEN, classify, parse_trailer

FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

DUMP_BYTES = bytes(range(256)) * 16


@st.composite
def mutated_minidumps(draw) -> bytes:
    """A well-formed minidump with a few bytes overwritten and maybe cut short."""
    ranges = draw(
        st.lists(st.tuples(st.integers(0, (1 << 64) - 1), st.binary(max_size=48)), max_size=3)
    )
    blob = bytearray(
        write_minidump(
            ranges,
            draw(st.sampled_from([4, 8])),
            list_kind=draw(st.sampled_from(["memory64", "memory32"])),
        )
    )
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
def test_fuzz_read_minidump(data):
    try:
        ranges, width = read_minidump(data)
    except AvaddonRescueError:
        return
    assert width in (None, 4, 8)
    assert all(r.offset >= 0 and r.offset + r.length <= len(data) for r in ranges)
    # what parsed must also load, scan and chain-walk without a foreign error
    try:
        dump = DumpImage(None, data, ranges, width or 4, "minidump")
    except AvaddonRescueError:
        return
    for cand in scan_key_candidates(dump, alignment=1):
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
        dump = load_dump(dump_path, "raw_with_map")
    except AvaddonRescueError:
        return
    with dump:
        for r in dump.ranges:
            assert min(r.va, r.length, r.offset) >= 0
            assert dump.read_va(r.va, r.length) == DUMP_BYTES[r.offset : r.offset + r.length]


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
