import json
import mmap
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avaddon_rescue
from avaddon_rescue.emulator import (
    Decoy,
    DumpLayoutSpec,
    PlantedChain,
    generate_session_key,
    random_dump_layout,
    write_synthetic_dump,
)
from avaddon_rescue.errors import DumpFormatError, EvidenceError, UnusableDumpError
from avaddon_rescue.filecodec import encrypt_file
from avaddon_rescue.memscan import (
    HANDLE_XOR_CONSTANT,
    KEY_DATA_PATTERN,
    Evidence,
    KeyCandidate,
    RecoveryOutcome,
    confirm_chain,
    load_dump,
    recover_key,
    scan_key_candidates,
    verify_key,
)
from avaddon_rescue.minidump import write_minidump
from avaddon_rescue.trailer import TRAILER_LEN, VictimBlock
from conftest import HIGH_VA_BASE, PEAK_RSS_OF, moved_up


def simple_chain_spec(key, *, container="raw", pointer_width=4, decoys=(), fill="zero"):
    pw = pointer_width
    return DumpLayoutSpec(
        ranges=[(0, 1 << 20)],
        chains=[
            PlantedChain(
                key=key,
                key_data_va=0x1000,
                key_va=0x2000,
                magic_s_va=0x3000,
                hcryptkey_va=0x4000,
            )
        ],
        decoys=list(decoys),
        pointer_width=pw,
        container=container,
        fill=fill,
        seed=77,
    )


@pytest.fixture
def evidence_pair(tmp_path, session_key):
    """An encrypted fixture plus its original bytes."""
    original = tmp_path / "original.dat"
    content = b"The quick brown fox jumps over the lazy dog. " * 40
    original.write_bytes(content)
    encrypted = tmp_path / "encrypted.dat"
    encrypted.write_bytes(content)
    encrypt_file(encrypted, session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    return encrypted, original


# --- load_dump -------------------------------------------------------------


def test_load_raw_identity(tmp_path):
    f = tmp_path / "flat.dmp"
    f.write_bytes(bytes(1 << 20))
    with load_dump(f, "raw") as dump:
        assert dump.format == "raw"
        assert dump.pointer_width is None  # a raw dump records no width: both are read
        assert dump.pointer_widths == (4, 8)
        assert [(r.va, r.length, r.offset) for r in dump.ranges] == [(0, 1 << 20, 0)]
        assert dump.translate(0x123) == 0x123
        assert dump.translate(1 << 20) is None


def test_load_raw_with_sidecar_map(tmp_path):
    f = tmp_path / "mapped.dmp"
    f.write_bytes(bytes(range(256)) * 16)  # 4096 bytes
    map_path = tmp_path / "mapped.dmp.map.json"
    map_path.write_text(
        json.dumps(
            [
                {"va": 0x400000, "length": 0x800, "offset": 0},
                {"va": 0x500000, "length": 0x800, "offset": 0x800},
            ]
        )
    )
    with load_dump(f, "raw_with_map") as dump:
        # edges of both ranges translate; the gap does not
        assert dump.translate(0x400000) == 0
        assert dump.translate(0x4007FF) == 0x7FF
        assert dump.translate(0x400800) is None
        assert dump.translate(0x500000) == 0x800
        assert dump.translate(0x5007FF) == 0xFFF
        # reading across the va gap fails, inside a range succeeds
        assert dump.read_va(0x4007F0, 32) is None
        assert dump.read_va(0x400010, 4) == bytes([16, 17, 18, 19])
    # auto format sniffing finds the sidecar
    with load_dump(f) as dump:
        assert dump.format == "raw_with_map"


def test_load_raw_with_map_requires_sidecar(tmp_path):
    f = tmp_path / "lonely.dmp"
    f.write_bytes(bytes(64))
    with pytest.raises(DumpFormatError):
        load_dump(f, "raw_with_map")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("container", ["raw", "raw_with_map", "minidump"])
def test_loaded_dump_holds_one_descriptor(tmp_path, session_key, container):
    """The mapping keeps its own descriptor; the file opened to map it is
    closed before `load_dump` returns, and `close()` releases the rest."""
    dump_path = tmp_path / "proc.dmp"
    write_synthetic_dump(simple_chain_spec(session_key, container=container), dump_path)

    def descriptors_on_dump() -> int:
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                count += os.readlink(f"/proc/self/fd/{fd}") == str(dump_path.resolve())
            except OSError:  # the descriptor listdir itself used
                pass
        return count

    image = load_dump(dump_path)
    try:
        assert image.format == container
        assert descriptors_on_dump() == 1
    finally:
        image.close()
    assert descriptors_on_dump() == 0
    with pytest.raises(DumpFormatError):
        load_dump(dump_path, "minidump" if container != "minidump" else "raw_with_map")
    assert descriptors_on_dump() == 0


@pytest.mark.skipif(not os.path.isfile("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.parametrize("container", ["raw", "raw_with_map", "minidump"])
def test_dump_file_is_mapped_one_window_at_a_time(tmp_path, session_key, monkeypatch, container):
    """Loading a dump maps none of it; a scan or chain search maps one
    window at a time, the one before it already gone, and leaves nothing
    mapped behind it."""
    import avaddon_rescue.memscan as memscan_mod

    dump_path = tmp_path / "proc.dmp"
    write_synthetic_dump(simple_chain_spec(session_key, container=container), dump_path)

    def mappings_of_dump() -> int:
        with open("/proc/self/maps") as maps:
            return sum(line.rstrip().endswith(str(dump_path.resolve())) for line in maps)

    with load_dump(dump_path) as dump:
        assert mappings_of_dump() == 0
        seen = []
        real_window = memscan_mod.DumpImage.window

        def counting_window(self, start, stop):
            window = real_window(self, start, stop)
            seen.append(mappings_of_dump())
            return window

        monkeypatch.setattr(memscan_mod.DumpImage, "window", counting_window)
        monkeypatch.setattr(memscan_mod, "_SCAN_WINDOW", mmap.ALLOCATIONGRANULARITY)
        candidates = scan_key_candidates(dump)
        assert [confirm_chain(dump, c) for c in candidates if c.key == session_key] == [True]
        assert mappings_of_dump() == 0
    assert len(seen) > 16 and set(seen) == {1}


def test_dump_that_shrinks_after_loading_is_an_os_error(tmp_path):
    dump_path = tmp_path / "proc.dmp"
    dump_path.write_bytes(random.Random(3).randbytes(1 << 20))
    with load_dump(dump_path, "raw") as dump:
        os.truncate(dump_path, 1000)
        with pytest.raises(OSError, match="shrank") as shrank:
            scan_key_candidates(dump)
    assert str(dump_path) in str(shrank.value)


def test_sidecar_map_overlap_rejected(tmp_path):
    f = tmp_path / "overlap.dmp"
    f.write_bytes(bytes(4096))
    map_path = tmp_path / "overlap.dmp.map.json"
    map_path.write_text(
        json.dumps(
            [
                {"va": 0x1000, "length": 0x1000, "offset": 0},
                {"va": 0x1800, "length": 0x1000, "offset": 0x1000},
            ]
        )
    )
    with pytest.raises(DumpFormatError):
        load_dump(f, "raw_with_map")


@pytest.mark.parametrize("list_kind", ["memory64", "memory32"])
@pytest.mark.parametrize("pointer_width", [4, 8])
def test_load_minidump_ranges_and_width(tmp_path, list_kind, pointer_width):
    payload_a = bytes([0xAA]) * 0x300
    payload_b = bytes([0xBB]) * 0x500
    blob = b"".join(write_minidump(
        [(0x10000, payload_a), (0x20000, payload_b)],
        pointer_width,
        list_kind=list_kind,
    ))
    f = tmp_path / "mini.dmp"
    f.write_bytes(blob)
    with load_dump(f, "minidump") as dump:
        assert dump.pointer_width == pointer_width
        assert len(dump.ranges) == 2
        assert dump.read_va(0x10000, 4) == b"\xaa" * 4
        assert dump.read_va(0x10000 + 0x2FF, 1) == b"\xaa"
        assert dump.read_va(0x20000 + 0x4FF, 1) == b"\xbb"
        assert dump.read_va(0x10000 + 0x300, 1) is None
    # auto-sniffing picks minidump up from the signature
    with load_dump(f) as dump:
        assert dump.format == "minidump"


def test_truncated_minidump_header(tmp_path):
    f = tmp_path / "trunc.dmp"
    f.write_bytes(b"MDMP" + bytes(8))
    with pytest.raises(DumpFormatError):
        load_dump(f, "minidump")


def test_minidump_bad_signature(tmp_path):
    f = tmp_path / "notmini.dmp"
    f.write_bytes(b"XXXX" + bytes(64))
    with pytest.raises(DumpFormatError):
        load_dump(f, "minidump")


def test_minidump_without_memory_list(tmp_path):
    # hand-rolled: header + directory with only a system-info stream
    header = struct.pack("<4sIIIIIQ", b"MDMP", 0xA793, 1, 32, 0, 0, 0)
    directory = struct.pack("<III", 7, 56, 44)
    sysinfo = bytes(56)
    f = tmp_path / "nomem.dmp"
    f.write_bytes(header + directory + sysinfo)
    with pytest.raises(UnusableDumpError):
        load_dump(f, "minidump")


# --- scanning --------------------------------------------------------------


def test_scan_zero_dump_is_empty(tmp_path):
    f = tmp_path / "zero.dmp"
    f.write_bytes(bytes(1 << 20))
    with load_dump(f, "raw") as dump:
        assert scan_key_candidates(dump) == []


def test_scan_empty_file(tmp_path):
    f = tmp_path / "empty.dmp"
    f.write_bytes(b"")
    with load_dump(f, "raw") as dump:
        assert scan_key_candidates(dump) == []


def test_scan_finds_planted_key(tmp_path, session_key):
    dump_path = tmp_path / "one_chain.dmp"
    manifest = write_synthetic_dump(simple_chain_spec(session_key), dump_path)
    with load_dump(dump_path, "raw") as dump:
        candidates = scan_key_candidates(dump)
    assert len(candidates) == 1
    cand = candidates[0]
    assert cand.key == session_key
    assert cand.key_va == manifest["chains"][0]["key_va"]
    # pattern sits one pointer past the record start
    assert cand.struct_va == manifest["chains"][0]["key_data_va"] + 4


def test_scan_alignment_step(tmp_path, session_key):
    # the triple is searched at every byte offset, so an unaligned record is found
    blob = bytearray(0x4000)
    misaligned = 0x1001
    blob[misaligned : misaligned + 12] = KEY_DATA_PATTERN
    blob[misaligned + 12 : misaligned + 16] = (0x2000).to_bytes(4, "little")
    blob[0x2000:0x2020] = session_key.key_bytes
    f = tmp_path / "unaligned.dmp"
    f.write_bytes(bytes(blob))
    with load_dump(f, "raw") as dump:
        found = scan_key_candidates(dump)
    assert [c.struct_va for c in found] == [misaligned]
    assert found[0].key == session_key


def test_scan_dedups_by_key(tmp_path, session_key):
    # two records pointing at the same key bytes collapse to one candidate
    blob = bytearray(0x4000)
    for rec_off in (0x1000, 0x1800):
        blob[rec_off : rec_off + 12] = KEY_DATA_PATTERN
        blob[rec_off + 12 : rec_off + 16] = (0x2000).to_bytes(4, "little")
    blob[0x2000:0x2020] = session_key.key_bytes
    f = tmp_path / "dup.dmp"
    f.write_bytes(bytes(blob))
    with load_dump(f, "raw") as dump:
        candidates = scan_key_candidates(dump)
    assert len(candidates) == 1
    assert candidates[0].struct_offset == 0x1000


def test_scan_keeps_candidate_with_unresolvable_pointer(tmp_path):
    blob = bytearray(0x2000)
    blob[0x1000 : 0x1000 + 12] = KEY_DATA_PATTERN
    blob[0x100C:0x1010] = (0xDEAD0000).to_bytes(4, "little")  # resolves nowhere
    f = tmp_path / "dangling.dmp"
    f.write_bytes(bytes(blob))
    with load_dump(f, "raw") as dump:
        candidates = scan_key_candidates(dump)
    assert len(candidates) == 1
    assert candidates[0].key is None
    assert candidates[0].key_va == 0xDEAD0000


def test_pointer_fallback_to_file_offset(tmp_path, session_key):
    """A mapped record whose key pointer only makes sense as a raw offset."""
    blob = bytearray(0x3000)
    blob[0x100 : 0x100 + 12] = KEY_DATA_PATTERN
    blob[0x10C:0x110] = (0x2800).to_bytes(4, "little")  # raw file offset
    blob[0x2800:0x2820] = session_key.key_bytes
    f = tmp_path / "flat_offset.dmp"
    f.write_bytes(bytes(blob))
    # map only the first 0x1000 bytes at a high va: 0x2800 is unmapped as a va
    map_path = tmp_path / "flat_offset.dmp.map.json"
    map_path.write_text(json.dumps([{"va": 0x700000, "length": 0x1000, "offset": 0}]))
    with load_dump(f, "raw_with_map") as dump:
        candidates = scan_key_candidates(dump)
    assert len(candidates) == 1
    assert candidates[0].key == session_key
    assert candidates[0].key_source == "file_offset"


def test_scan_minidump_64bit_layout(tmp_path, session_key):
    spec = simple_chain_spec(session_key, container="minidump", pointer_width=8)
    dump_path = tmp_path / "wide.dmp"
    write_synthetic_dump(spec, dump_path)
    with load_dump(dump_path, "minidump") as dump:
        assert dump.pointer_width == 8
        candidates = scan_key_candidates(dump)
    assert [c.key for c in candidates] == [session_key]


# --- chain confirmation ------------------------------------------------------


def test_confirm_chain_full(tmp_path, session_key):
    dump_path = tmp_path / "full_chain.dmp"
    manifest = write_synthetic_dump(simple_chain_spec(session_key), dump_path)
    with load_dump(dump_path, "raw") as dump:
        (cand,) = scan_key_candidates(dump)
        assert confirm_chain(dump, cand) is True
    # XOR fidelity straight from the manifest
    chain = manifest["chains"][0]
    dump_bytes = dump_path.read_bytes()
    magic_field = int.from_bytes(
        dump_bytes[chain["hcryptkey_va"] + 44 : chain["hcryptkey_va"] + 48], "little"
    )
    assert magic_field == (chain["magic_s_va"] ^ HANDLE_XOR_CONSTANT)


def test_confirm_chain_bare_record(tmp_path, session_key):
    spec = simple_chain_spec(session_key)
    spec.chains[0].magic_s_va = None
    spec.chains[0].hcryptkey_va = None
    dump_path = tmp_path / "bare.dmp"
    write_synthetic_dump(spec, dump_path)
    with load_dump(dump_path, "raw") as dump:
        (cand,) = scan_key_candidates(dump)
        assert cand.key == session_key  # still eligible
        assert confirm_chain(dump, cand) is False


@pytest.mark.parametrize("window", [None, mmap.PAGESIZE])
def test_confirm_chain_past_a_cell_without_a_handle(tmp_path, session_key, monkeypatch, window):
    """A cell that points at the record but has no handle pointing back at
    it, below the real one, is searched past: the chain search resumes
    above it and still finds the real cell and its handle."""
    import avaddon_rescue.memscan as memscan_mod

    if window:
        monkeypatch.setattr(memscan_mod, "_SCAN_WINDOW", window)
    dump_path = tmp_path / "decoy_cell.dmp"
    manifest = write_synthetic_dump(simple_chain_spec(session_key), dump_path)
    chain = manifest["chains"][0]
    blob = bytearray(dump_path.read_bytes())
    blob[0x2800:0x2804] = chain["key_data_va"].to_bytes(4, "little")
    dump_path.write_bytes(bytes(blob))
    with load_dump(dump_path, "raw") as dump:
        (cand,) = scan_key_candidates(dump)
        assert confirm_chain(dump, cand) is True
    blob[chain["magic_s_va"] : chain["magic_s_va"] + 4] = bytes(4)  # only the decoy cell left
    dump_path.write_bytes(bytes(blob))
    with load_dump(dump_path, "raw") as dump:
        (cand,) = scan_key_candidates(dump)
        assert confirm_chain(dump, cand) is False


# --- verification ------------------------------------------------------------


def test_verify_key_against_original(evidence_pair, session_key, other_key):
    encrypted, original = evidence_pair
    evidence = Evidence.from_original(encrypted, original)
    assert verify_key(session_key, evidence) is True
    assert verify_key(other_key, evidence) is False


def test_verify_header_magic_png(tmp_path, session_key, other_key):
    png_like = b"\x89PNG\r\n\x1a\n" + bytes(range(64)) * 4
    f = tmp_path / "image.png"
    f.write_bytes(png_like)
    encrypt_file(f, session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    evidence = Evidence.from_header_magics(f)
    assert verify_key(session_key, evidence) is True
    assert verify_key(other_key, evidence) is False


def test_evidence_requires_infected_file(tmp_path, session_key):
    clean = tmp_path / "clean.txt"
    clean.write_bytes(b"just a normal file, nothing to see" * 4)
    with pytest.raises(EvidenceError):
        verify_key(session_key, Evidence.from_header_magics(clean))


def test_evidence_prefix_minimum(tmp_path):
    enc = tmp_path / "enc.bin"
    orig = tmp_path / "orig.bin"
    orig.write_bytes(b"short")
    enc.write_bytes(b"irrelevant")
    with pytest.raises(EvidenceError):
        Evidence.from_original(enc, orig)
    with pytest.raises(EvidenceError):
        Evidence(enc, b"0123456789")  # under 16 bytes


def test_evidence_with_a_damaged_trailer_names_the_damage(evidence_pair, session_key):
    encrypted, original = evidence_pair
    data = bytearray(encrypted.read_bytes())
    data[-TRAILER_LEN + 16] ^= 0xFF  # first byte of magic_b
    encrypted.write_bytes(bytes(data))
    with pytest.raises(EvidenceError, match="damaged trailer: one magic damaged"):
        verify_key(session_key, Evidence.from_original(encrypted, original))


def test_keyless_candidates_never_verify(tmp_path, session_key, evidence_pair, monkeypatch):
    import avaddon_rescue.memscan as memscan_mod

    encrypted, original = evidence_pair
    spec = simple_chain_spec(session_key, decoys=[Decoy(kind="bad_pointer", key_data_va=0xA000)])
    spec.chains.clear()
    dump_path = tmp_path / "keyless.dmp"
    write_synthetic_dump(spec, dump_path)
    checked = []
    monkeypatch.setattr(memscan_mod, "verify_key", lambda key, ev: checked.append(key) or True)
    with load_dump(dump_path, "raw") as dump:
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert [c.key for c in result.candidates] == [None]
    assert (result.outcome, result.candidates[0].verified, checked) == (
        RecoveryOutcome.NOT_FOUND, False, []
    )


# --- recover_key ---------------------------------------------------------------


def test_recover_key_end_to_end(tmp_path, session_key, evidence_pair):
    encrypted, original = evidence_pair
    dump_path = tmp_path / "session.dmp"
    decoys = [
        Decoy(kind="wrong_key", key_data_va=0x8000, key_va=0x9000),
        Decoy(kind="bad_pointer", key_data_va=0xA000),
        Decoy(kind="wrong_key", key_data_va=0xB000, key_va=0xC000),
    ]
    write_synthetic_dump(simple_chain_spec(session_key, decoys=decoys), dump_path)
    with load_dump(dump_path, "raw") as dump:
        candidates = scan_key_candidates(dump)
        assert len(candidates) >= 4  # planted + three decoys
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.FOUND
    assert result.key == session_key
    verified = [c for c in result.candidates if c.verified]
    assert len(verified) == 1 and verified[0].key == session_key
    assert result.candidates[0] is verified[0]  # ranked first


def test_recover_key_not_found(tmp_path, evidence_pair):
    encrypted, original = evidence_pair
    f = tmp_path / "blank.dmp"
    f.write_bytes(bytes(1 << 16))
    with load_dump(f, "raw") as dump:
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.NOT_FOUND
    assert result.key is None


def test_recover_key_two_keys_one_matches(tmp_path, session_key, other_key, evidence_pair):
    encrypted, original = evidence_pair
    spec = simple_chain_spec(session_key)
    spec.chains.append(
        PlantedChain(
            key=other_key,
            key_data_va=0x10000,
            key_va=0x11000,
            magic_s_va=0x12000,
            hcryptkey_va=0x13000,
        )
    )
    dump_path = tmp_path / "two_keys.dmp"
    write_synthetic_dump(spec, dump_path)
    with load_dump(dump_path, "raw") as dump:
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.FOUND
    assert result.key == session_key


def test_recover_key_ambiguous(tmp_path, session_key, other_key, evidence_pair, monkeypatch):
    """Aggregation logic when two distinct keys pass verification."""
    encrypted, original = evidence_pair
    spec = simple_chain_spec(session_key)
    spec.chains.append(
        PlantedChain(key=other_key, key_data_va=0x10000, key_va=0x11000)
    )
    dump_path = tmp_path / "ambiguous.dmp"
    write_synthetic_dump(spec, dump_path)
    import avaddon_rescue.memscan as memscan_mod

    monkeypatch.setattr(memscan_mod, "verify_key", lambda key, ev: True)
    with load_dump(dump_path, "raw") as dump:
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.AMBIGUOUS
    assert result.key is None


def test_recover_key_soundness_random_dumps(tmp_path, evidence_pair, session_key):
    """Planted key comes back verified across randomized layouts."""
    encrypted, original = evidence_pair
    evidence = Evidence.from_original(encrypted, original)
    for seed in range(3):
        layout = random_dump_layout(
            seed, container="minidump", n_decoys=2, total_bytes=2 << 20
        )
        layout.chains[0].key = session_key
        dump_path = tmp_path / f"rand_{seed}.dmp"
        write_synthetic_dump(layout, dump_path)
        with load_dump(dump_path, "minidump") as dump:
            result = recover_key(dump, evidence)
        assert result.outcome is RecoveryOutcome.FOUND, f"seed {seed}"
        assert result.key == session_key


def test_generate_session_key_properties():
    assert generate_session_key(0) == generate_session_key(0)
    assert generate_session_key(0) != generate_session_key(1)
    assert len(generate_session_key().key_bytes) == 32


# --- multi-range address map ---------------------------------------------------


def test_range_of_matches_linear_search(tmp_path):
    f = tmp_path / "many.dmp"
    f.write_bytes(bytes(0x4000))
    layout = [(0x10000 + i * 0x3000, 0x800, i * 0x800) for i in range(8)]
    f.with_name("many.dmp.map.json").write_text(
        json.dumps([{"va": va, "length": n, "offset": off} for va, n, off in reversed(layout)])
    )
    with load_dump(f, "raw_with_map") as dump:
        for va in range(0xF000, 0x10000 + 8 * 0x3000 + 0x1000, 0x100):
            want = next((off + va - b for b, n, off in layout if b <= va < b + n), None)
            assert dump.translate(va) == want, hex(va)
        for b, n, off in layout:  # both edges of every range
            assert dump.translate(b) == off
            assert dump.translate(b + n - 1) == off + n - 1
            assert dump.translate(b + n) is None


def test_scan_pointer_straddles_contiguous_ranges(tmp_path, session_key):
    """The triple ends on range A's last byte; its key pointer is the first
    bytes of range B, which continues at the next VA but sits earlier in
    the file."""
    blob = bytearray(0x1100)
    triple_va = 0x1100 - len(KEY_DATA_PATTERN)
    blob[triple_va : triple_va + 12] = KEY_DATA_PATTERN  # range A: va == file offset
    blob[0:4] = (0x1180).to_bytes(4, "little")  # va 0x1100 is file offset 0
    blob[0x80:0xA0] = session_key.key_bytes  # va 0x1180
    f = tmp_path / "straddle.dmp"
    f.write_bytes(bytes(blob))
    f.with_name("straddle.dmp.map.json").write_text(
        json.dumps(
            [
                {"va": 0x1000, "length": 0x100, "offset": 0x1000},
                {"va": 0x1100, "length": 0x100, "offset": 0},
            ]
        )
    )
    with load_dump(f, "raw_with_map") as dump:
        (cand,) = scan_key_candidates(dump)
    assert cand.struct_va == triple_va
    assert cand.key_va == 0x1180
    assert cand.key == session_key
    assert cand.key_source == "va"


def test_confirm_chain_record_above_pointer_range(tmp_path):
    """A record mapped above 4 GiB has no chain of 32-bit cells, and no
    64-bit one in a dump that holds none: not a crash."""
    blob = bytearray(0x1000)
    blob[0x10:0x1C] = KEY_DATA_PATTERN
    f = tmp_path / "high.dmp"
    f.write_bytes(bytes(blob))
    f.with_name("high.dmp.map.json").write_text(
        json.dumps([{"va": 1 << 32, "length": 0x1000, "offset": 0}])
    )
    with load_dump(f, "raw_with_map") as dump:
        (cand,) = scan_key_candidates(dump)
        assert confirm_chain(dump, cand) is False


# --- pointer width --------------------------------------------------------------


@pytest.mark.parametrize("container, pointer_width, high", [
    ("raw", 4, False), ("raw", 8, False),
    ("raw_with_map", 4, False), ("raw_with_map", 8, False), ("raw_with_map", 8, True),
    ("minidump", 4, False), ("minidump", 8, False), ("minidump", 8, True),
])
def test_every_dump_gives_up_its_key_with_no_width_given(tmp_path, evidence_pair, session_key,
                                                         container, pointer_width, high):
    """Each container at each width, below 4 GiB and, for a 64-bit
    process, above it, recovers the planted key, its chain confirmed, from
    what the dump says of itself. A raw dump is identity-mapped, so it
    lies below 4 GiB; a 32-bit process has nothing above it."""
    encrypted, original = evidence_pair
    layout = random_dump_layout(11, pointer_width=pointer_width, container=container,
                                n_decoys=4, total_bytes=2 << 20)
    if high:
        layout = moved_up(layout)
    layout.chains[0].key = session_key
    dump_path = tmp_path / "proc.dmp"
    manifest = write_synthetic_dump(layout, dump_path)
    assert (manifest["chains"][0]["key_va"] > HIGH_VA_BASE) is high
    with load_dump(dump_path) as dump:
        assert dump.format == container
        assert dump.pointer_width == (pointer_width if container == "minidump" else None)
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.FOUND
    assert result.key == session_key
    assert result.candidates[0].key == session_key
    assert result.candidates[0].chain_confirmed is True


def test_a_second_width_that_reads_a_mapped_key_adds_a_candidate_that_fails(
    tmp_path, evidence_pair, session_key
):
    """A 64-bit key pointer above 4 GiB, read at 4 bytes, gives its low
    half; with a range mapped there, that reading is a second keyed
    candidate of the same hit. It fails verification, and the key read at
    8 bytes is found."""
    encrypted, original = evidence_pair
    layout = moved_up(random_dump_layout(11, pointer_width=8, container="raw_with_map",
                                         total_bytes=2 << 20))
    chain = layout.chains[0]
    chain.key = session_key
    low_key_va = chain.key_va & 0xFFFF_FFFF
    layout.ranges.append((low_key_va - low_key_va % 0x1000, 0x2000))
    dump_path = tmp_path / "proc.dmp"
    write_synthetic_dump(layout, dump_path)
    with load_dump(dump_path) as dump:
        candidates = scan_key_candidates(dump)
        assert [(c.struct_va, c.key_va) for c in candidates if c.key is not None] == [
            (chain.key_data_va + 8, low_key_va), (chain.key_data_va + 8, chain.key_va)]
        result = recover_key(dump, Evidence.from_original(encrypted, original))
    assert result.outcome is RecoveryOutcome.FOUND
    assert result.key == session_key
    assert [(c.key_va, c.verified) for c in result.candidates if c.key is not None] == [
        (chain.key_va, True), (low_key_va, False)]


# --- verify first, then confirm --------------------------------------------------


def test_evidence_read_once(evidence_pair, session_key, other_key, monkeypatch):
    encrypted, original = evidence_pair
    opened = []
    real_open = os.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_open)
    evidence = Evidence.from_original(encrypted, original)
    results = [verify_key(k, evidence) for k in (other_key, session_key) * 5]
    monkeypatch.undo()
    assert results == [False, True] * 5
    assert opened == [original, encrypted]


def _expected_recovery(dump, evidence, verify):
    """Outcome, key and per-offset verified flags from checking every
    scanned candidate directly, with no ranking or chain involved."""
    candidates = scan_key_candidates(dump)
    verified = {c.struct_offset: c.key is not None and verify(c.key, evidence) for c in candidates}
    keys = {c.key.key_bytes for c in candidates if verified[c.struct_offset]}
    if not keys:
        return RecoveryOutcome.NOT_FOUND, None, verified
    if len(keys) > 1:
        return RecoveryOutcome.AMBIGUOUS, None, verified
    return RecoveryOutcome.FOUND, next(iter(keys)), verified


@pytest.mark.parametrize("case", ["found", "not_found", "ambiguous"])
@pytest.mark.parametrize("seed", range(3))
def test_recover_key_confirms_only_verified(
    tmp_path, evidence_pair, session_key, monkeypatch, case, seed
):
    import avaddon_rescue.memscan as memscan_mod

    encrypted, original = evidence_pair
    evidence = Evidence.from_original(encrypted, original)
    layout = random_dump_layout(
        seed + 40,
        container=("raw", "raw_with_map", "minidump")[seed],
        pointer_width=(4, 8, 4)[seed],
        n_decoys=60,
        total_bytes=2 << 20,
    )
    if case != "not_found":
        layout.chains[0].key = session_key
    dump_path = tmp_path / "decoys.dmp"
    write_synthetic_dump(layout, dump_path)

    confirmed = []
    real_confirm = memscan_mod.confirm_chain

    def counting_confirm(dump, cand):
        confirmed.append(cand.struct_offset)
        return real_confirm(dump, cand)

    monkeypatch.setattr(memscan_mod, "confirm_chain", counting_confirm)
    with load_dump(dump_path, layout.container) as dump:
        keys = [c.key for c in scan_key_candidates(dump) if c.key is not None]
        assert len(keys) >= 20
        if case == "ambiguous":
            # no second genuine key can decrypt the evidence; accept one decoy's too
            accepted = {session_key.key_bytes, next(k for k in keys if k != session_key).key_bytes}
            monkeypatch.setattr(memscan_mod, "verify_key", lambda k, ev: k.key_bytes in accepted)
        result = recover_key(dump, evidence)
        outcome, key, verified = _expected_recovery(dump, evidence, memscan_mod.verify_key)

    assert result.outcome is outcome is RecoveryOutcome(case)
    assert (result.key.key_bytes if result.key else None) == key
    assert {c.struct_offset: c.verified for c in result.candidates} == verified
    assert sorted(confirmed) == sorted(c.struct_offset for c in result.candidates if c.verified)
    for cand in result.candidates:
        if cand.verified:
            assert cand.chain_confirmed is (cand.key == session_key)
        else:
            assert cand.chain_confirmed is None
            assert cand.to_dict()["chain_confirmed"] is None
    if case == "ambiguous":
        assert len(confirmed) == 2 and result.key is None
    assert [c.verified for c in result.candidates] == sorted(
        (c.verified for c in result.candidates), reverse=True
    )


# --- windowed scan ---------------------------------------------------------------


def _naive_find(dump, needle, alignment):
    """Every aligned occurrence of `needle` inside one range, byte by byte."""
    data = dump[:]  # the whole dump, read with one pread
    return [
        (off, r.va + off - r.offset)
        for r in dump.ranges
        for off in range(r.offset, r.offset + r.length - len(needle) + 1)
        if (r.va + off - r.offset) % alignment == 0 and data[off : off + len(needle)] == needle
    ]


def _naive_scan(dump):
    """`scan_key_candidates` done byte by byte: every hit of `_naive_find`
    in file order, its key read where the scan reads it, at each pointer
    width the dump is read at; a hit with no key at any width kept once,
    with the first pointer read, and a keyed candidate dropped when an
    earlier one holds the same key."""
    import avaddon_rescue.memscan as memscan_mod

    out, seen = [], set()
    for off, va in sorted(_naive_find(dump, KEY_DATA_PATTERN, 1)):
        keyless = KeyCandidate(struct_offset=off, struct_va=va)
        keyed = []
        for pw in dump.pointer_widths:
            ptr = dump.read_va(va + len(KEY_DATA_PATTERN), pw)
            if ptr is None:
                continue
            cand = KeyCandidate(struct_offset=off, struct_va=va,
                                key_va=int.from_bytes(ptr, "little"))
            cand.key, cand.key_source = memscan_mod._read_candidate_key(dump, cand.key_va)
            if cand.key is not None:
                keyed.append(cand)
            elif keyless.key_va is None:
                keyless = cand
        for cand in keyed or [keyless]:
            if cand.key is not None:
                if cand.key.key_bytes in seen:
                    continue
                seen.add(cand.key.key_bytes)
            out.append(cand)
    return out


def test_windowed_scan_edges(tmp_path, monkeypatch):
    """One-page windows over a 64-bit multi-range dump with random fill:
    patterns straddle window edges by 1 to 11 bytes, sit at each range's
    first and last offset, and run across two ranges contiguous in VA and
    in the file (no match). Range A starts off a page in the file, so its
    aligned VAs sit at odd file offsets. Then over a zero-filled dump:
    one window holds nothing, and the others hold patterns back to back
    and between near misses (their first 1 to 11 bytes), across edges."""
    import avaddon_rescue.memscan as memscan_mod

    page = mmap.PAGESIZE
    pw = 8
    n = len(KEY_DATA_PATTERN)
    ranges = {  # name: (va, length, file offset)
        "A": (0x100000, 20 * page + 0x321, 0x123),
        "B": (0x300000, 3 * page, 21 * page),
        "C": (0x400000, page + 0x40, 24 * page),
        "D": (0x400000 + page + 0x40, page, 25 * page + 0x40),
    }
    blob = bytearray(random.Random(3).randbytes(26 * page + 0x40))

    def poke(va, data):
        for rva, length, off in ranges.values():
            if rva <= va and va + len(data) <= rva + length:
                blob[off + va - rva : off + va - rva + len(data)] = data
                return True
        return False

    a_va, a_len, _ = ranges["A"]
    b_va, b_len, _ = ranges["B"]
    c_va, c_len, _ = ranges["C"]
    d_va, d_len, _ = ranges["D"]
    planted = [a_va + d * page - d for d in range(1, n)]  # edge d of A, d bytes before it
    planted += [a_va, a_va + a_len - n, b_va, b_va + b_len - n, c_va, d_va + d_len - n]
    keyed = []
    for i, va in enumerate(planted):
        assert poke(va, KEY_DATA_PATTERN)
        # a key pointer into range A's random bytes, where the range has room
        if poke(va + n, (a_va + 0x40 * (i + 1)).to_bytes(pw, "little")):
            keyed.append(va)
    c_off = ranges["C"][2]  # C and D sit back to back in the file too
    blob[c_off + c_len - 5 : c_off + c_len - 5 + n] = KEY_DATA_PATTERN  # across C|D: no match
    # the chain behind the record at A's first offset, both cells straddling B's edges
    magic_cell = b_va + page - 4
    assert poke(magic_cell, (a_va - pw).to_bytes(pw, "little"))
    assert poke(b_va + 2 * page - 4, (magic_cell ^ HANDLE_XOR_CONSTANT).to_bytes(pw, "little"))

    f = tmp_path / "windows.dmp"
    f.write_bytes(bytes(blob))
    f.with_name("windows.dmp.map.json").write_text(
        json.dumps([{"va": va, "length": n_, "offset": off} for va, n_, off in ranges.values()])
    )
    needles = [KEY_DATA_PATTERN, (a_va - pw).to_bytes(pw, "little"),
               (magic_cell ^ HANDLE_XOR_CONSTANT).to_bytes(pw, "little")]
    with load_dump(f, "raw_with_map") as dump:
        wide = scan_key_candidates(dump)
        wide_chain = [confirm_chain(dump, c) for c in wide]
        monkeypatch.setattr(memscan_mod, "_SCAN_WINDOW", page)
        for alignment in (1, 4):
            for needle in needles:
                want = _naive_find(dump, needle, alignment)
                assert list(memscan_mod._find_aligned(dump, needle, alignment)) == want
        assert [va for _, va in _naive_find(dump, KEY_DATA_PATTERN, 1)] == sorted(planted)
        narrow = scan_key_candidates(dump)
        assert narrow == wide
        assert sorted(c.struct_va for c in narrow if c.key is not None) == sorted(keyed)
        assert [confirm_chain(dump, c) for c in narrow] == wide_chain
        assert narrow == _naive_scan(dump)
    assert wide_chain == [c.struct_va == a_va for c in wide]

    zeros = bytearray(5 * page)
    at = page - 3 * n  # the run crosses the first edge; the last window stays empty
    for near in range(1, n):
        # a near miss ends in 0xFF, as zeros after the first 9 bytes or more would match
        for piece in (KEY_DATA_PATTERN[:near], KEY_DATA_PATTERN, KEY_DATA_PATTERN[:near], b"\xff"):
            zeros[at : at + len(piece)] = piece
            at += len(piece)
    for edge in (2 * page - n // 2, 3 * page - n):  # back to back, across and up to an edge
        zeros[edge : edge + 2 * n] = KEY_DATA_PATTERN * 2
    assert at < 2 * page - n // 2
    f = tmp_path / "zeros.dmp"
    f.write_bytes(bytes(zeros))
    with load_dump(f, "raw") as dump:
        hits = _naive_scan(dump)
        assert len(_naive_find(dump, KEY_DATA_PATTERN, 1)) == n - 1 + 4
        assert not any(4 * page <= c.struct_offset for c in hits)
        assert scan_key_candidates(dump) == hits


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    zero_fill=st.booleans(),
    pages=st.integers(1, 3),
    windows=st.integers(1, 3),
    tail=st.integers(0, mmap.ALLOCATIONGRANULARITY),
    skew=st.integers(0, mmap.ALLOCATIONGRANULARITY),
    split=st.floats(0, 1),
    edges=st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(-12, 12)),
                   max_size=6),
    spots=st.lists(st.floats(0, 1), max_size=4),
)
def test_scan_equals_the_naive_search(seed, zero_fill, pages, windows, tail, skew, split, edges,
                                      spots):
    """Windows of 1 to 3 allocation units over two ranges of random or
    zero bytes, each starting at a random file offset: patterns planted at
    random offsets and up to 12 bytes either side of window edges."""
    import avaddon_rescue.memscan as memscan_mod

    window = pages * mmap.ALLOCATIONGRANULARITY
    size = windows * window + tail
    blob = bytearray(size if zero_fill else random.Random(seed).randbytes(size))
    cut = int(split * size)
    starts = (skew, skew + cut)  # each range's first byte in the file
    plants = [starts[upper] + k * window + d for upper, k, d in edges]
    plants += [skew + int(spot * size) for spot in spots]
    blob = bytearray(skew) + blob
    for at in plants:
        if 0 <= at <= len(blob) - len(KEY_DATA_PATTERN):
            blob[at : at + len(KEY_DATA_PATTERN)] = KEY_DATA_PATTERN
    ranges = [{"va": 0x10000, "length": cut, "offset": skew},
              {"va": 0x10000 + cut + 0x1000, "length": size - cut, "offset": skew + cut}]
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp, "random.dmp")
        f.write_bytes(bytes(blob))
        f.with_name("random.dmp.map.json").write_text(json.dumps(ranges))
        with load_dump(f, "raw_with_map") as dump, \
                mock.patch.object(memscan_mod, "_SCAN_WINDOW", window):
            assert scan_key_candidates(dump) == _naive_scan(dump)


@pytest.mark.skipif(
    not hasattr(os, "wait4") or sys.platform != "linux",
    reason="needs os.wait4 and Linux's ru_maxrss in KiB",
)
def test_recover_key_memory_does_not_grow_with_the_dump(tmp_path, session_key):
    """`recover-key` over a 128 MiB dump, in a process whose own peak
    resident set must stay below half the dump's size."""
    layout = random_dump_layout(5, container="raw", total_bytes=128 << 20, fill="random")
    layout.chains[0].key = session_key
    dump_path = tmp_path / "big.dmp"
    write_synthetic_dump(layout, dump_path)
    original = tmp_path / "original.dat"
    original.write_bytes(b"evidence plaintext block " * 8)
    encrypted = tmp_path / "encrypted.dat"
    encrypted.write_bytes(original.read_bytes())
    encrypt_file(encrypted, session_key, VictimBlock.zeros(), sandbox_root=tmp_path)

    src = str(Path(avaddon_rescue.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    measured = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF, "-m", "avaddon_rescue.cli", "recover-key",
         "--dump", str(dump_path), "--evidence-encrypted", str(encrypted),
         "--evidence-original", str(original), "--key-out", str(tmp_path / "key.hex"),
         "--out", str(report)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, check=True,
        timeout=120,
    )
    child = json.loads(measured.stdout)
    assert child["exit"] == 0
    assert json.loads(report.read_text())["key_recovery"]["outcome"] == "found"
    peak_mib = child["maxrss_kib"] / 1024
    assert peak_mib < 64, f"recover-key peaked at {peak_mib:.1f} MiB on a 128 MiB dump"


def _recover_key_peak_mib(tmp_path: Path, session_key, dump_bytes: int) -> float:
    """Peak resident MiB of `recover-key` over a random raw dump of
    `dump_bytes`, measured in a child spawned by a bare interpreter."""
    layout = random_dump_layout(5, container="raw", total_bytes=dump_bytes, fill="random")
    layout.chains[0].key = session_key
    dump_path = tmp_path / f"{dump_bytes}.dmp"
    write_synthetic_dump(layout, dump_path)
    original = tmp_path / "original.dat"
    original.write_bytes(b"evidence plaintext block " * 8)
    encrypted = tmp_path / "encrypted.dat"
    if not encrypted.exists():
        encrypted.write_bytes(original.read_bytes())
        encrypt_file(encrypted, session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    src = str(Path(avaddon_rescue.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = tmp_path / "report.json"
    measured = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF, "-m", "avaddon_rescue.cli", "recover-key",
         "--dump", str(dump_path), "--evidence-encrypted", str(encrypted),
         "--evidence-original", str(original), "--key-out", str(tmp_path / "key.hex"),
         "--out", str(report)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, check=True,
        timeout=120,
    )
    child = json.loads(measured.stdout)
    assert child["exit"] == 0
    assert json.loads(report.read_text())["key_recovery"]["outcome"] == "found"
    dump_path.unlink()
    return child["maxrss_kib"] / 1024


@pytest.mark.skipif(
    not hasattr(os, "wait4") or sys.platform != "linux",
    reason="needs os.wait4 and Linux's ru_maxrss in KiB",
)
def test_recover_key_peak_is_the_same_on_a_large_dump(tmp_path, session_key):
    """Resident dump bytes are bounded by one scan window, not by the
    kernel's page-cache folios: `recover-key` over a 128 MiB dump peaks
    within 2 MiB of its peak over a 1 MiB dump."""
    small = _recover_key_peak_mib(tmp_path, session_key, 1 << 20)
    large = _recover_key_peak_mib(tmp_path, session_key, 128 << 20)
    assert large - small < 2, f"recover-key peaked at {small:.1f} MiB on 1 MiB, {large:.1f} on 128"
