"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL
summary is printed at the end of the session. The desk-scale and dump
criteria write multi-hundred-MB fixtures under the pytest tmp dir.
"""

import base64
import hashlib
import random
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from avaddon_rescue.cipher import SessionKey
from avaddon_rescue.emulator import (
    CONFIRM_TOKEN,
    OperatorKeyPair,
    SkipPolicy,
    emulate_infection,
    ensure_sandbox,
    generate_session_key,
    plan_traversal,
    random_dump_layout,
    unwrap_session_key,
    wrap_session_key,
    write_synthetic_dump,
)
from avaddon_rescue.errors import SandboxViolation
from avaddon_rescue.filecodec import FileStatus, decrypt_file, encrypt_file
from avaddon_rescue.memscan import (
    Evidence,
    RecoveryOutcome,
    confirm_chain,
    load_dump,
    recover_key,
    scan_key_candidates,
    verify_key,
)
from avaddon_rescue.strings import decode_string, encode_string
from avaddon_rescue.trailer import (
    APPENDIX_LEN,
    VictimBlock,
    build_trailer,
    classify,
    expected_body_length,
    parse_trailer,
    probe,
)

BLOCK = VictimBlock.zeros()


# --- 1. golden trailer vector ---------------------------------------------------

# 24 trailer bytes as printed in the published hexdump of an infected sample
GOLDEN_TRAILER = bytes.fromhex("4E4D000000000000" "00020000" "01000000" "07030301" "0101E202")
DOCUMENTED_LENGTH = 20045  # 0x4E4D, the length stated for that sample


def test_criterion_1_golden_trailer():
    t = parse_trailer(GOLDEN_TRAILER)
    assert t.magic_a == 0x200
    assert t.magic_b == 0x01030307
    assert t.reserved_c == 1
    assert t.tail_d == bytes.fromhex("0101E202")

    # field layout is little-endian, pinned by an independent oracle
    assert t.original_length == int.from_bytes(GOLDEN_TRAILER[:8], "little")
    assert GOLDEN_TRAILER[8:12] == (0x200).to_bytes(4, "little")
    assert GOLDEN_TRAILER[16:20] == (0x01030307).to_bytes(4, "little")

    # the documented sample length round-trips canonically
    canonical = build_trailer(DOCUMENTED_LENGTH)
    assert canonical[:8] == DOCUMENTED_LENGTH.to_bytes(8, "little")
    assert parse_trailer(canonical).original_length == DOCUMENTED_LENGTH
    # and classifies as infected on a file of the matching size
    infected_size = expected_body_length(DOCUMENTED_LENGTH) + APPENDIX_LEN
    assert classify(infected_size, canonical).trailer == parse_trailer(canonical)


@pytest.mark.xfail(
    strict=True,
    reason="the published hexdump prints the two length bytes swapped relative "
    "to the little-endian layout every other field uses (4E 4D reads as 0x4D4E, "
    "not the stated 0x4E4D); no encoding satisfies both, so the length field of "
    "the literal dump bytes cannot equal 20045",
)
def test_criterion_1_literal_length_claim():
    assert parse_trailer(GOLDEN_TRAILER).original_length == DOCUMENTED_LENGTH


# --- 2. round-trip suite ---------------------------------------------------------

ROUND_TRIP_SIZES = [0, 1, 15, 16, 17, 8191, 8192, 8193,
                    0x100000 - 1, 0x100000, 0x100000 + 1, 5 << 20]


def test_criterion_2_round_trip_suite(tmp_path):
    key = generate_session_key(2024)
    started = time.perf_counter()
    for size in ROUND_TRIP_SIZES:
        f = tmp_path / f"rt_{size}.bin"
        content = random.Random(size).randbytes(size)
        f.write_bytes(content)
        enc = encrypt_file(f, key, BLOCK, sandbox_root=tmp_path)
        assert enc.status is FileStatus.ENCRYPTED
        assert f.stat().st_size == expected_body_length(size) + APPENDIX_LEN, f"size law at {size}"
        dec = decrypt_file(f, key)
        assert dec.status is FileStatus.DECRYPTED
        assert f.read_bytes() == content, f"round trip at {size}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"round-trip suite took {elapsed:.1f}s, budget 30s"


# --- 3. desk-scale corpus ---------------------------------------------------------

N_FILES = 9_050
MIN_TOTAL_BYTES = 600 * 1_000_000


def _build_corpus(root: Path) -> tuple[dict[Path, str], int]:
    """Write ~9k small files plus enough large ones to pass 600 MB."""
    rng = random.Random(31337)
    pattern = rng.randbytes(1 << 20)
    digests: dict[Path, str] = {}
    total = 0

    def add(path: Path, content: bytes) -> None:
        nonlocal total
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        digests[path] = hashlib.sha256(content).hexdigest()
        total += len(content)

    for i in range(N_FILES - 50):
        size = rng.randrange(2_000, 50_000)
        off = rng.randrange(0, len(pattern) - size)
        content = bytes([i & 0xFF]) + pattern[off : off + size - 1]
        add(root / f"branch{i % 40:02d}" / f"leaf{i % 7}" / f"doc_{i:05d}.txt", content)
    for i in range(50):
        content = i.to_bytes(4, "little") + pattern * 10  # ~10 MiB each
        add(root / "bulk" / f"volume_{i:02d}.vmdata", content)
    return digests, total


def test_criterion_3_desk_scale_corpus(tmp_path):
    root = tmp_path / "estate"
    root.mkdir()
    digests, total = _build_corpus(root)
    assert len(digests) >= 9_000
    assert total >= MIN_TOTAL_BYTES

    key = generate_session_key(555)
    report = emulate_infection(root, key, None, BLOCK, confirm_token=CONFIRM_TOKEN)
    assert report.encrypted == len(digests)
    assert report.errors == 0

    # 100% detected
    detected = [p for p in sorted(root.rglob("*")) if p.is_file() and probe(p).trailer is not None]
    assert len(detected) == len(digests)

    # 100% byte-identically decrypted, inside the wall-time budget
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda p: decrypt_file(p, key), detected))
    elapsed = time.perf_counter() - started
    assert all(r.status is FileStatus.DECRYPTED for r in results)
    assert elapsed <= 600.0, f"decryption took {elapsed:.1f}s, budget 600s"

    for path, digest in digests.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, path
    print(f"\ndesk-scale: {len(digests)} files, {total/1e6:.0f} MB, "
          f"decrypted in {elapsed:.1f}s")


# --- 4. key recovery on randomized dumps -------------------------------------------


def _evidence_for(tmp_path: Path, key: SessionKey, tag: str) -> Evidence:
    original = tmp_path / f"ev_orig_{tag}.dat"
    content = b"evidence plaintext block " * 8
    original.write_bytes(content)
    encrypted = tmp_path / f"ev_enc_{tag}.dat"
    encrypted.write_bytes(content)
    encrypt_file(encrypted, key, BLOCK, sandbox_root=tmp_path)
    return Evidence.from_original(encrypted, original)


def test_criterion_4_key_recovery_50_dumps(tmp_path):
    found = 0
    for seed in range(50):
        container = "minidump" if seed % 2 else "raw"
        layout = random_dump_layout(
            seed,
            pointer_width=8 if seed % 4 >= 2 else 4,
            container=container,
            n_decoys=seed % 6,
            total_bytes=64 << 20,
        )
        dump_path = tmp_path / f"dump_{seed:02d}.dmp"
        manifest = write_synthetic_dump(layout, dump_path)
        planted = SessionKey(bytes.fromhex(manifest["key_hex"]))
        evidence = _evidence_for(tmp_path, planted, f"{seed:02d}")

        # raw containers carry no width metadata; the key is read at both widths
        with load_dump(dump_path) as dump:
            result = recover_key(dump, evidence)
        assert result.outcome is RecoveryOutcome.FOUND, f"seed {seed}: {result.outcome}"
        assert result.key == planted, f"seed {seed}: wrong key returned"
        # soundness: the returned key itself passes verification
        assert verify_key(result.key, evidence)
        found += 1

        dump_path.unlink()
        Path(str(dump_path) + ".manifest.json").unlink()
        side = Path(str(dump_path) + ".map.json")
        if side.exists():
            side.unlink()
    assert found == 50


def test_criterion_4_512mib_scan_budget(tmp_path):
    layout = random_dump_layout(
        424242, container="raw", n_decoys=5, total_bytes=512 << 20, fill="random"
    )
    dump_path = tmp_path / "big.dmp"
    manifest = write_synthetic_dump(layout, dump_path)
    planted = SessionKey(bytes.fromhex(manifest["key_hex"]))
    evidence = _evidence_for(tmp_path, planted, "big")

    started = time.perf_counter()
    with load_dump(dump_path) as dump:
        result = recover_key(dump, evidence)
    elapsed = time.perf_counter() - started
    assert result.outcome is RecoveryOutcome.FOUND
    assert result.key == planted
    assert elapsed <= 60.0, f"512 MiB scan took {elapsed:.1f}s, budget 60s"
    print(f"\n512 MiB dump scanned in {elapsed:.1f}s")


# --- 5. XOR-chain fidelity -----------------------------------------------------------


def test_criterion_5_xor_chain_fidelity(tmp_path):
    checked_chains = 0
    for seed in range(12):
        layout = random_dump_layout(
            seed + 1000,
            pointer_width=8 if seed % 2 else 4,
            container=("raw", "raw_with_map", "minidump")[seed % 3],
            n_decoys=seed % 3,
            total_bytes=2 << 20,
            n_chains=1 + seed % 2,
        )
        dump_path = tmp_path / f"fid_{seed}.dmp"
        manifest = write_synthetic_dump(layout, dump_path)
        pw = manifest["pointer_width"]
        raw = dump_path.read_bytes()

        with load_dump(dump_path) as dump:
            candidates = {c.struct_va: c for c in scan_key_candidates(dump)}
            for chain in manifest["chains"]:
                # generator self-check recomputed from the file bytes
                hk_off = dump.translate(chain["hcryptkey_va"])
                magic_field = int.from_bytes(raw[hk_off + 11 * pw : hk_off + 12 * pw], "little")
                assert magic_field == (chain["magic_s_va"] ^ 0xE35A172C) & ((1 << 8 * pw) - 1)

                # the scanner's own chain walk agrees
                cand = candidates[chain["key_data_va"] + pw]
                assert cand.key.hex() == chain["key_hex"]
                assert confirm_chain(dump, cand) is True
                checked_chains += 1
    assert checked_chains >= 12


# --- 6. string codec -------------------------------------------------------------------


def test_criterion_6_string_codec():
    # independent inverse oracle built by exhaustive search
    inverse = {((p ^ 0x43) + 2) % 256: p for p in range(256)}
    oracle = bytes(inverse[c] for c in base64.b64decode("AnshGSgwNQ=="))
    assert oracle == b"C:\\Temp"
    assert decode_string("AnshGSgwNQ==") == oracle

    for b in range(256):
        single = bytes([b])
        assert decode_string(encode_string(single)) == single

    rng = random.Random(606)
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 64))
        assert decode_string(encode_string(data)) == data


# --- 7. skip-policy fidelity --------------------------------------------------------------

# embedded copies, typed independently of the implementation constants
EXPECTED_PATH_SUBSTRINGS = (
    "C:\\Program Files\\Microsoft\\Exchange Server",
    "C:\\Program Files (x86)\\Microsoft\\Exchange Server",
    "C:\\Program Files\\Microsoft SQL Server",
    "C:\\Program Files (x86)\\Microsoft SQL Server",
    "C:\\Windows",
    "C:\\Program Files",
    "C:\\Users\\All Users",
    "C:\\Users\\Public",
    "C:\\Users\\%User Profile%\\AppData\\Local\\Temp",
    "C:\\Program Files (x86)",
    "C:\\Users\\%User Profile%\\AppData",
    "C:\\ProgramData",
    "Tor Browser",
    "AppData",
    "ProgramData",
    "Program Files",
    "Windows",
    "363053-readme.html",
    "bckgrd.bmp",
)
EXPECTED_EXTENSIONS = ("bin", "ini", "sys", "dll", "lnk", "dat", "exe",
                       "drv", "rdp", "prf", "swp", "mdf", "mds", "sql")


def test_criterion_7_skip_policy_fidelity(tmp_path):
    policy = SkipPolicy.default()
    assert policy.path_substrings == EXPECTED_PATH_SUBSTRINGS
    assert policy.extensions == EXPECTED_EXTENSIONS
    assert len(policy.extensions) == 14

    # one file per substring rule: a directory literally named after the fragment
    substring_targets = {}
    for i, fragment in enumerate(EXPECTED_PATH_SUBSTRINGS):
        target = tmp_path / f"rule{i:02d}" / fragment / "victim.txt"
        target.parent.mkdir(parents=True)
        target.write_bytes(b"x" * 32)
        substring_targets[fragment] = target
    # one file per extension rule
    ext_targets = {}
    for ext in EXPECTED_EXTENSIONS:
        target = tmp_path / "exts" / f"sample.{ext}"
        target.parent.mkdir(exist_ok=True)
        target.write_bytes(b"y" * 32)
        ext_targets[ext] = target
    control = tmp_path / "control" / "innocent.txt"
    control.parent.mkdir()
    control.write_bytes(b"z" * 32)

    # each substring rule, in isolation, excludes its seeded target
    for fragment, target in substring_targets.items():
        solo = SkipPolicy((fragment,), ())
        assert solo.exclusion_reason(target), fragment
        assert solo.exclusion_reason(control) is None, fragment

    # each extension rule, in isolation, excludes exactly its one file
    for ext, target in ext_targets.items():
        solo = SkipPolicy((), (ext,))
        assert solo.exclusion_reason(target), ext
        others = [t for e, t in ext_targets.items() if e != ext]
        assert all(solo.exclusion_reason(t) is None for t in others), ext
        assert solo.exclusion_reason(control) is None

    # the full default policy excludes every seeded target and keeps the control
    plan = plan_traversal([tmp_path])
    assert plan == [control]


# --- 8. hybrid closure ------------------------------------------------------------------------


def test_criterion_8_hybrid_closure(tmp_path):
    pair = OperatorKeyPair.generate()
    rng = random.Random(888)
    for _ in range(1_000):
        key = SessionKey(rng.randbytes(32))
        assert unwrap_session_key(wrap_session_key(key, pair.public), pair.private) == key

    # an unwrapped key decrypts a corpus encrypted under the original
    corpus_key = generate_session_key(808)
    block = wrap_session_key(corpus_key, pair.public)
    root = tmp_path / "wrapped_corpus"
    files = {}
    for i in range(20):
        p = root / f"f{i:02d}.txt"
        p.parent.mkdir(exist_ok=True)
        content = random.Random(i).randbytes(500 + i * 37)
        p.write_bytes(content)
        files[p] = content
    emulate_infection(root, corpus_key, None, block, confirm_token=CONFIRM_TOKEN)

    recovered = unwrap_session_key(block, pair.private)
    assert recovered == corpus_key
    for p, content in files.items():
        assert decrypt_file(p, recovered).status is FileStatus.DECRYPTED
        assert p.read_bytes() == content


# --- 9. safety gates ----------------------------------------------------------------------------


def test_criterion_9_safety_gates(tmp_path):
    allow = tmp_path / "allowed"
    allow.mkdir()
    box = allow / "box"
    box.mkdir()
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "precious.txt").write_bytes(b"do not touch")
    escape_link = allow / "escape"
    escape_link.symlink_to(outside)

    key = generate_session_key(99)
    attempts = [
        dict(sandbox_root="/", confirm_token=CONFIRM_TOKEN, allow_roots=[allow]),
        dict(sandbox_root=Path.home(), confirm_token=CONFIRM_TOKEN,
             allow_roots=[Path.home().parent]),
        dict(sandbox_root=outside, confirm_token=CONFIRM_TOKEN, allow_roots=[allow]),
        dict(sandbox_root=allow, confirm_token=CONFIRM_TOKEN, allow_roots=[allow]),
        dict(sandbox_root=box / ".." / ".." / "outside", confirm_token=CONFIRM_TOKEN,
             allow_roots=[allow]),
        dict(sandbox_root=escape_link, confirm_token=CONFIRM_TOKEN, allow_roots=[allow]),
        dict(sandbox_root=box, confirm_token=None, allow_roots=[allow]),
        dict(sandbox_root=box, confirm_token="definitely", allow_roots=[allow]),
    ]
    refusals = 0
    for kwargs in attempts:
        with pytest.raises(SandboxViolation):
            ensure_sandbox(**kwargs)
        refusals += 1
    assert refusals == len(attempts)

    # refusal happens before any write
    snapshot = (outside / "precious.txt").read_bytes()
    with pytest.raises(SandboxViolation):
        emulate_infection(outside, key, None, BLOCK,
                          confirm_token=CONFIRM_TOKEN, allow_roots=[allow])
    assert (outside / "precious.txt").read_bytes() == snapshot

    # symlinked file inside a valid sandbox never reaches the encryptor
    (box / "inner.txt").write_bytes(b"inner")
    (box / "sneaky.txt").symlink_to(outside / "precious.txt")
    report = emulate_infection(box, key, None, BLOCK,
                               confirm_token=CONFIRM_TOKEN, allow_roots=[allow])
    assert report.encrypted == 1
    assert (outside / "precious.txt").read_bytes() == snapshot

    # the per-file gate also refuses direct writes outside the sandbox
    with pytest.raises(SandboxViolation):
        encrypt_file(outside / "precious.txt", key, BLOCK, sandbox_root=box)
    assert (outside / "precious.txt").read_bytes() == snapshot


# --- full pipeline closure (library invariant, not a numbered criterion) -----------------


def test_full_pipeline_closure(tmp_path):
    root = tmp_path / "estate"
    files = {}
    for i in range(30):
        p = root / f"d{i % 4}" / f"file{i:03d}.dat2"
        p.parent.mkdir(parents=True, exist_ok=True)
        content = random.Random(7000 + i).randbytes(100 + i * 211)
        p.write_bytes(content)
        files[p] = content
    keep_copy = next(iter(files.items()))

    key = generate_session_key(313)
    pair = OperatorKeyPair.generate()
    block = wrap_session_key(key, pair.public)
    report = emulate_infection(root, key, None, block, confirm_token=CONFIRM_TOKEN)
    assert report.encrypted == len(files)

    layout = random_dump_layout(313, container="minidump", n_decoys=3, total_bytes=4 << 20)
    layout.chains[0].key = key
    dump_path = tmp_path / "pipeline.dmp"
    write_synthetic_dump(layout, dump_path)

    original_copy = tmp_path / "original_copy.dat"
    original_copy.write_bytes(keep_copy[1])
    evidence = Evidence.from_original(keep_copy[0], original_copy)
    with load_dump(dump_path) as dump:
        result = recover_key(dump, evidence)
    assert result.outcome is RecoveryOutcome.FOUND

    for p, content in files.items():
        assert decrypt_file(p, result.key).status is FileStatus.DECRYPTED
        assert p.read_bytes() == content

    # the operator path recovers the same key from the victim block
    assert unwrap_session_key(block, pair.private) == key
