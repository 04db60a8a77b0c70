import json
import os
import random
import stat
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import avaddon_rescue.filecodec as filecodec_mod
from avaddon_rescue.cipher import encrypt_stream
from avaddon_rescue.cli import ExitCode, cli
from avaddon_rescue.emulator import CONFIRM_TOKEN, emulate_infection
from avaddon_rescue.errors import EvidenceError, SandboxViolation
from avaddon_rescue.filecodec import (
    FileStatus,
    decrypt_file,
    encrypt_file,
    walk_runs,
)
from avaddon_rescue.memscan import Evidence
from avaddon_rescue.trailer import (
    APPENDIX_LEN,
    ENCRYPTED_PREFIX_LIMIT,
    VictimBlock,
    build_trailer,
    classify,
    expected_body_length,
    TRAILER_LEN,
    parse_trailer,
    probe,
)
from conftest import deny_open, evidence_flags, make_tree, shrink_after_stat

BLOCK = VictimBlock.zeros()

SIZES = [0, 1, 15, 16, 8192, ENCRYPTED_PREFIX_LIMIT - 1, ENCRYPTED_PREFIX_LIMIT,
         ENCRYPTED_PREFIX_LIMIT + 1, 5 << 20]


def write_sample(path, size, seed=0):
    content = random.Random(seed).randbytes(size)
    path.write_bytes(content)
    return content


@pytest.mark.parametrize("size", SIZES)
def test_round_trip_identity(tmp_path, session_key, size):
    f = tmp_path / f"sample_{size}.bin"
    content = write_sample(f, size, seed=size)

    enc = encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    assert enc.status is FileStatus.ENCRYPTED
    assert enc.original_length == size
    assert f.stat().st_size == expected_body_length(size) + APPENDIX_LEN
    assert probe(f).trailer is not None
    if size:
        assert f.read_bytes()[: min(16, size)] != content[: min(16, size)]

    dec = decrypt_file(f, session_key)
    assert dec.status is FileStatus.DECRYPTED
    assert dec.original_length == size
    assert f.read_bytes() == content
    assert f.stat().st_size == size


def test_large_file_untouched_past_prefix(tmp_path, session_key):
    size = ENCRYPTED_PREFIX_LIMIT + 100
    f = tmp_path / "big.bin"
    content = write_sample(f, size, seed=3)

    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    after = f.read_bytes()
    assert len(after) == size + APPENDIX_LEN
    assert after[ENCRYPTED_PREFIX_LIMIT:size] == content[ENCRYPTED_PREFIX_LIMIT:]
    assert after[:16] != content[:16]

    decrypt_file(f, session_key)
    assert f.read_bytes() == content


def test_trailer_and_victim_block_layout(tmp_path, session_key):
    f = tmp_path / "sample.bin"
    write_sample(f, 20045, seed=9)
    block = VictimBlock(bytes([0xAB]) * 512)
    encrypt_file(f, session_key, block, sandbox_root=tmp_path)

    raw = f.read_bytes()
    assert len(raw) == 20048 + APPENDIX_LEN  # ceil16(20045) + 536
    assert raw[-24:] == build_trailer(20045)
    assert raw[-536:-24] == block.data
    assert parse_trailer(raw[-24:]).original_length == 20045


def test_empty_file_round_trip(tmp_path, session_key):
    f = tmp_path / "empty.bin"
    f.write_bytes(b"")
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    assert f.stat().st_size == APPENDIX_LEN
    assert probe(f).trailer is not None
    dec = decrypt_file(f, session_key)
    assert dec.status is FileStatus.DECRYPTED
    assert f.read_bytes() == b""


def test_encrypt_refuses_reencryption(tmp_path, session_key):
    f = tmp_path / "once.bin"
    write_sample(f, 1000, seed=5)
    assert encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path).status is FileStatus.ENCRYPTED
    first = f.read_bytes()
    again = encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    assert again.status is FileStatus.SKIPPED_INFECTED
    assert f.read_bytes() == first


def test_encrypt_refuses_outside_sandbox(tmp_path, session_key):
    inside = tmp_path / "box"
    inside.mkdir()
    outside = tmp_path / "victim.bin"
    write_sample(outside, 100)
    with pytest.raises(SandboxViolation):
        encrypt_file(outside, session_key, BLOCK, sandbox_root=inside)

    # symlink escape: path appears inside but resolves outside
    link = inside / "alias.bin"
    link.symlink_to(outside)
    with pytest.raises(SandboxViolation):
        encrypt_file(link, session_key, BLOCK, sandbox_root=inside)
    assert outside.read_bytes() == write_sample(outside, 100)  # untouched


def test_decrypt_skips_clean_file(tmp_path, session_key):
    f = tmp_path / "clean.bin"
    content = write_sample(f, 4096, seed=11)
    report = decrypt_file(f, session_key)
    assert report.status is FileStatus.SKIPPED_CLEAN
    assert f.read_bytes() == content


def test_decrypt_wrong_key_is_structural_only(tmp_path, session_key, other_key):
    # a whole number of blocks carries no pad bytes, so no padding can
    # prove the key wrong
    f = tmp_path / "sample.bin"
    content = write_sample(f, 4096, seed=13)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    report = decrypt_file(f, other_key)
    assert report.status is FileStatus.DECRYPTED
    assert report.detail == "no pad bytes to check"
    assert f.stat().st_size == 4096
    assert f.read_bytes() != content


def test_a_length_raised_inside_its_last_block_restores_with_zero_bytes(tmp_path, session_key):
    """The format's known limit: a 127-byte file whose recorded length is
    raised to 128 still fits its one-block body, so it classifies as
    infected and has no pad bytes left to check. It restores as
    `decrypted` to the original plus one zero byte, which no check can
    tell from a real 128-byte file that ends in 0x00."""
    f = tmp_path / "sample.bin"
    content = write_sample(f, 127, seed=17)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    data = bytearray(f.read_bytes())
    data[-TRAILER_LEN] ^= 0xFF  # the low byte of the recorded length: 0x7F becomes 0x80
    f.write_bytes(bytes(data))
    assert probe(f).trailer.original_length == 128
    report = decrypt_file(f, session_key)
    assert (report.status, report.original_length) == (FileStatus.DECRYPTED, 128)
    assert report.detail == "no pad bytes to check"
    assert f.read_bytes() == content + b"\x00"


def test_decrypt_corrupt_trailer_variants(tmp_path, session_key):
    body = bytes(32)
    # magics fine, recorded length inconsistent with body
    f_bad_len = tmp_path / "bad_len.bin"
    f_bad_len.write_bytes(body + bytes(512) + build_trailer(999))
    report = decrypt_file(f_bad_len, session_key)
    assert report.status is FileStatus.CORRUPT_TRAILER
    assert "inconsistent" in report.detail

    # one magic damaged
    trailer = bytearray(build_trailer(32))
    trailer[16] ^= 0xFF
    f_bad_magic = tmp_path / "bad_magic.bin"
    f_bad_magic.write_bytes(body + bytes(512) + bytes(trailer))
    report = decrypt_file(f_bad_magic, session_key)
    assert report.status is FileStatus.CORRUPT_TRAILER
    assert "magic" in report.detail

    # sources untouched either way
    assert f_bad_len.read_bytes()[:32] == body
    assert f_bad_magic.read_bytes()[:32] == body


@pytest.mark.parametrize("output", ["in_place", "out_dir_fd"])
def test_mode_and_times_survive_both_transforms(tmp_path, session_key, output):
    f = tmp_path / "sample.bin"
    content = write_sample(f, 3000, seed=29)
    f.chmod(0o640)
    times_ns = (1_500_000_000_123_456_789, 1_600_000_000_987_654_321)  # atime, mtime
    os.utime(f, ns=times_ns)

    assert encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path).status is FileStatus.ENCRYPTED
    if output == "in_place":
        assert decrypt_file(f, session_key).status is FileStatus.DECRYPTED
        out = f
    else:
        infected = f.read_bytes()
        os.utime(f, ns=times_ns)  # the read moved the atime
        (tmp_path / "out").mkdir()
        out_dir_fd = os.open(tmp_path / "out", os.O_RDONLY | os.O_DIRECTORY)
        try:
            report = decrypt_file(f, session_key, out_dir_fd=out_dir_fd)
        finally:
            os.close(out_dir_fd)
        assert report.status is FileStatus.DECRYPTED
        assert f.read_bytes() == infected  # the source is untouched
        out = tmp_path / "out" / "sample.bin"

    st = out.stat()  # before the read below moves the atime
    assert stat.S_IMODE(st.st_mode) == 0o640
    assert (st.st_atime_ns, st.st_mtime_ns) == times_ns
    assert out.read_bytes() == content


def test_restore_drops_setid_bits_when_the_owner_cannot_be_copied(tmp_path, session_key, monkeypatch):
    f = tmp_path / "tool"
    content = write_sample(f, 3000, seed=31)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    f.chmod(0o6755)

    def refuse(fd, uid, gid):
        raise PermissionError(1, "Operation not permitted")

    # what a restoring account that may not give files away sees
    monkeypatch.setattr(os, "fchown", refuse)
    assert decrypt_file(f, session_key).status is FileStatus.DECRYPTED
    assert stat.S_IMODE(f.stat().st_mode) == 0o755
    assert f.read_bytes() == content


def test_restore_takes_the_mode_of_the_bytes_it_read(tmp_path, session_key, monkeypatch):
    target, intruder = tmp_path / "target.txt", tmp_path / "intruder.txt"
    write_sample(target, 3000, seed=41)
    swapped_in = write_sample(intruder, 3000, seed=43)  # same size: only the mode tells
    for f, mode in ((target, 0o644), (intruder, 0o640)):
        encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
        f.chmod(mode)
    real_open = os.open

    def swapping_open(file, *args, **kwargs):
        # another infected file is renamed over the target just before the read
        if file == target and intruder.exists():
            os.rename(intruder, target)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", swapping_open)
    assert decrypt_file(target, session_key).status is FileStatus.DECRYPTED
    monkeypatch.undo()
    assert target.read_bytes() == swapped_in
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another account needs root")
def test_restore_keeps_owner_and_group(tmp_path, session_key):
    f = tmp_path / "tool"
    content = write_sample(f, 3000, seed=37)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    os.chown(f, 4242, 4343)
    f.chmod(0o4700)  # after the chown, which clears set-id bits

    assert decrypt_file(f, session_key).status is FileStatus.DECRYPTED
    st = f.stat()
    assert (st.st_uid, st.st_gid, stat.S_IMODE(st.st_mode)) == (4242, 4343, 0o4700)
    assert f.read_bytes() == content


@pytest.mark.parametrize("step", ["replace", "fchmod", "utime"])
def test_decrypt_failure_leaves_source(tmp_path, session_key, monkeypatch, step):
    f = tmp_path / "sample.bin"
    write_sample(f, 700, seed=19)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    infected = f.read_bytes()

    def boom(*args, **kwargs):
        raise OSError(f"simulated {step} failure")

    monkeypatch.setattr(os, step, boom)
    report = decrypt_file(f, session_key)
    assert report.status is FileStatus.IO_ERROR
    monkeypatch.undo()
    assert f.read_bytes() == infected
    assert list(tmp_path.glob("*avrescue-tmp*")) == []


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(size=st.one_of(st.integers(0, 3 << 20),
                      st.integers(0, (3 << 20) // 16).map(lambda blocks: 16 * blocks)))
@example(size=ENCRYPTED_PREFIX_LIMIT - 1)
@example(size=ENCRYPTED_PREFIX_LIMIT)
@example(size=ENCRYPTED_PREFIX_LIMIT + 1)
def test_layout_of_an_encrypted_file_is_what_decrypt_reads(tmp_path, session_key, size):
    f = tmp_path / "layout.bin"
    content = write_sample(f, size, seed=size)
    encrypted = encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    assert encrypted.status is FileStatus.ENCRYPTED
    infected = f.read_bytes()
    layout = classify(len(infected), infected[-TRAILER_LEN:]).trailer
    assert layout is not None and layout.original_length == size
    assert layout.body_length == len(infected) - APPENDIX_LEN
    assert layout.prefix_length == min(layout.body_length, ENCRYPTED_PREFIX_LIMIT)
    # the prefix is the ciphertext of the first 1 MiB at most; the rest is untouched
    first = content[:ENCRYPTED_PREFIX_LIMIT]
    assert infected[: layout.prefix_length] == encrypt_stream(session_key, first)
    assert infected[layout.prefix_length : layout.body_length] == content[len(first):]
    # a body 16 bytes off the recorded length is damaged
    for off in (-16, 16):
        if len(infected) + off >= APPENDIX_LEN:
            assert classify(len(infected) + off, infected[-TRAILER_LEN:]).damage

    reads = []

    def read_at(fd, n, offset):
        reads.append((offset, offset + n))
        return real_read_at(fd, n, offset)

    real_read_at = filecodec_mod.read_at
    with mock.patch.object(filecodec_mod, "read_at", read_at):
        row = decrypt_file(f, session_key)
    assert (row.status, row.bytes_processed) == (FileStatus.DECRYPTED, layout.prefix_length)
    assert f.read_bytes() == content
    # one read of the prefix, then the rest of the body in order, and not a byte past it
    assert reads[0] == (0, layout.prefix_length)
    assert [start for start, _ in reads[1:]] == [end for _, end in reads[:-1]]
    assert reads[-1][1] == layout.body_length


def test_restore_never_writes_through_a_planted_temp_link(tmp_path, session_key, monkeypatch):
    tree = tmp_path / "tree"
    tree.mkdir()
    f = tree / "doc.txt"
    content = write_sample(f, 3000, seed=41)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tree)
    victim = tmp_path / "victim.txt"
    victim.write_bytes(b"outside the evidence tree")
    # a link under the fixed temp name that a predictable writer would open
    (tree / "doc.txt.avrescue-tmp").symlink_to("../victim.txt")
    # and one under the name the writer draws first, which it must not open
    chosen = bytes.fromhex("0123456789ab")
    planted = tree / f".{chosen.hex()}.avrescue-tmp"
    planted.symlink_to("../victim.txt")
    draws = iter([chosen])
    real_urandom = os.urandom
    monkeypatch.setattr(os, "urandom", lambda n: next(draws, None) or real_urandom(n))

    assert decrypt_file(f, session_key).status is FileStatus.DECRYPTED
    assert next(draws, None) is None  # the planted name was drawn
    assert victim.read_bytes() == b"outside the evidence tree"
    assert not f.is_symlink()
    assert stat.S_ISREG(f.lstat().st_mode)
    assert f.read_bytes() == content
    assert planted.is_symlink()


@pytest.mark.parametrize("kind", ["missing_directory", "directory_at_path"])
def test_a_failed_write_names_the_path_given_not_its_temp(tmp_path, kind):
    path = tmp_path / "nodir" / "key.hex"
    if kind == "directory_at_path":  # the temp is made, and the rename fails
        path.mkdir(parents=True)
    with pytest.raises(OSError) as raised:
        filecodec_mod.replace_atomically(path, [b"key\n"])
    assert raised.value.filename == str(path)
    assert str(raised.value).endswith(f": '{path}'")
    assert list(tmp_path.rglob("*avrescue-tmp*")) == []


def test_probe_matches_reports(tmp_path, session_key):
    f = tmp_path / "sample.bin"
    write_sample(f, 1234, seed=23)
    encrypt_file(f, session_key, BLOCK, sandbox_root=tmp_path)
    trailer = probe(f).trailer
    assert trailer is not None and trailer.original_length == 1234


# --- no descriptor outlives a call ------------------------------------------------

FD_DIR = Path("/proc/self/fd")
KINDS = ["clean", "short", "damaged", "infected"]


def make_kind(tmp_path, key, kind):
    """One file of `kind`: clean, too short to be infected, damaged trailer, or infected."""
    f = tmp_path / f"{kind}.bin"
    write_sample(f, APPENDIX_LEN - 1 if kind == "short" else 3000, seed=51)
    if kind in ("damaged", "infected"):
        encrypt_file(f, key, BLOCK, sandbox_root=tmp_path)
    if kind == "damaged":
        raw = bytearray(f.read_bytes())
        raw[-TRAILER_LEN + 16] ^= 0xFF  # first byte of magic_b
        f.write_bytes(bytes(raw))
    return f


def assert_closes_what_it_opens(call):
    """`call()`, or the `EvidenceError` it raised, after checking that it
    left as many descriptors open as it found."""
    before = len(os.listdir(FD_DIR))
    try:
        result = call()
    except EvidenceError as exc:
        result = exc
    assert len(os.listdir(FD_DIR)) == before
    return result


def fail(monkeypatch, name):
    def boom(*args, **kwargs):
        raise OSError(f"simulated {name} failure")

    monkeypatch.setattr(os, name, boom)


needs_fd_dir = pytest.mark.skipif(not FD_DIR.is_dir(), reason="needs /proc/self/fd")


@needs_fd_dir
@pytest.mark.parametrize("kind", KINDS)
def test_probe_closes_every_descriptor(tmp_path, session_key, kind):
    f = make_kind(tmp_path, session_key, kind)
    assert_closes_what_it_opens(lambda: probe(f))


@needs_fd_dir
@pytest.mark.parametrize("outcome, status", [
    ("clean", "skipped_clean"), ("short", "skipped_clean"), ("damaged", "corrupt_trailer"),
    ("infected", "decrypted"), ("wrong_key", "wrong_key"), ("denied", "io_error"),
    ("shrinks", "io_error"), ("write", "io_error"), ("utime", "io_error"), ("replace", "io_error"),
])
def test_decrypt_file_closes_every_descriptor(tmp_path, session_key, other_key, monkeypatch,
                                              outcome, status):
    f = make_kind(tmp_path, session_key, outcome if outcome in KINDS else "infected")
    key = other_key if outcome == "wrong_key" else session_key
    if outcome == "denied":
        deny_open(monkeypatch, f)
    elif outcome == "shrinks":
        shrink_after_stat(monkeypatch, f)
    elif status == "io_error":
        fail(monkeypatch, outcome)
    assert assert_closes_what_it_opens(lambda: decrypt_file(f, key)).status == status
    monkeypatch.undo()
    assert list(tmp_path.glob("*avrescue-tmp*")) == []


@needs_fd_dir
@pytest.mark.parametrize("outcome, status", [
    ("clean", "encrypted"), ("infected", "skipped_infected"), ("write", "io_error"),
])
def test_encrypt_file_closes_every_descriptor(tmp_path, session_key, monkeypatch, outcome,
                                              status):
    f = make_kind(tmp_path, session_key, "infected" if outcome == "infected" else "clean")
    if outcome == "write":
        fail(monkeypatch, "write")
    row = assert_closes_what_it_opens(lambda: encrypt_file(f, session_key, BLOCK,
                                                           sandbox_root=tmp_path))
    assert row.status == status


@needs_fd_dir
@pytest.mark.parametrize("kind", KINDS)
def test_evidence_challenge_closes_every_descriptor(tmp_path, session_key, kind):
    f = make_kind(tmp_path, session_key, kind)
    assert_closes_what_it_opens(lambda: Evidence.from_header_magics(f))


@needs_fd_dir
@pytest.mark.parametrize("command", ["detect", "decrypt"])
def test_tree_commands_close_every_descriptor(tmp_path, session_key, monkeypatch, command):
    # one descriptor per directory: 40 of them, one of which fails to open
    tree = tmp_path / "tree"
    make_tree(tree, {f"d{i:02d}/f{j}.txt": f"file {i}.{j} ".encode() * 60
                     for i in range(40) for j in range(2)})
    emulate_infection(tree, session_key, None, BLOCK, confirm_token=CONFIRM_TOKEN)
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    argv = [command, str(tree), "--json"]
    if command == "decrypt":
        argv += ["--key-file", str(key_file), *evidence_flags(tmp_path / "evidence", session_key)]
    real_open = os.open

    def flaky_open(file, flags, *args, **kwargs):
        if flags & os.O_DIRECTORY and os.fspath(file).endswith("d07"):
            raise PermissionError(13, "simulated denial", os.fspath(file))
        return real_open(file, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", flaky_open)
    result = assert_closes_what_it_opens(lambda: CliRunner().invoke(cli, argv))
    monkeypatch.undo()
    assert result.exit_code == ExitCode.PARTIAL_FAILURE, result.output
    rows = json.loads(result.stdout)["rows"]
    failed = {Path(r["path"]).relative_to(tree).as_posix() for r in rows
              if r["status"] == "io_error"}
    assert failed == {"d07/f0.txt", "d07/f1.txt"}
    assert len(rows) == 80


def test_walk_leaves_out_every_name_of_the_skipped_file(tmp_path):
    tree = tmp_path / "tree"
    make_tree(tree, {"a.txt": b"a", "report.json": b"{}", "sub/b.txt": b"b"})
    os.link(tree / "report.json", tree / "sub" / "copy.json")
    st = os.stat(tree / "report.json")
    skip = {(st.st_dev, st.st_ino)}

    def walked(*roots):
        return [os.path.join(run.directory, name)
                for run in walk_runs(roots, skip) for name in run.names]

    assert walked(tree / "report.json") == []
    assert walked(tree / "sub" / "copy.json") == []
    assert walked(tree) == [str(tree / "a.txt"), str(tree / "sub" / "b.txt")]



def test_failed_is_true_for_exactly_the_failed_statuses():
    assert {status.value: status.failed for status in FileStatus} == {
        "infected": False, "clean": False, "decrypted": False, "encrypted": False,
        "skipped_clean": False, "skipped_infected": False,
        "corrupt_trailer": True, "wrong_key": True, "other_session": True, "io_error": True,
    }
