import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization

import avaddon_rescue
import avaddon_rescue.emulator as emulator_mod
import avaddon_rescue.trailer as trailer_mod
from avaddon_rescue.emulator import (
    CONFIRM_TOKEN,
    DEFAULT_EXCLUDED_EXTENSIONS,
    DEFAULT_PATH_SUBSTRINGS,
    Decoy,
    DumpLayoutSpec,
    OperatorKeyPair,
    PlantedChain,
    SkipPolicy,
    allowed_sandbox_roots,
    emulate_infection,
    ensure_sandbox,
    generate_session_key,
    plan_traversal,
    random_dump_layout,
    unwrap_session_key,
    wrap_session_key,
    write_synthetic_dump,
)
from avaddon_rescue.errors import LayoutSpecError, SandboxViolation, WrapError
from avaddon_rescue.filecodec import FileStatus, encrypt_file
from avaddon_rescue.memscan import default_map_path, load_dump
from avaddon_rescue.trailer import VICTIM_BLOCK_LEN, VictimBlock, probe
from conftest import PEAK_RSS_OF, make_tree


# --- skip policy -------------------------------------------------------------


def test_default_policy_lists():
    policy = SkipPolicy.default()
    assert policy.path_substrings == DEFAULT_PATH_SUBSTRINGS
    assert policy.extensions == DEFAULT_EXCLUDED_EXTENSIONS
    assert len(policy.extensions) == 14


def test_policy_substring_rule():
    policy = SkipPolicy.default()
    assert policy.exclusion_reason("/data/Tor Browser/profile/user.js")
    assert policy.exclusion_reason("/data/docs/letter.txt") is None
    # suppressed for priority folders
    assert (
        policy.exclusion_reason("/data/Tor Browser/user.js", check_substrings=False) is None
    )


def test_policy_extension_rule():
    policy = SkipPolicy.default()
    assert policy.exclusion_reason("/data/a.exe")
    assert policy.exclusion_reason("/data/a.EXE")  # case-insensitive
    assert policy.exclusion_reason("/data/a.txt") is None
    assert policy.exclusion_reason("/data/noext") is None
    assert policy.exclusion_reason("/data/archive.sql")


# --- traversal ---------------------------------------------------------------


def test_plan_traversal_order_and_exclusions(tmp_path):
    make_tree(
        tmp_path,
        {
            "b_dir/inner/file2.txt": b"2",
            "b_dir/file1.txt": b"1",
            "a_dir/file0.txt": b"0",
            "a_dir/skipme.exe": b"x",
            "Tor Browser/secret.txt": b"s",
            "top.txt": b"t",
        },
    )
    plan = plan_traversal([tmp_path])
    rel = [str(p.relative_to(tmp_path)) for p in plan]
    assert rel == ["a_dir/file0.txt", "b_dir/file1.txt", "b_dir/inner/file2.txt", "top.txt"]
    # deterministic across runs
    assert plan == plan_traversal([tmp_path])


def test_plan_traversal_priority_bypasses_substrings(tmp_path):
    make_tree(
        tmp_path,
        {
            "dbs/Windows/db1.db": b"d",
            "other/plain.txt": b"p",
        },
    )
    # as a normal root the "Windows" fragment excludes the file
    assert plan_traversal([tmp_path / "dbs"]) == []
    # as a priority path the substring check is suppressed
    plan = plan_traversal([tmp_path / "other"], priority_paths=[tmp_path / "dbs"])
    rel = [str(p.relative_to(tmp_path)) for p in plan]
    assert rel == ["dbs/Windows/db1.db", "other/plain.txt"]


def test_plan_traversal_keeps_the_priority_order_given(tmp_path):
    make_tree(tmp_path, {"a/first.txt": b"a", "b/second.txt": b"b", "c/third.txt": b"c"})
    plan = plan_traversal([tmp_path], priority_paths=[tmp_path / "c", tmp_path / "a"])
    rel = [str(p.relative_to(tmp_path)) for p in plan]
    assert rel == ["c/third.txt", "a/first.txt", "b/second.txt"]


def test_plan_traversal_priority_still_checks_extensions(tmp_path):
    make_tree(tmp_path, {"pri/data.mdf": b"m", "pri/data.db": b"d"})
    plan = plan_traversal([], priority_paths=[tmp_path / "pri"])
    assert [p.name for p in plan] == ["data.db"]


def test_plan_traversal_skips_symlinks(tmp_path):
    outside = tmp_path / "outside"
    box = tmp_path / "box"
    make_tree(outside, {"target.txt": b"t"})
    make_tree(box, {"real.txt": b"r"})
    (box / "link.txt").symlink_to(outside / "target.txt")
    (box / "linkdir").symlink_to(outside)
    plan = plan_traversal([box])
    assert [p.name for p in plan] == ["real.txt"]


def test_plan_traversal_dedupes_priority_and_root(tmp_path):
    make_tree(tmp_path, {"pri/a.txt": b"a", "other.txt": b"o"})
    plan = plan_traversal([tmp_path], priority_paths=[tmp_path / "pri"])
    names = [p.name for p in plan]
    assert names == ["a.txt", "other.txt"]


def test_plan_traversal_walks_overlapping_priority_paths_in_the_order_given(tmp_path):
    make_tree(tmp_path, {"a/b.txt": b"b", "a/z/y.txt": b"y"})
    plan = plan_traversal([], priority_paths=[tmp_path / "a" / "z", tmp_path / "a"])
    assert [str(p.relative_to(tmp_path)) for p in plan] == ["a/z/y.txt", "a/b.txt"]


def test_plan_traversal_priority_link_into_the_root_plans_each_file_once(tmp_path):
    box = tmp_path / "box"
    make_tree(box, {"pri/a.txt": b"a", "pri/sub/b.txt": b"b", "other.txt": b"o"})
    link = tmp_path / "pri-link"
    link.symlink_to(box / "pri")
    plan = plan_traversal([box], priority_paths=[link])
    assert plan == [link / "a.txt", link / "sub" / "b.txt", box / "other.txt"]


def test_plan_traversal_resolves_each_walked_path_once_not_each_file(tmp_path, monkeypatch):
    make_tree(tmp_path, {f"d{i}/sub{j}/f{k}.txt": b"x"
                         for i in range(3) for j in range(4) for k in range(4)})
    calls = {"realpath": 0, "resolve": 0}
    real_realpath, real_resolve = os.path.realpath, Path.resolve

    def counting_realpath(*args, **kwargs):
        calls["realpath"] += 1
        return real_realpath(*args, **kwargs)

    def counting_resolve(*args, **kwargs):
        calls["resolve"] += 1
        return real_resolve(*args, **kwargs)

    monkeypatch.setattr(os.path, "realpath", counting_realpath)
    monkeypatch.setattr(Path, "resolve", counting_resolve)
    plan = plan_traversal([tmp_path], priority_paths=[tmp_path / "d1", tmp_path / "d2"])
    monkeypatch.undo()
    assert len(plan) == 48
    assert calls["realpath"] <= 3 and calls["resolve"] <= 3, calls


def test_plan_traversal_unreadable_dir_continues(tmp_path, monkeypatch):
    make_tree(tmp_path, {"ok/fine.txt": b"f", "bad/hidden.txt": b"h"})
    real_scandir = os.scandir

    def flaky_scandir(path):
        if str(path).endswith("bad"):
            raise PermissionError("simulated")
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", flaky_scandir)
    plan = plan_traversal([tmp_path])
    assert [p.name for p in plan] == ["fine.txt"]


# --- sandbox gates -----------------------------------------------------------


def test_gate_requires_token(tmp_path):
    with pytest.raises(SandboxViolation, match="token"):
        ensure_sandbox(tmp_path, confirm_token=None)
    with pytest.raises(SandboxViolation, match="token"):
        ensure_sandbox(tmp_path, confirm_token="yes")
    assert ensure_sandbox(tmp_path, confirm_token=CONFIRM_TOKEN) == tmp_path.resolve()


def test_gate_refuses_filesystem_root():
    with pytest.raises(SandboxViolation):
        ensure_sandbox("/", confirm_token=CONFIRM_TOKEN, allow_roots=["/"])


def test_gate_refuses_home():
    home = Path.home()
    with pytest.raises(SandboxViolation):
        ensure_sandbox(home, confirm_token=CONFIRM_TOKEN, allow_roots=[home.parent])


def test_gate_refuses_outside_allowlist(tmp_path):
    other = tmp_path / "other"
    box = tmp_path / "box"
    other.mkdir()
    box.mkdir()
    with pytest.raises(SandboxViolation):
        ensure_sandbox(box, confirm_token=CONFIRM_TOKEN, allow_roots=[other])


def test_gate_refuses_allow_root_itself(tmp_path):
    with pytest.raises(SandboxViolation):
        ensure_sandbox(tmp_path, confirm_token=CONFIRM_TOKEN, allow_roots=[tmp_path])


def test_gate_collapses_dotdot(tmp_path):
    box = tmp_path / "box"
    box.mkdir()
    sneaky = box / ".." / ".." / box.parent.name
    with pytest.raises(SandboxViolation):
        ensure_sandbox(sneaky, confirm_token=CONFIRM_TOKEN, allow_roots=[tmp_path])


def test_gate_resolves_symlink_escape(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    allow = tmp_path / "allowed"
    allow.mkdir()
    link = allow / "boxlink"
    link.symlink_to(elsewhere)
    with pytest.raises(SandboxViolation):
        ensure_sandbox(link, confirm_token=CONFIRM_TOKEN, allow_roots=[allow])


def test_gate_missing_directory(tmp_path):
    with pytest.raises(SandboxViolation):
        ensure_sandbox(tmp_path / "ghost", confirm_token=CONFIRM_TOKEN)


def test_allowlist_env_override(tmp_path, monkeypatch):
    config = tmp_path / "allow.conf"
    config.write_text(f"# test allow-list\n{tmp_path / 'permitted'}\n")
    monkeypatch.setenv("AVADDON_RESCUE_SANDBOX_ALLOWLIST", str(config))
    roots = allowed_sandbox_roots()
    assert roots == [(tmp_path / "permitted").resolve()]


# --- hybrid wrap -------------------------------------------------------------


@pytest.fixture(scope="module")
def operator_pair():
    return OperatorKeyPair.generate()


def test_wrap_unwrap_round_trip(operator_pair, session_key):
    block = wrap_session_key(session_key, operator_pair.public)
    assert len(block.data) == VICTIM_BLOCK_LEN
    assert unwrap_session_key(block, operator_pair.private) == session_key


def test_wrap_output_always_512(operator_pair):
    for seed in range(5):
        block = wrap_session_key(generate_session_key(seed), operator_pair.public)
        assert len(block.data) == VICTIM_BLOCK_LEN


def test_tampered_block_fails_unwrap(operator_pair, session_key):
    block = wrap_session_key(session_key, operator_pair.public)
    tampered = bytearray(block.data)
    tampered[10] ^= 0x01
    with pytest.raises(WrapError):
        unwrap_session_key(VictimBlock(bytes(tampered)), operator_pair.private)


def test_wrap_refuses_oversized_ciphertext(session_key):
    class FakePublic:
        def encrypt(self, data, pad):
            return bytes(600)

    with pytest.raises(WrapError):
        wrap_session_key(session_key, FakePublic())


def test_operator_key_minimum_bits():
    with pytest.raises(WrapError):
        OperatorKeyPair.generate(1024)


def test_operator_key_pem_round_trip(operator_pair, session_key):
    pem = operator_pair.private_pem()
    restored = serialization.load_pem_private_key(pem, password=None)
    block = wrap_session_key(session_key, restored.public_key())
    assert unwrap_session_key(block, operator_pair.private) == session_key


# --- emulate_infection ---------------------------------------------------------


def test_emulate_counts_match_plan(tmp_path, session_key):
    files = {f"dir{i % 3}/f{i:03d}.txt": bytes([i % 256]) * (i * 7 % 990 + 10) for i in range(60)}
    files["skip/me.exe"] = b"binary"
    make_tree(tmp_path, files)
    plan = plan_traversal([tmp_path])
    report = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    assert report.planned == len(plan) == 60
    assert report.encrypted == 60
    assert report.errors == 0
    assert report.bytes_encrypted == sum(
        len(v) for k, v in files.items() if not k.endswith(".exe")
    )
    assert probe(tmp_path / "skip/me.exe").trailer is None
    for rel in files:
        if not rel.endswith(".exe"):
            assert probe(tmp_path / rel).trailer is not None


def test_emulate_rerun_encrypts_nothing(tmp_path, session_key):
    make_tree(tmp_path, {"a.txt": b"aaa" * 50, "b.txt": b"bbb" * 50})
    first = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    assert first.encrypted == 2
    snapshot = {p: p.read_bytes() for p in tmp_path.rglob("*.txt")}
    second = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    assert second.encrypted == 0
    assert second.skipped_infected == 2
    assert {p: p.read_bytes() for p in tmp_path.rglob("*.txt")} == snapshot


def test_emulate_pre_infected_file_is_a_skipped_row(tmp_path, session_key):
    make_tree(tmp_path, {"one.txt": b"abc" * 300, "two.txt": b"def" * 300})
    encrypt_file(tmp_path / "one.txt", session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    infected = (tmp_path / "one.txt").read_bytes()
    report = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    assert (report.planned, report.encrypted, report.skipped_infected) == (2, 1, 1)
    statuses = {os.path.basename(row.path): row.status for row in report.rows}
    assert statuses == {"one.txt": FileStatus.SKIPPED_INFECTED, "two.txt": FileStatus.ENCRYPTED}
    assert (tmp_path / "one.txt").read_bytes() == infected


def test_emulate_classifies_each_planned_file_once(tmp_path, session_key, monkeypatch):
    make_tree(
        tmp_path,
        {"a.txt": b"a" * 700, "sub/b.txt": b"b" * 40, "sub/c.txt": b"c" * 9000, "d.exe": b"d"},
    )
    encrypt_file(tmp_path / "sub/c.txt", session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    real_classify = trailer_mod.classify
    calls = []

    def counting_classify(size, tail):
        calls.append(size)
        return real_classify(size, tail)

    def no_probe(path):
        raise AssertionError(f"probe called for {path}")

    monkeypatch.setattr(trailer_mod, "classify", counting_classify)
    monkeypatch.setattr(trailer_mod, "probe", no_probe)
    report = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    assert report.planned == 3
    assert (report.encrypted, report.skipped_infected) == (2, 1)
    assert len(calls) == report.planned


def test_emulate_never_follows_a_link_swapped_in_at_a_planned_name(tmp_path, session_key,
                                                                    monkeypatch):
    """A planned file replaced by a link after the plan is an io_error row;
    the file the link leads to is encrypted once, under its own name."""
    make_tree(tmp_path, {"a.txt": b"a" * 700, "b.txt": b"b" * 700})
    real_plan = emulator_mod.plan_traversal

    def plan_then_swap(*args, **kwargs):
        plan = real_plan(*args, **kwargs)
        (tmp_path / "a.txt").unlink()
        (tmp_path / "a.txt").symlink_to("b.txt")
        return plan

    monkeypatch.setattr(emulator_mod, "plan_traversal", plan_then_swap)
    report = emulate_infection(
        tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    statuses = {os.path.basename(row.path): row.status for row in report.rows}
    assert statuses == {"a.txt": FileStatus.IO_ERROR, "b.txt": FileStatus.ENCRYPTED}
    assert "symbolic link" in report.rows[0].detail
    assert (tmp_path / "a.txt").is_symlink()
    assert probe(tmp_path / "b.txt").trailer.original_length == 700


def test_emulate_gate_refusal_touches_nothing(tmp_path, session_key):
    files = make_tree(tmp_path, {"a.txt": b"payload" * 10})
    with pytest.raises(SandboxViolation):
        emulate_infection(tmp_path, session_key, None, VictimBlock.zeros(), confirm_token=None)
    for path, content in files.items():
        assert path.read_bytes() == content


# --- synthetic dump generator ---------------------------------------------------


def test_dump_generator_manifest_and_load(tmp_path, session_key):
    for container in ("raw", "raw_with_map", "minidump"):
        spec = DumpLayoutSpec(
            ranges=[(0x100000, 0x40000), (0x200000, 0x40000)],
            chains=[
                PlantedChain(
                    key=session_key,
                    key_data_va=0x100100,
                    key_va=0x100200,
                    magic_s_va=0x200100,
                    hcryptkey_va=0x200200,
                )
            ],
            pointer_width=4,
            container=container,
            seed=1,
        )
        dump_path = tmp_path / f"gen_{container}.dmp"
        manifest = write_synthetic_dump(spec, dump_path)
        assert manifest["key_hex"] == session_key.hex()
        manifest_file = json.loads((tmp_path / f"gen_{container}.dmp.manifest.json").read_text())
        assert manifest_file == manifest

        with load_dump(dump_path, container if container != "raw" else "auto") as dump:
            # every manifest range translates exactly
            for row in manifest["ranges"]:
                assert dump.translate(row["va"]) == row["offset"]
                assert dump.translate(row["va"] + row["length"] - 1) == (
                    row["offset"] + row["length"] - 1
                )
            chain = manifest["chains"][0]
            assert dump.read_va(chain["key_va"], 32) == session_key.key_bytes
            raw = dump_path.read_bytes()
            assert raw[chain["key_file_offset"] : chain["key_file_offset"] + 32] == (
                session_key.key_bytes
            )


def test_dump_generator_minidump_range_table_round_trip(tmp_path, session_key):
    spec = DumpLayoutSpec(
        ranges=[(0x10000, 0x8000), (0x40000, 0x8000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x10100, key_va=0x10200)],
        container="minidump",
        minidump_list="memory32",
        seed=2,
    )
    dump_path = tmp_path / "self_read.dmp"
    manifest = write_synthetic_dump(spec, dump_path)
    with load_dump(dump_path, "minidump") as dump:
        loaded = [{"va": r.va, "length": r.length, "offset": r.offset} for r in dump.ranges]
    assert loaded == manifest["ranges"]


def test_dump_generator_self_check_catches_misplaced_range(tmp_path, session_key, monkeypatch):
    real_write = emulator_mod.write_minidump

    def swapping_write(ranges, *args, **kwargs):
        (va_a, data_a), (va_b, data_b) = ranges
        return real_write([(va_a, data_b), (va_b, data_a)], *args, **kwargs)

    monkeypatch.setattr(emulator_mod, "write_minidump", swapping_write)
    spec = DumpLayoutSpec(
        ranges=[(0x10000, 0x8000), (0x40000, 0x8000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x10100, key_va=0x10200)],
        container="minidump",
        seed=2,
    )
    dump_path = tmp_path / "misplaced.dmp"
    with pytest.raises(LayoutSpecError, match="self-check"):
        write_synthetic_dump(spec, dump_path)
    assert not dump_path.exists()


@pytest.mark.parametrize("pointer_width", [4, 8])
def test_dump_generator_self_check_catches_the_other_pointer_width(tmp_path, session_key,
                                                                  monkeypatch, pointer_width):
    real_write = emulator_mod.write_minidump

    def other_width_write(ranges, width, *args, **kwargs):
        return real_write(ranges, 12 - width, *args, **kwargs)

    monkeypatch.setattr(emulator_mod, "write_minidump", other_width_write)
    spec = DumpLayoutSpec(
        ranges=[(0x10000, 0x8000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x10100, key_va=0x10200)],
        pointer_width=pointer_width,
        container="minidump",
        seed=2,
    )
    dump_path = tmp_path / "other_width.dmp"
    with pytest.raises(LayoutSpecError, match="self-check"):
        write_synthetic_dump(spec, dump_path)
    assert not dump_path.exists()


def test_dump_generator_rejects_collisions(tmp_path, session_key):
    for container in ("raw", "raw_with_map", "minidump"):
        spec = DumpLayoutSpec(
            ranges=[(0, 0x10000)],
            chains=[PlantedChain(key=session_key, key_data_va=0x1000, key_va=0x1008)],
            container=container,
        )
        dump_path = tmp_path / f"bad_{container}.dmp"
        with pytest.raises(LayoutSpecError, match="collide"):
            write_synthetic_dump(spec, dump_path)
        assert not dump_path.exists()
        assert not default_map_path(dump_path).exists()


@pytest.mark.parametrize("container", ["raw", "minidump"])
def test_dump_generator_failed_check_keeps_a_sidecar_it_did_not_write(tmp_path, session_key,
                                                                       container):
    dump_path = tmp_path / "bad.dmp"
    default_map_path(dump_path).write_text("[]")
    spec = DumpLayoutSpec(
        ranges=[(0, 0x10000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x1000, key_va=0x1008)],
        container=container,
    )
    with pytest.raises(LayoutSpecError, match="collide"):
        write_synthetic_dump(spec, dump_path)
    assert not dump_path.exists()
    assert default_map_path(dump_path).read_text() == "[]"


def test_dump_generator_rejects_stray_vas(tmp_path, session_key):
    spec = DumpLayoutSpec(
        ranges=[(0, 0x1000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x2000, key_va=0x100)],
    )
    with pytest.raises(LayoutSpecError, match="fit"):
        write_synthetic_dump(spec, tmp_path / "bad2.dmp")


def test_dump_generator_decoys_never_true_key(tmp_path, session_key):
    spec = DumpLayoutSpec(
        ranges=[(0, 0x10000)],
        chains=[PlantedChain(key=session_key, key_data_va=0x1000, key_va=0x2000)],
        decoys=[Decoy(kind="wrong_key", key_data_va=0x3000, key_va=0x4000)],
        seed=3,
    )
    dump_path = tmp_path / "decoyed.dmp"
    write_synthetic_dump(spec, dump_path)
    raw = dump_path.read_bytes()
    assert raw[0x4000:0x4020] != session_key.key_bytes


def _dump_files(dump_path: Path, container: str) -> list[Path]:
    """The files `write_synthetic_dump` writes for a dump at `dump_path`."""
    sidecar = [default_map_path(dump_path)] if container == "raw_with_map" else []
    return [dump_path, *sidecar, emulator_mod.manifest_path(dump_path)]


@pytest.mark.parametrize("container", ["raw", "raw_with_map", "minidump"])
def test_dump_files_replace_a_planted_link_and_are_private(tmp_path, container):
    dump_path = tmp_path / "planted.dmp"
    outside = tmp_path / "outside"
    outside.mkdir()
    targets = {}
    for path in _dump_files(dump_path, container):
        target = outside / path.name
        target.write_bytes(b"not to be written through " + path.name.encode())
        targets[target] = target.read_bytes()
        path.symlink_to(target)
    old_umask = os.umask(0o022)
    try:
        write_synthetic_dump(random_dump_layout(4, container=container, n_decoys=2,
                                                total_bytes=1 << 20), dump_path)
    finally:
        os.umask(old_umask)
    for path in _dump_files(dump_path, container):
        st = path.lstat()
        assert stat.S_ISREG(st.st_mode), f"{path.name} is still a link"
        assert stat.S_IMODE(st.st_mode) == 0o600, f"{path.name} is {oct(st.st_mode)}"
    for target, before in targets.items():
        assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".avrescue-tmp")] == []


# sha256 of (dump, sidecar, manifest), taken before the dump was written in chunks
@pytest.mark.parametrize("seed, container, pointer_width, digests", [
    (1, "raw", 4, ["50ed821b9ba1559745dbc3992ccb2956e97e2e784108ef19d5a744c646d8538b", None,
                   "206db781c8e882b66f317ff7df192703fcad0a1767570db8cfabfca7a39fa3fa"]),
    (2, "raw", 8, ["b77b00214e72e128f07c28bec1a3a5e0b2cc81558c792824e67c1df293dd8b85", None,
                   "f47b22eaef55dad4a0bb01722c10b3b9118d7fc90b2ef2c8881f90cab5f1ee1f"]),
    (7, "raw_with_map", 4, ["36b34c545fef76bc26d794bf5d49e837f1ba66bb949cfda9aa2e264bf295ca3e",
                            "58f1e0242c449d9f628af7a5e90a995112ef37f9d484b17a3d348f4eec915753",
                            "552d02266c7308db5398b79825a36ed5215a316ebbeeb694965b99154ce6cf43"]),
    (5, "raw_with_map", 8, ["c56c49344e3e58755c587c439922f409f0cf08a3e130bda1f4cde1ecfd462299",
                            "3c4780971dbfdfe731ae3fd105b4ca302a61c916360425f13e4a7e824f82a675",
                            "e154f48157f99f6f3e846dc5d3962ee10318628b28f9287de9a5cd6d75da2116"]),
    (10, "minidump", 4, ["9a17c61bda7795537d3d19b6e64ef13ae21a2eabc884c810412f392828256b3e", None,
                         "3dec48f66e5aa9018f925401cdf54362376b616cd785d6b78a7f2cdfc73bc996"]),
    (23, "minidump", 8, ["362ec2f6dd1b31b6f32ac1bf256e89ee7fc38a5a0f258dd921beb71a81ea6a77", None,
                         "4ce378f713db4443cf9eced42666f2475e371a4f135bca32247221501f8d3d6d"]),
])
def test_dump_files_are_pinned_byte_for_byte(tmp_path, seed, container, pointer_width, digests):
    # raw and multi-range raw_with_map and minidump dumps, random and zero
    # fill, both minidump list kinds (memory64 for seed 10, memory32 for 23)
    dump_path = tmp_path / "pinned.dmp"
    write_synthetic_dump(random_dump_layout(seed, pointer_width=pointer_width, container=container,
                                            n_decoys=5, total_bytes=2 << 20), dump_path)
    found = [hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
             for path in (dump_path, default_map_path(dump_path),
                          emulator_mod.manifest_path(dump_path))]
    assert found == digests


def test_writing_a_minidump_holds_one_copy_of_it(tmp_path):
    """A 64 MiB three-range minidump is written from its range buffers:
    measured in a child, the write peaked at 283 MiB when each range was
    copied, joined and prefixed with the head, and at 140 MiB without."""
    script = ("import sys; from avaddon_rescue.emulator import random_dump_layout, "
              "write_synthetic_dump; write_synthetic_dump(random_dump_layout(5, pointer_width=8, "
              "container='minidump', n_decoys=3, total_bytes=64 << 20, fill='random'), sys.argv[1])")
    dump_path = tmp_path / "big.dmp"
    src = str(Path(avaddon_rescue.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    measured = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF, "-c", script, str(dump_path)],
        env={**os.environ, "PYTHONPATH": path}, stdout=subprocess.PIPE, check=True, timeout=120,
    )
    child = json.loads(measured.stdout)
    assert child["exit"] == 0
    with load_dump(dump_path, "minidump") as dump:
        assert len(dump.ranges) == 3
        assert sum(r.length for r in dump.ranges) == 64 << 20
    peak_mib = child["maxrss_kib"] / 1024
    assert peak_mib < 200, f"writing a 64 MiB minidump peaked at {peak_mib:.1f} MiB"


def test_random_layout_reproducible(tmp_path):
    a = random_dump_layout(99, container="minidump", n_decoys=3, total_bytes=1 << 20)
    b = random_dump_layout(99, container="minidump", n_decoys=3, total_bytes=1 << 20)
    assert a == b
    path_a, path_b = tmp_path / "a.dmp", tmp_path / "b.dmp"
    assert write_synthetic_dump(a, path_a) == write_synthetic_dump(b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_random_layout_respects_params():
    layout = random_dump_layout(5, pointer_width=8, container="raw", n_decoys=4,
                                total_bytes=1 << 20)
    assert layout.pointer_width == 8
    assert layout.container == "raw"
    assert len(layout.decoys) == 4
    assert layout.ranges == [(0, 1 << 20)]
