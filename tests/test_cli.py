import json
import logging
import os
import shutil
import stat
from pathlib import Path

import pytest
from click.testing import CliRunner

import avaddon_rescue.cli as cli_mod
import avaddon_rescue.trailer as trailer_mod
from avaddon_rescue.cli import ExitCode, cli
from avaddon_rescue.emulator import (
    CONFIRM_TOKEN,
    emulate_infection,
    generate_session_key,
    random_dump_layout,
    write_synthetic_dump,
)
from avaddon_rescue.filecodec import encrypt_file
from avaddon_rescue.strings import encode_string
from avaddon_rescue.trailer import TRAILER_LEN, VictimBlock, is_infected
from conftest import make_tree, random_corpus


@pytest.fixture
def runner():
    return CliRunner()


def build_infected_sandbox(root, key, n_files=6):
    files = {
        f"docs/file{i}.txt": (f"document {i} ".encode() * 50) for i in range(n_files - 1)
    }
    files["keep/readme.exe"] = b"excluded by extension"
    originals = make_tree(root, files)
    report = emulate_infection(root, key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN)
    return originals, report


@pytest.fixture
def infected_sandbox(tmp_path, session_key):
    root = tmp_path / "sandbox"
    root.mkdir()
    originals, report = build_infected_sandbox(root, session_key)
    return root, originals, report


@pytest.fixture
def evidence_files(tmp_path, session_key):
    original = tmp_path / "evidence_original.dat"
    content = b"known plaintext for verification " * 8
    original.write_bytes(content)
    encrypted = tmp_path / "evidence_encrypted.dat"
    encrypted.write_bytes(content)
    encrypt_file(encrypted, session_key, VictimBlock.zeros(), sandbox_root=tmp_path)
    return encrypted, original


@pytest.fixture
def session_dump(tmp_path, session_key):
    layout = random_dump_layout(11, container="minidump", n_decoys=2, total_bytes=2 << 20)
    layout.chains[0].key = session_key
    dump_path = tmp_path / "session.dmp"
    write_synthetic_dump(layout, dump_path)
    return dump_path


# --- detect ------------------------------------------------------------------


def test_detect_pristine_tree(runner, tmp_path):
    make_tree(tmp_path / "clean", {"a.txt": b"a" * 600, "b/c.txt": b"c" * 600})
    result = runner.invoke(cli, ["detect", str(tmp_path / "clean")])
    assert result.exit_code == ExitCode.NOTHING_INFECTED
    assert "0 infected" in result.output


def test_detect_infected_counts_match_emulator(runner, infected_sandbox):
    root, _originals, report = infected_sandbox
    result = runner.invoke(cli, ["detect", str(root), "--json"])
    assert result.exit_code == ExitCode.OK
    payload = json.loads(result.stdout)
    assert payload["schema_version"] == 1
    assert payload["command"] == "detect"
    assert payload["totals"]["infected"] == report.encrypted
    assert payload["totals"]["files_scanned"] == report.encrypted + 1  # plus the .exe
    infected_rows = [r for r in payload["rows"] if r["status"] == "infected"]
    assert len(infected_rows) == report.encrypted
    assert all("original_length" in r for r in infected_rows)


def test_detect_unreadable_file_partial_failure(runner, infected_sandbox, monkeypatch):
    root, _originals, _report = infected_sandbox
    real_probe = cli_mod.probe

    def flaky_probe(path):
        if path.name == "file0.txt":
            raise PermissionError("simulated denial")
        return real_probe(path)

    monkeypatch.setattr(cli_mod, "probe", flaky_probe)
    result = runner.invoke(cli, ["detect", str(root), "--json"])
    assert result.exit_code == ExitCode.PARTIAL_FAILURE
    payload = json.loads(result.stdout)
    assert any(r["status"] == "io_error" for r in payload["rows"])


def test_detect_report_to_file(runner, infected_sandbox, tmp_path):
    root, _o, _r = infected_sandbox
    out = tmp_path / "report.json"
    result = runner.invoke(cli, ["detect", str(root), "--out", str(out)])
    assert result.exit_code == ExitCode.OK
    payload = json.loads(out.read_text())
    assert payload["command"] == "detect"


def test_detect_unreadable_dir_is_logged(runner, infected_sandbox, monkeypatch, caplog):
    root, _originals, report = infected_sandbox
    real_scandir = os.scandir

    def flaky_scandir(path):
        if str(path).endswith("keep"):
            raise PermissionError("simulated")
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", flaky_scandir)
    with caplog.at_level(logging.WARNING):
        result = runner.invoke(cli, ["detect", str(root), "--json"])
    assert result.exit_code == ExitCode.OK
    payload = json.loads(result.stdout)
    assert [r["path"] for r in payload["rows"]] == sorted(
        str(p) for p in (root / "docs").iterdir()
    )
    assert payload["totals"]["infected"] == report.encrypted
    assert any(
        "cannot list" in r.getMessage() and str(root / "keep") in r.getMessage()
        for r in caplog.records
    )


def test_single_file_argument(runner, tmp_path, infected_sandbox, session_key):
    root, originals, _report = infected_sandbox
    target = root / "docs" / "file0.txt"
    untouched = root / "docs" / "file1.txt"
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    result = runner.invoke(cli, ["detect", str(target), "--json"])
    assert result.exit_code == ExitCode.OK
    assert json.loads(result.stdout)["rows"] == [
        {"path": str(target), "status": "infected", "original_length": len(originals[target])}
    ]

    result = runner.invoke(
        cli, ["decrypt", str(target), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    assert result.exit_code == ExitCode.OK, result.output
    assert json.loads(result.stdout)["totals"]["decrypted"] == 1
    assert target.read_bytes() == originals[target]
    assert is_infected(untouched)


def test_symlinks_never_reported_or_touched(runner, tmp_path, infected_sandbox, session_key):
    root, _originals, report = infected_sandbox
    outside = tmp_path / "outside"
    outside.mkdir()
    build_infected_sandbox(outside, session_key, n_files=3)
    outside_snapshot = {p: p.read_bytes() for p in outside.rglob("*") if p.is_file()}
    alias = root / "alias.txt"
    alias.symlink_to(outside / "docs" / "file0.txt")
    linked_dir = root / "linked_docs"
    linked_dir.symlink_to(outside / "docs", target_is_directory=True)
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    result = runner.invoke(cli, ["detect", str(root), "--json"])
    assert result.exit_code == ExitCode.OK
    payload = json.loads(result.stdout)
    assert payload["totals"]["files_scanned"] == report.encrypted + 1
    assert not any("alias" in r["path"] or "linked_docs" in r["path"] for r in payload["rows"])

    result = runner.invoke(
        cli, ["decrypt", str(root), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    assert result.exit_code == ExitCode.OK, result.output
    payload = json.loads(result.stdout)
    assert payload["totals"]["decrypted"] == report.encrypted
    assert not any("alias" in r["path"] or "linked_docs" in r["path"] for r in payload["rows"])
    assert alias.is_symlink() and linked_dir.is_symlink()
    assert {p: p.read_bytes() for p in outside.rglob("*") if p.is_file()} == outside_snapshot


def test_detect_nested_tree_rows_independent_of_walk_order(runner, tmp_path, session_key):
    # random_corpus nests files beside directories named d0..d5, so a walk
    # that lists a directory's files before its subdirectories and one that
    # interleaves them by name visit the files in different orders
    root = tmp_path / "nested"
    make_tree(root, random_corpus(5, 40, max_size=2048))
    report = emulate_infection(
        root, session_key, None, VictimBlock.zeros(), confirm_token=CONFIRM_TOKEN
    )
    make_tree(root, {"d0/clean.bin": b"c" * 700, "zz.exe": b"z" * 700})

    result = runner.invoke(cli, ["detect", str(root), "--json"])
    assert result.exit_code == ExitCode.OK
    payload = json.loads(result.stdout)

    listing = sorted(
        (Path(dirpath) / name for dirpath, _dirs, names in os.walk(root) for name in names),
        key=str,
    )
    expected = []
    for path in listing:
        trailer = cli_mod.probe(path)
        if trailer is None:
            expected.append({"path": str(path), "status": "clean"})
        else:
            expected.append(
                {"path": str(path), "status": "infected",
                 "original_length": trailer.original_length}
            )
    assert payload["rows"] == expected
    totals = payload["totals"]
    assert (totals["files_scanned"], totals["infected"], totals["failed"]) == (
        len(listing), report.encrypted, 0
    )


# --- strings -----------------------------------------------------------------


def test_strings_tsv_and_json(runner, tmp_path):
    batch = tmp_path / "batch.tsv"
    batch.write_text(
        f"s_path\t{encode_string(b'C:' + bytes([0x5C]) + b'Temp')}\n"
        f"s_bad\t!!!not-base64!!!\n"
    )
    result = runner.invoke(cli, ["strings", "--input", str(batch)])
    assert result.exit_code == ExitCode.OK
    assert "C:\\Temp" in result.stdout
    assert "invalid_base64" in result.stdout

    result = runner.invoke(cli, ["strings", "--input", str(batch), "--format", "json"])
    rows = json.loads(result.stdout)
    assert [r["status"] for r in rows] == ["ok", "invalid_base64"]
    assert rows[0]["plaintext"] == "C:\\Temp"


def test_strings_from_stdin(runner):
    result = runner.invoke(
        cli, ["strings", "--input", "-", "--format", "json"], input="id1\tAnshGSgwNQ==\n"
    )
    assert result.exit_code == ExitCode.OK
    rows = json.loads(result.stdout)
    assert rows[0]["plaintext"] == "C:\\Temp"


# --- emulate -----------------------------------------------------------------


def test_emulate_requires_confirmation(runner, tmp_path):
    box = tmp_path / "box"
    files = make_tree(box, {"a.txt": b"data" * 100})
    result = runner.invoke(cli, ["emulate", "--sandbox", str(box), "--seed", "1"])
    assert result.exit_code == ExitCode.GATE_REFUSAL
    for path, content in files.items():
        assert path.read_bytes() == content


def test_emulate_seeded_and_key_out(runner, tmp_path):
    box = tmp_path / "box"
    make_tree(box, {"a.txt": b"data" * 100, "b.txt": b"more" * 100})
    key_out = tmp_path / "key.hex"
    result = runner.invoke(
        cli,
        [
            "emulate", "--sandbox", str(box), "--seed", "42",
            "--i-understand-this-writes-files", "--key-out", str(key_out), "--json",
        ],
    )
    assert result.exit_code == ExitCode.OK, result.output
    payload = json.loads(result.stdout)
    assert payload["encrypted"] == 2
    assert is_infected(box / "a.txt")

    assert key_out.read_text().strip() == generate_session_key(42).hex()
    mode = stat.S_IMODE(os.stat(key_out).st_mode)
    assert mode == 0o600


def test_emulate_seeded_determinism(runner, tmp_path):
    content = {"a.txt": b"alpha" * 99, "sub/b.txt": b"beta" * 120}
    box1, box2 = tmp_path / "one", tmp_path / "two"
    make_tree(box1, content)
    make_tree(box2, content)
    for box in (box1, box2):
        result = runner.invoke(
            cli,
            ["emulate", "--sandbox", str(box), "--seed", "17",
             "--i-understand-this-writes-files"],
        )
        assert result.exit_code == ExitCode.OK, result.output
    for rel in content:
        one, two = (box1 / rel).read_bytes(), (box2 / rel).read_bytes()
        # ciphertext and trailer are seed-deterministic; the victim block is
        # a fresh randomized-padding wrap every run, by design
        assert one[:-536] == two[:-536]
        assert one[-24:] == two[-24:]


def test_emulate_dump_out_pipeline(runner, tmp_path, session_key):
    box = tmp_path / "box"
    make_tree(box, {"doc.txt": b"important words " * 64})
    original_bytes = (box / "doc.txt").read_bytes()
    dump_out = tmp_path / "emulated.dmp"
    result = runner.invoke(
        cli,
        [
            "emulate", "--sandbox", str(box), "--seed", "7",
            "--i-understand-this-writes-files", "--dump-out", str(dump_out),
        ],
    )
    assert result.exit_code == ExitCode.OK, result.output

    # the dump must yield the same key that encrypted the corpus
    evidence_orig = tmp_path / "orig_copy.dat"
    evidence_orig.write_bytes(original_bytes)
    result = runner.invoke(
        cli,
        [
            "decrypt", str(box), "--dump", str(dump_out),
            "--evidence-encrypted", str(box / "doc.txt"),
            "--evidence-original", str(evidence_orig),
        ],
    )
    assert result.exit_code == ExitCode.OK, result.output
    assert (box / "doc.txt").read_bytes() == original_bytes


# --- recover-key ----------------------------------------------------------------


def test_recover_key_found(runner, tmp_path, session_dump, evidence_files, session_key):
    encrypted, original = evidence_files
    key_out = tmp_path / "recovered.hex"
    result = runner.invoke(
        cli,
        [
            "recover-key", "--dump", str(session_dump),
            "--evidence-encrypted", str(encrypted),
            "--evidence-original", str(original),
            "--key-out", str(key_out), "--json",
        ],
    )
    assert result.exit_code == ExitCode.OK, result.output
    assert key_out.read_text().strip() == session_key.hex()
    assert stat.S_IMODE(os.stat(key_out).st_mode) == 0o600
    payload = json.loads(result.stdout)
    assert payload["key_recovery"]["outcome"] == "found"
    # key material withheld without --show-key
    assert payload["key_recovery"]["key_hex"] is None


def test_recover_key_show_key(runner, tmp_path, session_dump, evidence_files, session_key):
    encrypted, original = evidence_files
    result = runner.invoke(
        cli,
        [
            "recover-key", "--dump", str(session_dump),
            "--evidence-encrypted", str(encrypted),
            "--evidence-original", str(original),
            "--key-out", str(tmp_path / "k.hex"), "--show-key", "--json",
        ],
    )
    payload = json.loads(result.stdout)
    assert payload["key_recovery"]["key_hex"] == session_key.hex()


def test_recover_key_not_found(runner, tmp_path, evidence_files):
    encrypted, original = evidence_files
    blank = tmp_path / "blank.dmp"
    blank.write_bytes(bytes(1 << 16))
    result = runner.invoke(
        cli,
        [
            "recover-key", "--dump", str(blank), "--format", "raw",
            "--evidence-encrypted", str(encrypted),
            "--evidence-original", str(original),
            "--key-out", str(tmp_path / "k.hex"),
        ],
    )
    assert result.exit_code == ExitCode.KEY_NOT_FOUND
    assert not (tmp_path / "k.hex").exists()


def test_recover_key_ambiguous(runner, tmp_path, evidence_files, session_key, other_key, monkeypatch):
    encrypted, original = evidence_files
    layout = random_dump_layout(13, container="raw", n_decoys=0, total_bytes=1 << 20, n_chains=2)
    layout.chains[0].key = session_key
    layout.chains[1].key = other_key
    dump_path = tmp_path / "twokeys.dmp"
    write_synthetic_dump(layout, dump_path)

    import avaddon_rescue.memscan as memscan_mod

    monkeypatch.setattr(memscan_mod, "verify_candidate", lambda cand, ev: cand.key is not None)
    result = runner.invoke(
        cli,
        [
            "recover-key", "--dump", str(dump_path), "--format", "raw",
            "--evidence-encrypted", str(encrypted),
            "--evidence-original", str(original),
            "--key-out", str(tmp_path / "k.hex"),
        ],
    )
    assert result.exit_code == ExitCode.AMBIGUOUS_KEY
    assert not (tmp_path / "k.hex").exists()


def test_recover_key_requires_evidence(runner, tmp_path, session_dump, evidence_files):
    result = runner.invoke(cli, ["recover-key", "--dump", str(session_dump)])
    assert result.exit_code == 2  # usage error

    encrypted, original = evidence_files
    key_out = tmp_path / "k.hex"
    for alignment in ("0", "-4"):
        result = runner.invoke(
            cli,
            [
                "recover-key", "--dump", str(session_dump), "--alignment", alignment,
                "--evidence-encrypted", str(encrypted), "--evidence-original", str(original),
                "--key-out", str(key_out),
            ],
        )
        assert result.exit_code == 2, (alignment, result.output)
        assert not key_out.exists()


# --- decrypt ---------------------------------------------------------------------


def test_decrypt_with_key_file_round_trip(runner, tmp_path, infected_sandbox, session_key):
    root, originals, report = infected_sandbox
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    encrypted_file = next(p for p in originals if p.suffix == ".txt")
    original_copy = tmp_path / "orig.dat"
    original_copy.write_bytes(originals[encrypted_file])

    result = runner.invoke(
        cli,
        [
            "decrypt", str(root), "--key-file", str(key_file),
            "--evidence-encrypted", str(encrypted_file),
            "--evidence-original", str(original_copy), "--json",
        ],
    )
    assert result.exit_code == ExitCode.OK, result.output
    payload = json.loads(result.stdout)
    assert payload["totals"]["decrypted"] == report.encrypted
    assert payload["totals"]["failed"] == 0
    for path, content in originals.items():
        assert path.read_bytes() == content


def test_decrypt_wrong_key_gate_refusal(runner, tmp_path, infected_sandbox, other_key):
    root, originals, _report = infected_sandbox
    key_file = tmp_path / "wrong.hex"
    key_file.write_text(other_key.hex())
    encrypted_file = next(p for p in originals if p.suffix == ".txt")
    original_copy = tmp_path / "orig.dat"
    original_copy.write_bytes(originals[encrypted_file])
    infected_snapshot = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

    result = runner.invoke(
        cli,
        [
            "decrypt", str(root), "--key-file", str(key_file),
            "--evidence-encrypted", str(encrypted_file),
            "--evidence-original", str(original_copy),
        ],
    )
    assert result.exit_code == ExitCode.GATE_REFUSAL
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == infected_snapshot


def test_decrypt_no_verify_requires_key_file(runner, tmp_path, session_dump):
    result = runner.invoke(
        cli, ["decrypt", str(tmp_path), "--dump", str(session_dump), "--no-verify"]
    )
    assert result.exit_code == 2


def test_decrypt_requires_exactly_one_key_source(
    runner, tmp_path, infected_sandbox, session_key, session_dump, evidence_files
):
    (tmp_path / "f.txt").write_bytes(b"x")
    result = runner.invoke(cli, ["decrypt", str(tmp_path)])
    assert result.exit_code == 2

    # a worker count or scan step below 1 is a usage error, not a silent default
    root, originals, _report = infected_sandbox
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    encrypted, original = evidence_files
    from_key_file = ["--key-file", str(key_file), "--no-verify"]
    from_dump = ["--dump", str(session_dump), "--evidence-encrypted", str(encrypted),
                 "--evidence-original", str(original)]
    for extra in (
        [*from_key_file, "--jobs", "0"],
        [*from_key_file, "--jobs", "-2"],
        [*from_dump, "--alignment", "0"],
    ):
        result = runner.invoke(cli, ["decrypt", str(root), *extra])
        assert result.exit_code == 2, (extra, result.output)
        assert all(is_infected(p) for p in originals if p.suffix == ".txt")


def test_decrypt_nothing_infected(runner, tmp_path, session_key):
    make_tree(tmp_path / "clean", {"a.txt": b"clean" * 200})
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    out = tmp_path / "report.json"
    result = runner.invoke(
        cli,
        ["decrypt", str(tmp_path / "clean"), "--key-file", str(key_file), "--no-verify",
         "--out", str(out)],
    )
    assert result.exit_code == ExitCode.NOTHING_INFECTED
    payload = json.loads(out.read_text())
    assert payload["totals"]["infected"] == 0
    assert [r["status"] for r in payload["rows"]] == ["skipped_clean"]


def test_decrypt_jobs_invariance(runner, tmp_path, session_key):
    box1 = tmp_path / "one"
    box1.mkdir()
    originals, _ = build_infected_sandbox(box1, session_key, n_files=10)
    box2 = tmp_path / "two"
    shutil.copytree(box1, box2)

    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    payloads = []
    for box, jobs in ((box1, "1"), (box2, "8")):
        result = runner.invoke(
            cli,
            ["decrypt", str(box), "--key-file", str(key_file), "--no-verify",
             "--jobs", jobs, "--json"],
        )
        assert result.exit_code == ExitCode.OK, result.output
        payloads.append(json.loads(result.stdout))

    t1, t2 = (p["totals"] for p in payloads)
    for field in ("files_scanned", "infected", "decrypted", "failed", "bytes"):
        assert t1[field] == t2[field]
    statuses = [
        {os.path.relpath(r["path"], box): r["status"] for r in p["rows"]}
        for box, p in zip((box1, box2), payloads)
    ]
    assert statuses[0] == statuses[1]
    assert statuses[0] == {
        str(p.relative_to(box1)): "decrypted" if p.suffix == ".txt" else "skipped_clean"
        for p in originals
    }
    rel1 = {p.relative_to(box1): p.read_bytes() for p in box1.rglob("*") if p.is_file()}
    rel2 = {p.relative_to(box2): p.read_bytes() for p in box2.rglob("*") if p.is_file()}
    assert rel1 == rel2


def test_decrypt_partial_failure_exit_code(runner, tmp_path, session_key, monkeypatch):
    box = tmp_path / "box"
    box.mkdir()
    build_infected_sandbox(box, session_key, n_files=4)
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    from avaddon_rescue.filecodec import FileRecoveryReport, FileStatus
    real_decrypt = cli_mod.decrypt_file

    def flaky_decrypt(path, key, policy):
        if path.name == "file1.txt":
            return FileRecoveryReport(str(path), FileStatus.IO_ERROR, detail="simulated")
        return real_decrypt(path, key, policy)

    monkeypatch.setattr(cli_mod, "decrypt_file", flaky_decrypt)
    result = runner.invoke(
        cli, ["decrypt", str(box), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    assert result.exit_code == ExitCode.PARTIAL_FAILURE
    payload = json.loads(result.stdout)
    assert payload["totals"]["failed"] == 1
    assert payload["totals"]["wall_time"] >= 0


def test_decrypt_damaged_trailer_is_a_failed_row(runner, tmp_path, infected_sandbox, session_key):
    root, originals, report = infected_sandbox
    damaged = root / "docs" / "file0.txt"
    data = bytearray(damaged.read_bytes())
    data[-TRAILER_LEN + 8] ^= 0xFF  # first byte of magic_a
    damaged.write_bytes(bytes(data))
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    result = runner.invoke(
        cli, ["decrypt", str(root), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    assert result.exit_code == ExitCode.PARTIAL_FAILURE, result.output
    payload = json.loads(result.stdout)
    rows = {r["path"]: r for r in payload["rows"]}
    assert rows[str(damaged)]["status"] == "corrupt_trailer"
    assert "one magic damaged" in rows[str(damaged)]["detail"]
    assert payload["totals"]["failed"] == 1
    assert payload["totals"]["decrypted"] == report.encrypted - 1
    assert damaged.read_bytes() == bytes(data)
    for path, content in originals.items():
        if path != damaged:
            assert path.read_bytes() == content


def test_decrypt_unreadable_file_is_a_failed_row(
    runner, tmp_path, infected_sandbox, session_key, monkeypatch
):
    root, originals, report = infected_sandbox
    unreadable = root / "docs" / "file0.txt"
    snapshot = unreadable.read_bytes()
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    real_stat = os.stat

    # root ignores mode bits, so deny the stat itself
    def flaky_stat(path, *args, **kwargs):
        if str(path) == str(unreadable):
            raise PermissionError(13, "simulated denial", str(path))
        return real_stat(path, *args, **kwargs)

    monkeypatch.setattr(os, "stat", flaky_stat)
    result = runner.invoke(
        cli, ["decrypt", str(root), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    monkeypatch.undo()
    assert result.exit_code == ExitCode.PARTIAL_FAILURE, result.output
    payload = json.loads(result.stdout)
    rows = {r["path"]: r for r in payload["rows"]}
    assert rows[str(unreadable)]["status"] == "io_error"
    assert "simulated denial" in rows[str(unreadable)]["detail"]
    assert payload["totals"]["failed"] == 1
    assert payload["totals"]["decrypted"] == report.encrypted - 1
    assert unreadable.read_bytes() == snapshot
    for path, content in originals.items():
        if path != unreadable:
            assert path.read_bytes() == content


def test_decrypt_classifies_each_walked_file_once(
    runner, tmp_path, infected_sandbox, session_key, monkeypatch
):
    root, originals, report = infected_sandbox
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())
    real_classify = trailer_mod.classify
    classified = []

    def counting_classify(size, tail):
        classified.append(size)
        return real_classify(size, tail)

    def no_probe(path):
        raise AssertionError(f"decrypt probed {path}")

    monkeypatch.setattr(trailer_mod, "classify", counting_classify)
    monkeypatch.setattr(cli_mod, "probe", no_probe)
    result = runner.invoke(
        cli, ["decrypt", str(root), "--key-file", str(key_file), "--no-verify", "--json"]
    )
    assert result.exit_code == ExitCode.OK, result.output
    payload = json.loads(result.stdout)
    assert payload["totals"]["files_scanned"] == len(originals)
    assert payload["totals"]["decrypted"] == report.encrypted
    assert len(classified) == len(originals)


def test_decrypt_side_by_side_flag(runner, tmp_path, session_key):
    box = tmp_path / "box"
    box.mkdir()
    originals, _ = build_infected_sandbox(box, session_key, n_files=3)
    key_file = tmp_path / "key.hex"
    key_file.write_text(session_key.hex())

    result = runner.invoke(
        cli,
        ["decrypt", str(box), "--key-file", str(key_file), "--no-verify", "--side-by-side"],
    )
    assert result.exit_code == ExitCode.OK, result.output
    for path, content in originals.items():
        if path.suffix == ".txt":
            assert is_infected(path)  # source untouched
            sibling = path.with_name(path.name + ".decrypted")
            assert sibling.read_bytes() == content


def test_version_flag(runner):
    result = runner.invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert "avaddon-rescue" in result.output
