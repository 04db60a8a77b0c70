"""An incident model: over any sequence of restores, trailer damage and
re-runs, each file is only ever its original bytes or its infected bytes.

Two sessions infect a directory each, every session with its own key and
its own random 512-byte victim block. A restore runs `decrypt` through the
CLI with one session's key file and evidence, or its dump and evidence,
with one or two workers, in place or into a new directory.
"""

import json
import os
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from avaddon_rescue.cli import ExitCode, cli
from avaddon_rescue.emulator import (
    CONFIRM_TOKEN,
    emulate_infection,
    generate_session_key,
    random_dump_layout,
    write_synthetic_dump,
)
from avaddon_rescue.filecodec import FileStatus
from avaddon_rescue.trailer import TRAILER_LEN, VictimBlock, probe
from conftest import evidence_flags

SESSIONS = (1, 2)

#: Each session's files by their original size: under 536 bytes, with pad
#: bytes, a multiple of 16 (no pad bytes to check a key against), and in
#: session 2 one sparse file over 1 MiB (no pad bytes either). Session 1's
#: 0x37F bytes is the one size whose recorded length one flipped trailer
#: byte raises inside its last block (0x7F ^ 0xFF = 0x80), so that it
#: restores with one zero byte appended
SIZES = {
    1: {"tiny.txt": 100, "padded.txt": 1000, "odd.txt": 3001, "whole.txt": 4096,
        "blocks.txt": 8192, "raised.txt": 0x37F},
    2: {"tiny.txt": 200, "padded.txt": 2000, "odd.txt": 5003, "whole.txt": 4096,
        "blocks.txt": 16384, "sparse.txt": (1 << 20) + (64 << 10) + 5},
}
NAMES = sorted(f"s{s}/{name}" for s, names in SIZES.items() for name in names)


def original_bytes(rng: random.Random, size: int) -> bytes:
    """`size` random bytes; past 1 MiB, a hole of zeros between a random
    head and tail, as a sparse file reads."""
    if size <= 1 << 20:
        return rng.randbytes(size)
    return rng.randbytes(4096) + bytes(size - 8192) + rng.randbytes(4096)


@pytest.fixture
def incident(tmp_path):
    """The pristine infected tree `t`, the originals by name, and per
    session its key file, dump and evidence flags, all outside `t`."""
    rng = random.Random(28)
    tree = tmp_path / "t"
    originals, sessions = {}, {}
    for s in SESSIONS:
        key = generate_session_key(s)
        block = VictimBlock(rng.randbytes(512))
        for name, size in SIZES[s].items():
            path = tree / f"s{s}" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            originals[f"s{s}/{name}"] = data = original_bytes(rng, size)
            with open(path, "wb") as f:
                if size > 1 << 20:  # its hole is not written
                    f.truncate(size)
                    f.write(data[:4096])
                    f.seek(size - 4096)
                f.write(data[-4096:] if size > 1 << 20 else data)
        report = emulate_infection(tree / f"s{s}", key, None, block, confirm_token=CONFIRM_TOKEN)
        assert report.encrypted == len(SIZES[s])
        key_file = tmp_path / f"K{s}"
        key_file.write_text(key.hex())
        layout = random_dump_layout(s, container="minidump", n_decoys=2, total_bytes=1 << 20)
        layout.chains[0].key = key
        dump = tmp_path / f"D{s}.dmp"
        write_synthetic_dump(layout, dump)
        sessions[s] = (key_file, dump, evidence_flags(tmp_path / f"evidence{s}", key, block))
    return tree, originals, sessions


class IncidentModel(RuleBasedStateMachine):
    def __init__(self, incident):
        super().__init__()
        pristine, self.originals, self.sessions = incident
        self.work = Path(tempfile.mkdtemp(dir=pristine.parent))
        self.tree = self.work / "t"
        shutil.copytree(pristine, self.tree)
        # what each file may be: its original bytes, or its infected
        # bytes as the last damage left them, or, after damage that raised
        # its recorded length inside its last block, the original then
        # that many zero bytes: the format's known limit (README)
        self.infected = {name: (self.tree / name).read_bytes() for name in NAMES}
        self.raised: dict[str, bytes] = {}
        self.last = None
        self.runs = 0

    def teardown(self):
        shutil.rmtree(self.work)

    def decrypt(self, session, source, jobs, into):
        key_file, dump, evidence = self.sessions[session]
        argv = ["decrypt", str(self.tree), *evidence, "--jobs", jobs, "--json"]
        argv += ["--key-file", str(key_file)] if source == "key_file" else ["--dump", str(dump)]
        restored = self.tree
        if into:
            self.runs += 1
            target = self.work / f"into{self.runs}"
            argv += ["--into", str(target)]
            restored = target / Path(os.path.realpath(self.tree)).relative_to("/")
        result = CliRunner().invoke(cli, argv)
        rows = json.loads(result.stdout)["rows"]
        decrypted = [os.path.relpath(r["path"], self.tree) for r in rows
                     if r["status"] == "decrypted"]
        for name in decrypted:
            assert (restored / name).read_bytes() in (self.originals[name],
                                                      self.raised.get(name)), name
        if into:  # the new directory holds the restored files and nothing else
            assert sorted(str(p.relative_to(restored)) for p in restored.rglob("*")
                          if p.is_file()) == sorted(decrypted)
        # the exit code follows the rows
        if any(FileStatus(r["status"]).failed for r in rows):
            assert result.exit_code == ExitCode.PARTIAL_FAILURE, result.output
        elif all(r["original_length"] is None for r in rows):
            assert result.exit_code == ExitCode.NOTHING_INFECTED, result.output
        else:
            assert result.exit_code == ExitCode.OK, result.output

    @rule(session=st.sampled_from(SESSIONS), source=st.sampled_from(["key_file", "dump"]),
          jobs=st.sampled_from(["1", "2"]), into=st.booleans())
    def restore(self, session, source, jobs, into):
        self.last = (session, source, jobs, into)
        self.decrypt(*self.last)

    @precondition(lambda self: self.last is not None)
    @rule()
    def rerun(self):
        self.decrypt(*self.last)

    @rule(name=st.sampled_from(NAMES), at=st.integers(0, TRAILER_LEN - 1))
    def damage(self, name, at):
        """Flip one trailer byte of a file that is still infected."""
        path = self.tree / name
        if path.read_bytes() != self.infected[name]:
            return
        with open(path, "r+b") as f:
            f.seek(at - TRAILER_LEN, os.SEEK_END)
            flipped = f.read(1)[0] ^ 0xFF
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([flipped]))
        self.infected[name] = path.read_bytes()
        self.raised.pop(name, None)
        original = self.originals[name]
        if (trailer := probe(path).trailer) and trailer.original_length > len(original):
            self.raised[name] = original + bytes(trailer.original_length - len(original))

    @invariant()
    def each_file_is_its_original_or_its_infected_bytes(self):
        for name in NAMES:
            assert (self.tree / name).read_bytes() in (
                self.originals[name], self.infected[name], self.raised.get(name))

    @invariant()
    def no_temp_is_left(self):
        assert not list(self.work.rglob("*.avrescue-tmp"))


def test_a_length_raised_inside_its_last_block_is_a_state_the_model_allows(incident):
    """The sequence the random runs seldom draw: the damage that raises
    `raised.txt`'s recorded length from 0x37F to 0x380, then a restore and
    a re-run, with the invariants checked after each step."""
    state = IncidentModel(incident)
    try:
        steps = [lambda: state.damage("s1/raised.txt", 0),
                 lambda: state.restore(1, "key_file", "1", False), state.rerun]
        for step in steps:
            step()
            state.each_file_is_its_original_or_its_infected_bytes()
            state.no_temp_is_left()
        assert (state.tree / "s1/raised.txt").read_bytes() == state.originals["s1/raised.txt"] + b"\0"
    finally:
        state.teardown()


def test_a_file_is_only_ever_its_original_or_its_infected_bytes(incident):
    run_state_machine_as_test(
        lambda: IncidentModel(incident),
        settings=settings(derandomize=True, max_examples=60, stateful_step_count=10,
                          deadline=None, database=None),
    )
