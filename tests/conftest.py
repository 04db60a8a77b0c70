import dataclasses
import os
import random
from pathlib import Path

import pytest

from avaddon_rescue.cipher import SessionKey
from avaddon_rescue.emulator import DumpLayoutSpec, generate_session_key
from avaddon_rescue.filecodec import encrypt_file
from avaddon_rescue.trailer import VictimBlock


@pytest.fixture
def session_key() -> SessionKey:
    return generate_session_key(1234)


@pytest.fixture
def other_key() -> SessionKey:
    return generate_session_key(9999)


#: Where a 64-bit process's heap sits, far above 4 GiB; its low 32 bits are 0
HIGH_VA_BASE = 0x7FF6_0000_0000


def moved_up(layout: DumpLayoutSpec) -> DumpLayoutSpec:
    """A copy of a 64-bit `layout` with every virtual address moved up by
    `HIGH_VA_BASE`: its ranges, its chains' structures and its decoys'. Not
    for a raw container, which maps its bytes from virtual address 0."""
    def up(va):
        return None if va is None else va + HIGH_VA_BASE

    return dataclasses.replace(
        layout,
        ranges=[(up(va), length) for va, length in layout.ranges],
        chains=[dataclasses.replace(c, key_data_va=up(c.key_data_va), key_va=up(c.key_va),
                                    magic_s_va=up(c.magic_s_va), hcryptkey_va=up(c.hcryptkey_va))
                for c in layout.chains],
        decoys=[dataclasses.replace(d, key_data_va=up(d.key_data_va), key_va=up(d.key_va))
                for d in layout.decoys],
    )


def make_tree(root: Path, files: dict[str, bytes]) -> dict[Path, bytes]:
    """Materialize {relative_path: content} under root; returns abs paths."""
    out = {}
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content)
        out[path] = content
    return out


def evidence_flags(where: Path, key: SessionKey, block: VictimBlock | None = None) -> list[str]:
    """The `decrypt` flags that prove `key` for the files of its session,
    those infected with `key` and `block` (default zeros): an infected copy
    of one file, made in the directory `where`, outside every walked tree,
    beside that file's original. Each call makes the pair anew."""
    where.mkdir(parents=True, exist_ok=True)
    encrypted, original = where / "evidence.txt", where / "evidence.orig"
    for path in (encrypted, original):
        path.write_bytes(b"known plaintext for verification " * 8)
    encrypt_file(encrypted, key, block or VictimBlock.zeros(), sandbox_root=where)
    return ["--evidence-encrypted", str(encrypted), "--evidence-original", str(original)]


def deny_open(monkeypatch, target: Path) -> None:
    """Make every `os.open` of `target`, by its path or by a name relative
    to a `dir_fd`, fail with EACCES; root ignores mode bits, so the denial
    is simulated."""
    real_open, real_stat = os.open, os.stat
    before = real_stat(target)

    def flaky_open(file, *args, dir_fd=None, **kwargs):
        try:
            st = real_stat(file, dir_fd=dir_fd, follow_symlinks=False)
        except OSError:
            st = None
        if st is not None and (st.st_dev, st.st_ino) == (before.st_dev, before.st_ino):
            raise PermissionError(13, "simulated denial", os.fspath(file))
        return real_open(file, *args, dir_fd=dir_fd, **kwargs)

    monkeypatch.setattr(os, "open", flaky_open)


def shrink_after_stat(monkeypatch, victim: Path) -> None:
    """Truncate `victim` to 0 bytes right after the first stat that sees it
    whole, as another process writing to it would."""
    before = victim.stat()
    for name in ("stat", "fstat"):
        real = getattr(os, name)

        def shrinking(*args, _real=real, **kwargs):
            st = _real(*args, **kwargs)
            if (st.st_dev, st.st_ino) == (before.st_dev, before.st_ino) and st.st_size:
                os.truncate(victim, 0)
            return st

        monkeypatch.setattr(os, name, shrinking)


# Linux carries a process's high-water mark across exec, so a child of this
# (large) test process would report this process's peak as its own. A bare
# interpreter spawns the command instead and reports its wait4 usage.
PEAK_RSS_OF = """
import json, os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"exit": os.waitstatus_to_exitcode(status), "maxrss_kib": usage.ru_maxrss}))
"""


def random_corpus(seed: int, n_files: int, min_size: int = 0, max_size: int = 4096) -> dict[str, bytes]:
    """Deterministic corpus spec: nested dirs, varied sizes."""
    rng = random.Random(seed)
    files = {}
    for i in range(n_files):
        depth = rng.randint(0, 3)
        parts = [f"d{rng.randint(0, 5)}" for _ in range(depth)]
        parts.append(f"file_{i:05d}.txt")
        files["/".join(parts)] = rng.randbytes(rng.randint(min_size, max_size))
    return files


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion at the end of a run."""
    lines = []
    for outcome in ("passed", "failed", "error", "xfailed", "xpassed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and "criterion" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, outcome in sorted(set(lines)):
            terminalreporter.write_line(f"{outcome:>8}  {name}")
