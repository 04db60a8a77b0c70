"""Seeded incident estates: an infected file tree, a process dump and evidence.

One estate is what an operator finds on an incident: a tree of files the
ransomware encrypted (plus files it skipped), a memory dump of the paused
process, and one original file that survived elsewhere (the known-plaintext
evidence). Everything derives from the workload and the seed.

Layout under the estate root:

    infected/        pristine infected tree (never handed to the program)
    tree/            working copy, hard links into infected/, one per pass
    dump/process.dmp 64-bit multi-range minidump holding the session key
    evidence/        the original copy of one infected file
    truth/           ground truth: sha256 and mode of every file, the key

Run as a script it builds one estate and prints its set-up time as JSON, so
the measuring process never holds set-up memory:

    python3 bench/estate.py --workload estate-small --seed 1 --root DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
KIB = 1 << 10
MIB = 1 << 20

#: Share of infected files that get mode 0640 after infection, so that a
#: restore which resets permissions shows up in the mode check.
MODE_0640_SHARE = 0.25

#: Extensions the emulator encrypts; the excluded ones come from its policy.
DOC_EXTENSIONS = ("docx", "xlsx", "pdf", "jpg", "png", "txt", "csv", "zip")
CLEAN_EXTENSIONS = ("dll", "ini", "sys", "exe", "dat", "lnk")
#: Directories the emulator's path whitelist skips; short clean files live here.
SKIPPED_DIRS = ("AppData", "ProgramData")


@dataclass(frozen=True)
class Workload:
    """Shape of one estate: file counts and the dump."""

    infected: int  # 1-64 KiB each
    clean_excluded: int  # clean by extension, 1-64 KiB
    clean_short: int  # clean because shorter than the 536-byte appendix
    dump_mib: int
    decoys: int


WORKLOADS: dict[str, Workload] = {
    "estate-small": Workload(4000, 200, 200, dump_mib=64, decoys=3),
    "dump-decoys": Workload(2000, 100, 100, dump_mib=32, decoys=200),
}


def import_package():
    """Import the package from this checkout's sources, never from elsewhere."""
    src = CHECKOUT / "src"
    if not (src / "avaddon_rescue" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import avaddon_rescue

    if Path(avaddon_rescue.__file__).resolve().parent != (src / "avaddon_rescue").resolve():
        raise SystemExit(f"error: imported {avaddon_rescue.__file__}, not the checkout's copy")
    return avaddon_rescue


def _sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes in [lo, hi], one from each of `count` equal strata, in
    random order, so the total bytes barely move from seed to seed."""
    sizes = [lo + int((hi - lo) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _plan_corpus(workload: Workload, rng: random.Random) -> list[tuple[str, int, bool]]:
    """(relative path, size, expected infected) for every file of the tree."""
    plan = []

    def place(size: int, ext: str, infected: bool, skipped_dir: bool = False) -> None:
        parts = [f"u{rng.randrange(8)}"]
        if skipped_dir:
            parts.append(rng.choice(SKIPPED_DIRS))
        else:
            parts.append(f"d{rng.randrange(12)}")
            if rng.random() < 0.5:
                parts.append(f"s{rng.randrange(4)}")
        prefix = "f" if infected else "c"
        parts.append(f"{prefix}{len(plan):05d}.{ext}")
        plan.append(("/".join(parts), size, infected))

    for size in _sizes(rng, workload.infected, KIB, 64 * KIB):
        place(size, rng.choice(DOC_EXTENSIONS), True)
    for size in _sizes(rng, workload.clean_excluded, KIB, 64 * KIB):
        place(size, rng.choice(CLEAN_EXTENSIONS), False)
    for size in _sizes(rng, workload.clean_short, 1, 535):
        place(size, rng.choice(DOC_EXTENSIONS), False, skipped_dir=True)
    return plan


def _write_dump(pkg_emulator, workload: Workload, seed: int, key, dump_path: Path, truth: Path) -> None:
    """A 64-bit minidump of at least two ranges, random fill, planted key.

    The recovery work must not depend on the seed: exactly half the decoys
    (rounded down) carry a readable wrong key, which fixes the number of
    keyed candidates, and the key handle and its cell sit in the lowest
    range, which fixes how far the chain search reads for the true key.
    Each decoy still costs a full pass.
    """
    for sub in range(1000):
        layout = pkg_emulator.random_dump_layout(
            seed * 1000 + sub,
            pointer_width=8,
            container="minidump",
            n_decoys=workload.decoys,
            total_bytes=workload.dump_mib * MIB,
            fill="random",
            minidump_list="memory64",
        )
        keyed = [d for d in layout.decoys if d.kind == "wrong_key"]
        first_va, first_len = min(layout.ranges)
        chain = layout.chains[0]
        chain_in_first = all(
            first_va <= va < first_va + first_len for va in (chain.magic_s_va, chain.hcryptkey_va)
        )
        if len(layout.ranges) >= 2 and len(keyed) >= workload.decoys // 2 and chain_in_first:
            for decoy in keyed[workload.decoys // 2 :]:
                decoy.kind, decoy.key_va = "bad_pointer", None
            break
    else:
        raise RuntimeError("no dump layout with the wanted shape")
    layout.chains[0].key = key
    pkg_emulator.write_synthetic_dump(layout, dump_path)
    # the ground-truth manifest must not sit where the program looks
    Path(str(dump_path) + ".manifest.json").replace(truth / "dump.manifest.json")


def build(workload_name: str, seed: int, root: Path) -> None:
    """Build one estate under `root`, which must not exist yet."""
    import_package()
    from avaddon_rescue import emulator

    workload = WORKLOADS[workload_name]
    infected_root = root / "infected"
    truth = root / "truth"
    for d in (infected_root, truth, root / "dump", root / "evidence"):
        d.mkdir(parents=True)

    rng = random.Random(f"{workload_name}:{seed}")
    plan = _plan_corpus(workload, rng)
    files: dict[str, dict] = {}
    for rel, size, expect_infected in plan:
        data = rng.randbytes(size)
        path = infected_root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        files[rel] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "size": size,
            "infected": expect_infected,
        }

    infected = sorted(rel for rel, meta in files.items() if meta["infected"])
    evidence_rel = rng.choice(infected)
    evidence_original = root / "evidence" / "original.bin"
    shutil.copyfile(infected_root / evidence_rel, evidence_original)

    key = emulator.generate_session_key(seed)
    block = emulator.wrap_session_key(key, emulator.OperatorKeyPair.generate().public)
    report = emulator.emulate_infection(
        infected_root,
        key,
        emulator.SkipPolicy.default(),
        block,
        confirm_token=emulator.CONFIRM_TOKEN,
        allow_roots=[root],
    )
    encrypted = sorted(
        os.path.relpath(row.path, infected_root)
        for row in report.rows
        if row.status.value == "encrypted"
    )
    if encrypted != infected:
        raise RuntimeError(
            f"emulation encrypted {len(encrypted)} files, expected {len(infected)}; "
            "does the checkout path contain a whitelisted fragment?"
        )

    for rel in rng.sample(infected, round(len(infected) * MODE_0640_SHARE)):
        os.chmod(infected_root / rel, 0o640)
    for rel in infected:
        files[rel]["infected_mode"] = os.stat(infected_root / rel).st_mode & 0o7777

    _write_dump(emulator, workload, seed, key, root / "dump" / "process.dmp", truth)

    ground_truth = {
        "workload": workload_name,
        "seed": seed,
        "key_hex": key.hex(),
        "evidence_encrypted": evidence_rel,
        "files": files,
    }
    (truth / "manifest.json").write_text(json.dumps(ground_truth))


def link_tree(root: Path) -> None:
    """Fresh working tree of hard links to the pristine infected files.

    The program restores by writing a temporary sibling and renaming it over
    the infected file, so the pristine inode behind each link stays intact;
    a restore that wrote through the link would fail the next pass's
    checks.
    """
    src = root / "infected"
    dst = root / "tree"
    if dst.exists():
        shutil.rmtree(dst)
    for dirpath, _dirnames, filenames in os.walk(src):
        out = dst / os.path.relpath(dirpath, src)
        out.mkdir(parents=True, exist_ok=True)
        for name in filenames:
            os.link(os.path.join(dirpath, name), out / name)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()
    os.umask(0o022)
    root = args.root.resolve()
    if root.exists():
        shutil.rmtree(root)
    started = time.perf_counter()
    build(args.workload, args.seed, root)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


if __name__ == "__main__":
    main()
