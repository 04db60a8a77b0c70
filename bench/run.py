"""Seeded incident benchmark: detect -> recover-key -> decrypt, in process.

One operator, one command at a time, from a single process (a closed
loop). Each pass plays the operator's session through the CLI entry point
with CLI defaults over a seeded estate (see `estate.py`):

    avaddon-rescue detect TREE --json --out detect.json
    avaddon-rescue recover-key --dump DUMP --evidence-encrypted E \
        --evidence-original O --key-out KEY --json --out recover.json
    avaddon-rescue decrypt TREE --key-file KEY --evidence-encrypted E \
        --evidence-original O --json --out decrypt.json

and `gate.py` checks every output. The estate is restored in place, so each
pass first re-infects it (a fresh tree of hard links to the pristine
infected files), outside the timed window.

    python3 bench/run.py --workload estate-small --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics (medians over the passes);
`--trace 1` alternates untraced and traced passes and prints per-layer
metrics from the spans, a `decrypt_file` thread sweep and the bare cipher
rate. The last line of stdout is the result as JSON; the lines before it
are the same figures for a human, with sample counts. All files go under
`.bench_work/` in the checkout and are removed at exit, except the span
file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

import estate
import gate
from spans import Recorder, self_time

WORK = estate.CHECKOUT / ".bench_work"
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: Passes per untraced run even when --seconds runs out first.
MIN_PASSES = 3
#: Passes start at least this far apart, so that a quick pass cannot pile
#: up the benchmark's own writes, which slow every later pass and run on a
#: small virtual machine.
PASS_SPACING_S = 2.0
#: Worker threads for the sweep; never more than the 2 cores of the box
#: the benchmark was tuned on.
SWEEP_JOBS = (1, 2)
MB = 1e6
#: Figures the table prints that BENCHMARK.json does not declare.
TABLE_ONLY_UNITS = {"detect_files_per_s": "files/s", "restore_mode_lost": "count"}


def run_cli(argv: list[str]) -> int:
    """Run one command through the package's entry point; its exit code."""
    from avaddon_rescue import cli

    saved = sys.argv
    sys.argv = ["avaddon-rescue", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # what the interpreter does with an uncaught error: the gate then
        # counts the failed command instead of the run dying
        traceback.print_exc()
        return 1
    finally:
        sys.argv = saved
    return 0


def setup(workload: str, seed: int, root: Path) -> float:
    """Build the estate in a child process; the child's own build time."""
    if root.exists():
        shutil.rmtree(root)
    done = subprocess.run(
        [sys.executable, str(Path(estate.__file__)), "--workload", workload,
         "--seed", str(seed), "--root", str(root)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: estate set-up failed ({done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Session:
    """The operator's three commands over one estate, with the gate."""

    def __init__(self, root: Path, truth: dict, tally: gate.Tally) -> None:
        self.root = root
        self.truth = truth
        self.tally = tally
        self.out = root / "out"
        self.out.mkdir(exist_ok=True)
        self.tree = root / "tree"
        self.evidence = [
            "--evidence-encrypted", str(self.tree / truth["evidence_encrypted"]),
            "--evidence-original", str(root / "evidence" / "original.bin"),
        ]
        infected = [m for m in truth["files"].values() if m["infected"]]
        self.n_files = len(truth["files"])
        self.n_infected = len(infected)
        self.restored_bytes = sum(m["size"] for m in infected)
        self.next_start = 0.0

    def play(self, recorder: Recorder | None = None) -> dict[str, float]:
        """One pass: re-infect, run the three commands timed, check all."""
        time.sleep(max(0.0, self.next_start - time.perf_counter()))
        self.next_start = time.perf_counter() + PASS_SPACING_S
        estate.link_tree(self.root)
        key_path = self.out / "session_key.hex"
        key_path.unlink(missing_ok=True)
        reports = {name: self.out / f"{name}.json" for name in ("detect", "recover", "decrypt")}
        for path in reports.values():
            path.unlink(missing_ok=True)
        commands = {
            "detect": ["detect", str(self.tree), "--json", "--out", str(reports["detect"])],
            "recover": ["recover-key", "--dump", str(self.root / "dump" / "process.dmp"),
                        *self.evidence, "--key-out", str(key_path),
                        "--json", "--out", str(reports["recover"])],
            "decrypt": ["decrypt", str(self.tree), "--key-file", str(key_path), *self.evidence,
                        "--json", "--out", str(reports["decrypt"])],
        }
        times, codes = {}, {}
        for name, argv in commands.items():
            started = time.perf_counter()
            if recorder is None:
                codes[name] = run_cli(argv)
            else:
                with recorder.span(f"cli.{name}"):
                    codes[name] = run_cli(argv)
            times[name] = time.perf_counter() - started
            if name == "detect":
                gate.check_detect(self.tally, codes[name], reports[name], self.tree, self.truth)
        gate.check_key(self.tally, codes["recover"], reports["recover"],
                       gate.read_key_file(key_path), self.truth)
        gate.check_decrypt(self.tally, codes["decrypt"], reports["decrypt"], self.truth)
        mode_lost = gate.check_tree(self.tally, self.tree, self.truth)
        return {
            "incident_s": sum(times.values()),
            "key_recovery_s": times["recover"],
            "detect_files_per_s": self.n_files / times["detect"],
            "restore_files_per_s": self.n_infected / times["decrypt"],
            "restore_mb_per_s": self.restored_bytes / MB / times["decrypt"],
            "restore_mode_lost": mode_lost,
            "restore_mode_kept_ratio": 1 - mode_lost / self.n_infected,
        }

    def self_check(self) -> list[str]:
        return gate.self_check(self.tree, self.truth, self.out / "recover.json")


def machine_facts(workdir: Path) -> dict[str, str]:
    facts = {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "click": metadata.version("click"),
        "fs": "unknown",
    }
    best = ""
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) > 2 and str(workdir).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, facts["fs"] = parts[1], parts[2]
    except OSError:
        pass
    return facts


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


# --- per-layer figures from one traced pass --------------------------------


def layer_metrics(spans: list) -> dict[str, float]:
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def count(name: str) -> int:
        return len(by_name.get(name, []))

    probes = by_name.get("probe", [])
    scans = by_name.get("scan_key_candidates", [])
    loads = by_name.get("load_dump", [])
    recover_ids = {s.span for s in by_name.get("cli.recover", [])}
    keyed = sum(s.attrs["keyed"] for s in scans)
    verified = sum(
        1 for s in by_name.get("verify_key", []) if s.parent in recover_ids and s.attrs["verified"]
    )
    mapped = sum(s.attrs["mapped_bytes"] for s in loads)
    out = {
        "trailer.probe_calls": len(probes),
        "trailer.probe_s": total("probe"),
        "trailer.infected_per_probe": sum(s.attrs["infected"] for s in probes) / max(len(probes), 1),
        "filecodec.decrypt_file_calls": count("decrypt_file"),
        "filecodec.decrypt_file_s": total("decrypt_file"),
        "memscan.load_dump_s": total("load_dump"),
        "minidump.ranges": sum(s.attrs["ranges"] for s in loads),
        "memscan.scan_s": total("scan_key_candidates"),
        "memscan.scan_mb_per_s": mapped / MB / total("scan_key_candidates") if scans else 0.0,
        "memscan.candidates": sum(s.attrs["candidates"] for s in scans),
        "memscan.keyed_candidates": keyed,
        "memscan.verify_calls": count("verify_key"),
        "memscan.verify_s": total("verify_key"),
        "memscan.verified_per_keyed": verified / keyed if keyed else 0.0,
        "memscan.confirm_calls": count("confirm_chain"),
        "memscan.confirm_s": total("confirm_chain"),
    }
    for command in ("detect", "recover", "decrypt"):
        name = "recover_key" if command == "recover" else command
        roots = by_name.get(f"cli.{command}", [])
        out[f"cli.{name}_s"] = sum(s.duration for s in roots)
        out[f"cli.{name}_self_s"] = sum(self_time(s, spans) for s in roots)
    out.update(_prefix_rate(by_name.get("decrypt_file", [])))
    return out


def _prefix_rate(calls: list) -> dict[str, float]:
    """decrypt_file MB/s over files of at most 1 MiB, which are all
    encrypted prefix, and the megabytes that rate rests on."""
    small = [c for c in calls if c.attrs["original_length"] and c.attrs["original_length"] <= 1 << 20]
    small_bytes = sum(c.attrs["original_length"] for c in small)
    small_time = sum(c.duration for c in small)
    return {
        "filecodec.prefix_mb_per_s": small_bytes / MB / small_time if small else 0.0,
        "filecodec.prefix_base_mb": small_bytes / MB,
    }


def cipher_rate(root: Path, truth: dict, key, rounds: int = 3) -> float:
    """decrypt_stream MB/s over the encrypted bodies of the <=1 MiB files,
    one buffer per file (at most 1 MiB), timing only the cipher; the
    median of `rounds` rounds after one warm-up call."""
    from avaddon_rescue.cipher import decrypt_stream
    from avaddon_rescue.trailer import ceil16

    bodies = [(root / "infected" / rel, ceil16(meta["size"]))
              for rel, meta in truth["files"].items()
              if meta["infected"] and meta["size"] <= 1 << 20]
    decrypt_stream(key, bytes(16))
    rates = []
    for _ in range(rounds):
        total_bytes, total_time = 0, 0.0
        for path, length in bodies:
            with open(path, "rb") as fh:
                body = fh.read(length)
            started = time.perf_counter()
            decrypt_stream(key, body)
            total_time += time.perf_counter() - started
            total_bytes += length
        rates.append(total_bytes / MB / total_time)
    return statistics.median(rates)


def sweep(session: Session, key, jobs: int) -> float:
    """decrypt_file over every infected file with `jobs` threads; files/s."""
    from avaddon_rescue.filecodec import decrypt_file

    estate.link_tree(session.root)
    paths = [session.tree / rel for rel, m in session.truth["files"].items() if m["infected"]]
    started = time.perf_counter()
    if jobs == 1:
        rows = [decrypt_file(p, key) for p in paths]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda p: decrypt_file(p, key), paths))
    elapsed = time.perf_counter() - started
    for row in rows:
        session.tally.check(row.status.value == "decrypted", f"sweep row {row.status.value}")
    gate.check_tree(session.tally, session.tree, session.truth)
    return len(paths) / elapsed


# --- the two kinds of run --------------------------------------------------


def untraced_run(args, root: Path, tally: gate.Tally) -> tuple[dict, list[str]]:
    setups = [setup(args.workload, args.seed, root) for _ in range(SETUPS)]
    truth = json.loads((root / "truth" / "manifest.json").read_text())
    session = Session(root, truth, tally)
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(session.play())
        if len(passes) == 1:
            missed = session.self_check()
    metrics = median_metrics(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {name: len(passes) for name in metrics}
    samples["setup_s"] = len(setups)
    samples["peak_rss_mib"] = 1
    spread = {name: (min(p[name] for p in passes), max(p[name] for p in passes))
              for name in passes[0]}
    spread["setup_s"] = (min(setups), max(setups))
    report = {"metrics": metrics, "samples": samples, "spread": spread}
    return report, missed


def traced_run(args, root: Path, tally: gate.Tally) -> tuple[dict, list[str]]:
    from avaddon_rescue import cli, memscan
    from avaddon_rescue.cipher import SessionKey

    setup(args.workload, args.seed, root)
    truth = json.loads((root / "truth" / "manifest.json").read_text())
    session = Session(root, truth, tally)
    recorder = Recorder(uuid.uuid4().hex)
    untraced, traced, layers = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        untraced.append(session.play()["incident_s"])
        if len(untraced) == 1:
            missed = session.self_check()
        first = len(recorder.spans)
        with recorder.attached(cli, memscan):
            traced.append(session.play(recorder)["incident_s"])
        layers.append(layer_metrics(recorder.spans[first:]))

    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    durations = sorted(
        s.duration * 1e3 for s in recorder.spans if s.name == "decrypt_file"
    )
    pct = statistics.quantiles(durations, n=100, method="inclusive")
    metrics["filecodec.decrypt_file_p50_ms"] = statistics.median(durations)
    metrics["filecodec.decrypt_file_p99_ms"] = pct[98]
    key = SessionKey.from_hex(truth["key_hex"])
    metrics["cipher.decrypt_stream_mb_per_s"] = cipher_rate(root, truth, key)
    metrics["filecodec.prefix_gap_ratio"] = (
        metrics["filecodec.prefix_mb_per_s"] / metrics["cipher.decrypt_stream_mb_per_s"]
    )
    rates: dict[int, list[float]] = {jobs: [] for jobs in SWEEP_JOBS}
    for _ in range(2):
        for jobs in SWEEP_JOBS:
            rates[jobs].append(sweep(session, key, jobs))
    for jobs, values in rates.items():
        metrics[f"filecodec.files_per_s.jobs{jobs}"] = statistics.median(values)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}-{recorder.trace_id}.jsonl"
    recorder.write(trace_file)
    samples = {name: len(layers) for name in metrics}
    samples["filecodec.decrypt_file_p50_ms"] = samples["filecodec.decrypt_file_p99_ms"] = len(durations)
    samples["cipher.decrypt_stream_mb_per_s"] = 3
    for jobs in SWEEP_JOBS:
        samples[f"filecodec.files_per_s.jobs{jobs}"] = len(rates[jobs])
    report = {"metrics": metrics, "samples": samples, "trace_file": str(trace_file)}
    return report, missed


def main() -> None:
    parser = argparse.ArgumentParser(description="Seeded incident benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(estate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    estate.import_package()
    # restored files get their mode from the umask; fix it so mode figures
    # do not depend on the caller's shell
    os.umask(0o022)
    spec = json.loads((estate.CHECKOUT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(TABLE_ONLY_UNITS)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    root = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tally = gate.Tally()
    try:
        run = traced_run if args.trace else untraced_run
        report, missed = run(args, root, tally)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    facts = machine_facts(WORK)
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if "trace_file" in report:
        print(f"# spans: {report['trace_file']}")
    for name, value in report["metrics"].items():
        extra = ""
        if "spread" in report and name in report["spread"]:
            lo, hi = report["spread"][name]
            extra = f"  min {lo:.6g}  max {hi:.6g}"
        print(f"{name:34s} {value:14.6g} {units[name]:8s} n={report['samples'].get(name, 1)}{extra}")
    if args.trace:
        m = report["metrics"]
        for part, whole in (("filecodec.decrypt_file_s", "cli.decrypt_s"),
                            ("memscan.confirm_s", "cli.recover_key_s"),
                            ("memscan.scan_s", "cli.recover_key_s")):
            print(f"# share: {part} / {whole} = {m[part] / m[whole]:.3f}")
        print(f"# chunk-pumping gap: filecodec.prefix_mb_per_s / cipher.decrypt_stream_mb_per_s"
              f" = {m['filecodec.prefix_gap_ratio']:.3f} on {m['filecodec.prefix_base_mb']:.1f} MB")
    ratio = tally.failed / tally.attempted
    print(f"{'failed_ops_ratio':34s} {ratio:14.6g} {'ratio':8s} "
          f"failed={tally.failed} attempted={tally.attempted}")
    for reason, n in sorted(tally.reasons.items()):
        print(f"# failure: {reason} x{n}")
    for what in missed:
        print(f"# self-check: the gate missed a {what}")

    result = {
        "correct": tally.failed == 0 and not missed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": report["metrics"][name], "unit": units[name]}
                    for name in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
