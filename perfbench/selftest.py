"""Self-test of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

1. Every workload at tiny size, with ``--trace 0`` and ``--trace 1``:
   the last output line is the result object, every metric declared in
   ``BENCHMARK.json`` for that mode is printed with its declared unit, and
   the run is correct.
2. The output checks are not vacuous: one record file of a temporary
   dataset is corrupted where the served bytes and the reference part
   ways, and each workload must then report a non-zero error rate.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics_printed(failures: list[str]) -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--size", "tiny"], ROOT)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: last line is not JSON (exit {done.returncode})\n{done.stderr}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
            if got != want:
                failures.append(f"{label}: metrics/units differ from BENCHMARK.json: {got}")
            for name in want:
                if f"metric {name} = " not in done.stdout:
                    failures.append(f"{label}: metric {name} not printed by name")
            if done.returncode != 0 or not result.get("correct"):
                failures.append(f"{label}: exit {done.returncode}, correct={result.get('correct')}\n"
                                + "\n".join(line for line in lines if line.startswith("error")))
            print(f"{label}: exit {done.returncode}, {len(got)} metrics")


def corrupt_first_record(directory: Path) -> None:
    """Flip 64 bytes inside the first scan group of the first record file."""
    from repro.core.reader import PCRReader

    with PCRReader(directory, decode=False) as reader:
        name = reader.record_names[0]
        offset = reader.bytes_for_group(name, 1) // 2
    path = directory / name
    data = bytearray(path.read_bytes())
    for index in range(offset, offset + 64):
        data[index] ^= 0xFF
    path.write_bytes(bytes(data))


def check_corruption_detected(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import Bench
    from run import stop_helper_processes

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=_work_root()))
    try:
        bench = Bench(work, size="tiny", tamper=corrupt_first_record)
        for workload in (w["name"] for w in SPEC["workloads"]):
            result = bench.run(workload, seed=11, seconds=1, setups=1)
            print(f"corrupted {workload}: {result.failed} failed of {result.attempted}")
            if result.failed == 0:
                failures.append(f"{workload}: a corrupted record file went unnoticed")
    finally:
        stop_helper_processes()
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory_fails(failures: list[str]) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=_work_root()))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
        print(f"bare directory: exit {done.returncode}")
        if done.returncode == 0 or '"metrics"' in done.stdout:
            failures.append("bare directory: the benchmark did not fail without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _work_root() -> Path:
    root = ROOT / ".perfbench" / "work"
    root.mkdir(parents=True, exist_ok=True)
    return root


def main() -> int:
    failures: list[str] = []
    check_bare_directory_fails(failures)
    check_corruption_detected(failures)
    check_metrics_printed(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("passed" if not failures else f"failed ({len(failures)})"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
