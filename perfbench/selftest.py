"""Self-tests of the benchmark, run from the repository root::

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks that ``BENCHMARK.json`` is well formed (metric names and units use
only the allowed characters and are unique; every bound is at most 0.25;
``setup_s`` is present), then runs ``run.py`` on each workload (all by
default) untraced and traced, and checks that:

* both runs exit 0 and report ``correct`` with no failed operation;
* the artifact digests of the two runs are identical, so the layer
  wrappers change no output;
* each run prints exactly the metrics its ``BENCHMARK.json`` section lists,
  each with the listed unit.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for entry in spec[section]:
            names.append(entry["name"])
            if not UNIT.fullmatch(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r} of {entry['name']}")
            if entry.get("bound", 0) > 0.25:
                problems.append(f"bound of {entry['name']} exceeds 0.25")
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    if not any(e["name"] == "setup_s" and e["unit"] == "s"
               for e in spec["end_to_end"]):
        problems.append("no setup_s metric in end_to_end")
    return problems


def run(workload: str, trace: int) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


def check_workload(spec: dict, workload: str) -> list[str]:
    problems = []
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run(workload, trace)
        label = f"{workload} --trace {trace}"
        if code != 0 or not lines:
            return problems + [f"{label}: exit {code}"]
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"{label}: {result['failed']} failed operations")
        units = {e["name"]: e["unit"] for e in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != units:
            problems.append(f"{label}: metrics differ from BENCHMARK.json "
                            f"{section}: {sorted(set(printed.items()) ^ set(units.items()))}")
        prefix = "perfbench: artifacts "
        digests[trace] = next(json.loads(line[len(prefix):])
                              for line in lines if line.startswith(prefix))
    if digests[0] != digests[1]:
        problems.append(f"{workload}: traced and untraced digests differ")
    return problems


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in argv or [w["name"] for w in spec["workloads"]]:
        problems += check_workload(spec, workload)
        print(f"selftest: {workload} checked", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
