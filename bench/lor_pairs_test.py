#!/usr/bin/env python3
"""Checks bench/lor_pairs against stub lor_bench binaries.

Usage: python3 bench/lor_pairs_test.py

Each case writes two stub binaries (parent and change) to a temporary
directory. A stub appends its side to a shared log, so the case can check
that the pairs alternate, and prints lor_bench-shaped output: `name
value unit` lines and a closing JSON line. A clear gain must exit 0 and
print CLAIM; a bound breach, a larger failed-op share, a simulated line
that differs between the sides or between runs of one side, and a
failing run must each exit 1; an allowed simulated difference and a
varying host-time line must not. Exits 0 on success, 1 after printing
every mismatch.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LOR_PAIRS = os.path.join(HERE, "lor_pairs")

BENCHMARK = {"end_to_end": [
    {"name": "fs.read_mb_s", "better": "higher", "bound": 0.05},
    {"name": "host_kops_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]}

STUB = """#!/usr/bin/env python3
import json, sys
spec = json.loads({spec!r})
log = {log!r}
with open(log, "a") as f:
    f.write(spec["side"] + "\\n")
with open(log) as f:
    run = sum(1 for line in f if line.strip() == spec["side"])
def pick(v):
    return v[(run - 1) % len(v)] if isinstance(v, list) else v
metrics = {{"fs.read_mb_s": pick(spec["read"]),
            "host_kops_s": pick(spec["kops"]),
            "setup_s": pick(spec["setup"])}}
print("# stub " + " ".join(sys.argv[1:]))
for name, value in metrics.items():
    print("%s %r unit" % (name, value))
print("fs.alloc.calls_per_op %r calls/op" % pick(spec["calls"]))
print("fs.core.get_us_p50 %r us" % (10.0 + run))
print(json.dumps({{"correct": True, "attempted": 1000,
                  "failed": spec["failed"],
                  "metrics": {{k: {{"value": v, "unit": "u"}}
                               for k, v in metrics.items()}}}}))
sys.exit(spec["exit"])
"""

PARENT = {"read": 27.5, "kops": [100.0, 103.0, 99.0, 101.0, 102.0],
          "setup": 0.15, "calls": 164.9, "failed": 0, "exit": 0}


def change(**overrides):
    spec = dict(PARENT, kops=[125.0, 128.0, 122.0, 126.0, 127.0])
    spec.update(overrides)
    return spec


TEN_PAIRS = ["--pairs", "10"]

# (name, change spec, extra arguments, expected exit, required output,
#  forbidden output). Cases run 4 pairs unless they pass --pairs.
CASES = [
    ("clear gain", change(), TEN_PAIRS, 0, "CLAIM host_kops_s", "SIMDIFF"),
    ("no claim from fewer than 10 pairs", change(), [], 0, "", "CLAIM"),
    ("no claim without 9 in 10 wins",
     change(kops=[110.0, 90.0, 110.0, 90.0, 110.0]), TEN_PAIRS, 0, "",
     "CLAIM"),
    ("setup_s breach", change(setup=0.30), [], 1, "BREACH setup_s", ""),
    ("read_mb_s breach", change(read=25.0), [], 1, "BREACH fs.read_mb_s",
     ""),
    ("failed share", change(failed=5), [], 1, "BREACH failed-op share", ""),
    ("simulated line differs", change(calls=15.5), [], 1,
     "SIMDIFF fs.alloc.calls_per_op", ""),
    ("allowed simulated difference", change(calls=15.5),
     ["--allow-sim-diff", "fs.alloc.calls_per_op"], 0, "(allowed)", ""),
    ("simulated line varies between runs",
     change(read=[27.5, 27.5, 27.6, 27.5, 27.5]), [], 1,
     "varies between change runs", ""),
    ("failing run", change(exit=1), [], 1, "", ""),
]


def write_stub(path, spec, log):
    with open(path, "w") as f:
        f.write(STUB.format(spec=json.dumps(spec), log=log))
    os.chmod(path, 0o755)


def check(tmp, i, case, failures):
    name, change_spec, extra, expected, required, forbidden = case
    case_dir = os.path.join(tmp, "case%d" % i)
    os.makedirs(case_dir)
    log = os.path.join(case_dir, "order.log")
    stubs = {}
    for side, spec in (("parent", PARENT), ("change", change_spec)):
        stubs[side] = os.path.join(case_dir, side)
        write_stub(stubs[side], dict(spec, side=side), log)
    benchmark = os.path.join(case_dir, "BENCHMARK.json")
    with open(benchmark, "w") as f:
        json.dump(BENCHMARK, f)
    proc = subprocess.run(
        [sys.executable, LOR_PAIRS, "--parent", stubs["parent"], "--change",
         stubs["change"], "--workload", "aged_10mb", "--seconds", "30",
         "--pairs", "4", "--benchmark", benchmark] + extra,
        capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    if "Traceback" in proc.stderr:
        failures.append("%s: crashed: %s" % (
            name, proc.stderr.strip().splitlines()[-1]))
        return
    if proc.returncode != expected:
        failures.append("%s: exit %d, expected %d\n%s" % (
            name, proc.returncode, expected, output))
    if required and required not in output:
        failures.append("%s: no %r in output\n%s" % (name, required, output))
    if forbidden and forbidden in output:
        failures.append("%s: %r in output\n%s" % (name, forbidden, output))
    if expected == 0:
        with open(log) as f:
            order = [line.strip() for line in f]
        pairs = 10 if extra == TEN_PAIRS else 4
        alternating = (["parent", "change", "change", "parent"] *
                       pairs)[:2 * pairs]
        if order != alternating:
            failures.append("%s: run order %s" % (name, order))


def main():
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(CASES):
            check(tmp, i, case, failures)
    for failure in failures:
        print("FAIL %s" % failure)
    if failures:
        return 1
    print("OK lor_pairs flags every breach and simulated difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
