#!/usr/bin/env python3
"""Checks that bench/compare_bench rejects doctored baselines and that
bench/run_all fails a build whose listed bench fails.

Usage: python3 bench/compare_bench_test.py [path/to/BENCH_seed.json]

Every candidate is a copy of the baseline written to a temporary
directory. The baseline against itself, and a copy with every host-time
("wall s") cell doubled, must pass (exit 0). One changed headline cell
per figure, a dropped ablation row, a deleted or an added bench, a
changed quoted label, a failing candidate exit code and a seed mismatch
must each fail (exit 1) on their own. run_all must exit 1 on a build dir
whose bench list names a stub that exits 3, and 0 on one whose stub
passes. Exits 0 on success, 1 after printing every mismatch.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
COMPARE_BENCH = os.path.join(HERE, "compare_bench")
RUN_ALL = os.path.join(HERE, "run_all")

# One headline cell per figure: (bench, table, leading cells of the row,
# column, doctored value). The first four are the paper's curves that the
# old name-guessed gate only reported as drift.
HEADLINE_CELLS = [
    ("fig1_read_throughput", 2, ["256 KB"], "database", "0.50"),
    ("fig2_fragmentation_10mb", 0, ["10"], "database", "99"),
    ("fig3_fragmentation_256k", 0, ["10"], "database", "99"),
    ("fig6_volume_size", 0, ["database", "10 GB"], "age2", "1"),
    ("fig4_write_throughput", 0, ["age 0 -> 2"], "filesystem", "0.01"),
    ("fig5_size_distributions", 1, ["10"], "uniform", "1.00"),
    ("fig7_multi_client", 0, ["filesystem", "8"], "read mb/s", "1.00"),
    ("fig7_contention", 0, ["database", "8", "1"], "interference seeks",
     "1"),
    ("fig8_recovery_time", 0, ["filesystem"], "mean recovery seconds",
     "9.9999"),
    ("fig9_degradation", 0, ["database", "high", "off"],
     "undetected corruption", "1"),
]


def set_cell(doc, bench, table_index, row_prefix, column, value):
    """Sets the cell of the first row that starts with `row_prefix`."""
    table = doc["benches"][bench]["tables"][table_index]
    ci = table["header"].index(column)
    row = next(r for r in table["rows"] if r[:len(row_prefix)] == row_prefix)
    assert row[ci] != value, f"{bench} {row_prefix} {column} is already {value}"
    row[ci] = value


def double_wall_cells(doc):
    changed = 0
    for entry in doc["benches"].values():
        for table in entry["tables"]:
            for ci, column in enumerate(table["header"]):
                if column.endswith("wall s"):
                    for row in table["rows"]:
                        doubled = f"{float(row[ci]) * 2:.3f}"
                        changed += doubled != row[ci]
                        row[ci] = doubled
    assert changed, "baseline has no non-zero wall s cell"


def drop_alloc_policies_row(doc):
    rows = doc["benches"]["ablation_alloc_policies"]["tables"][0]["rows"]
    del rows[len(rows) // 2]


def add_bench(doc):
    doc["benches"]["fig10_unlisted"] = copy.deepcopy(
        doc["benches"]["fig2_fragmentation_10mb"])


def relabel_quoted(doc):
    set_cell(doc, "ablation_alloc_policies", 0,
             ["ntfs-like, immediate free"], "allocator",
             "ntfs-like, deferred free")


def candidate_cases():
    """Yields (name, doctor function, expected compare_bench exit)."""
    yield "baseline itself", lambda doc: None, 0
    yield "every wall s cell doubled", double_wall_cells, 0
    for bench, table, row, column, value in HEADLINE_CELLS:
        yield (f"{bench} {row} {column} -> {value}",
               lambda doc, c=(bench, table, row, column, value):
               set_cell(doc, *c), 1)
    yield "ablation_alloc_policies row dropped", drop_alloc_policies_row, 1
    yield ("ablation_defrag deleted",
           lambda doc: doc["benches"].pop("ablation_defrag"), 1)
    yield "bench added", add_bench, 1
    yield "quoted label changed", relabel_quoted, 1
    yield ("candidate exit code 1",
           lambda doc: doc["benches"]["fig2_fragmentation_10mb"].update(
               exit_code=1), 1)
    yield "seed mismatch", lambda doc: doc.update(seed="7"), 1


def run(argv):
    proc = subprocess.run([sys.executable] + argv, capture_output=True,
                          text=True)
    # A crash also exits 1; only a clean verdict counts.
    if "Traceback" in proc.stderr:
        return f"crashed: {proc.stderr.strip().splitlines()[-1]}"
    return proc.returncode


def check_compare_bench(baseline_path, tmp, failures):
    with open(baseline_path) as f:
        baseline = json.load(f)
    for i, (name, doctor, expected) in enumerate(candidate_cases()):
        doc = copy.deepcopy(baseline)
        doctor(doc)
        path = os.path.join(tmp, f"candidate_{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        got = run([COMPARE_BENCH, "--baseline", baseline_path,
                   "--candidate", path])
        if got != expected:
            failures.append(f"compare_bench on {name}: exit {got}, "
                            f"expected {expected}")


def check_run_all(tmp, failures):
    for stub_exit, expected in ((3, 1), (0, 0)):
        bench_dir = os.path.join(tmp, f"build_{stub_exit}", "bench")
        os.makedirs(bench_dir)
        stub = os.path.join(bench_dir, "stub_bench")
        with open(stub, "w") as f:
            f.write(f"#!/bin/sh\necho 'a,b,c'\necho '1,2,3'\nexit {stub_exit}\n")
        os.chmod(stub, 0o755)
        with open(os.path.join(bench_dir, "figure_benches.txt"), "w") as f:
            f.write("stub_bench\n")
        out = os.path.join(tmp, f"run_all_{stub_exit}.json")
        got = run([RUN_ALL, "--build-dir", os.path.dirname(bench_dir),
                   "--out", out, "--jobs", "1"])
        if got != expected:
            failures.append(f"run_all with a stub exiting {stub_exit}: "
                            f"exit {got}, expected {expected}")
            continue
        entry = None
        if os.path.exists(out):
            with open(out) as f:
                entry = json.load(f)["benches"].get("stub_bench")
        if (entry is None or entry["exit_code"] != stub_exit
                or len(entry["tables"]) != 1):
            failures.append(f"run_all recorded {entry} for a stub exiting "
                            f"{stub_exit}")
    got = run([RUN_ALL, "--build-dir", os.path.join(tmp, "unconfigured"),
               "--out", os.path.join(tmp, "none.json")])
    if got != 1:
        failures.append(f"run_all without a bench list: exit {got}")


def main():
    baseline_path = (sys.argv[1] if len(sys.argv) > 1 else
                     os.path.join(HERE, os.pardir, "BENCH_seed.json"))
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        check_compare_bench(baseline_path, tmp, failures)
        check_run_all(tmp, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("OK compare_bench rejects every doctored candidate; run_all "
          "fails a failing bench")
    return 0


if __name__ == "__main__":
    sys.exit(main())
