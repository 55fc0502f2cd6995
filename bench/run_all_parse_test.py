#!/usr/bin/env python3
"""Checks bench/run_all's CSV parser on a quoted, comma-bearing label.

Usage: python3 bench/run_all_parse_test.py [path/to/run_all]

TableWriter::PrintCsv quotes a cell that holds a comma or a quote; the
parser must keep such a row whole instead of splitting inside the
quotes (which used to drop rows or turn them into bogus headers).
Exits 0 on success, 1 after printing every mismatch.
"""

import importlib.machinery
import importlib.util
import os
import sys

sys.dont_write_bytecode = True  # Leave no cache next to run_all.


def load_run_all(path):
    loader = importlib.machinery.SourceFileLoader("run_all", path)
    spec = importlib.util.spec_from_loader("run_all", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(here, "run_all")
    run_all = load_run_all(path)

    text = "\n".join([
        "=== Ablation: allocation policies ===",
        "Scale: 0.25x of the paper's volumes (seed 42)",
        "",
        "allocator,frag @2,frag @8,read MB/s @8",
        "ntfs-like (default),2.03,5.99,20.19",
        '"ntfs-like, immediate free",1.00,1.00,28.61',
        '"buddy system (DTSS), 40% full",1.00,1.00,27.99',
        '"say ""hi"", twice",1.50,2.50,3.50',
        "",
        "Shape check: prose, with one comma.",
    ])
    banner, tables = run_all.parse_output(text)

    failures = []
    if len(tables) != 1:
        failures.append(f"expected 1 table, got {len(tables)}: {tables}")
    else:
        table = tables[0]
        if len(table["header"]) != 4:
            failures.append(f"header has {len(table['header'])} cells")
        if len(table["rows"]) != 4:
            failures.append(f"expected 4 rows, got {len(table['rows'])}")
        for row in table["rows"]:
            if len(row) != 4:
                failures.append(f"row has {len(row)} cells: {row}")
        labels = [row[0] for row in table["rows"]]
        expected = ["ntfs-like (default)", "ntfs-like, immediate free",
                    "buddy system (DTSS), 40% full", 'say "hi", twice']
        if labels != expected:
            failures.append(f"labels {labels} != {expected}")
    if banner[-1:] != ["Shape check: prose, with one comma."]:
        failures.append(f"prose not kept as banner: {banner}")

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("OK run_all parses quoted CSV cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
