#!/usr/bin/env python3
"""Count first-party non-test lines of Rust source, per crate.

For each crate, sums the lines of every `crates/<crate>/src/**/*.rs` file up
to (not including) the file's first `#[cfg(test)]` that starts in column 0;
a file without one counts whole. An indented `#[cfg(test)]` (a test-only item
inside an impl or a function) does not end the count. Prints one row per
crate, then the total over the five crates the line budget tracks (core,
protocols, workloads, bench, madeleine) and the total over every crate.

Usage: python3 tools/loc.py [REPO_ROOT]   (default: the current directory)
"""

import pathlib
import sys

TRACKED = ["core", "protocols", "workloads", "bench", "madeleine"]


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            count += 1
    return count


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = sorted(p.parent.name for p in (root / "crates").glob("*/src"))
    counts = {
        c: sum(non_test_lines(f) for f in (root / "crates" / c / "src").rglob("*.rs"))
        for c in crates
    }
    for c in crates:
        print(f"{c:<10} {counts[c]:>6}")
    print(f"{'total5':<10} {sum(counts.get(c, 0) for c in TRACKED):>6}  ({' + '.join(TRACKED)})")
    print(f"{'all':<10} {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
