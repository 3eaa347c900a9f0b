#!/usr/bin/env python3
"""Count first-party non-test lines of Rust source, per crate.

For each crate, sums the lines of every `crates/<crate>/src/**/*.rs` file up
to (not including) the file's first column-0 `#[cfg(test)]` that is followed
by an inline `mod name {`; a file without one counts whole. A column-0
`#[cfg(test)]` followed by `mod name;` is not counted, does not end the
count, and marks the file of module `name` as test code, which is then not
counted either. A column-0 `#[cfg(test)]` on anything but a `mod` is an
error: the script names the file and line and exits with status 1. An
indented `#[cfg(test)]` (a test-only item inside an impl or a function) does
not end the count. Prints one row per crate, then the total over the five
crates the line budget tracks (core, protocols, workloads, bench, madeleine)
and the total over every crate.

Usage: python3 tools/loc.py [REPO_ROOT]   (default: the current directory)
"""

import pathlib
import re
import sys

TRACKED = ["core", "protocols", "workloads", "bench", "madeleine"]

OUT_OF_LINE_MOD = re.compile(r"\s*(pub(\(\w+\))?\s+)?mod\s+(\w+)\s*;")
INLINE_MOD = re.compile(r"\s*(pub(\(\w+\))?\s+)?mod\s+\w+\s*\{")


def module_files(path, name):
    """The files that may hold module `name` declared in `path`."""
    own_dir = path.parent
    if path.name not in ("lib.rs", "main.rs", "mod.rs"):
        own_dir = own_dir / path.stem
    return [own_dir / f"{name}.rs", own_dir / name / "mod.rs"]


def scan(path):
    """Non-test line count of `path`, and the files it marks as test code."""
    count, test_files = 0, []
    lines = path.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("#[cfg(test)]"):
            item = lines[i + 1] if i + 1 < len(lines) else ""
            declared = OUT_OF_LINE_MOD.match(item)
            if declared:
                test_files += module_files(path, declared.group(3))
                i += 2
                continue
            if INLINE_MOD.match(item):
                break
            sys.exit(f"{path}:{i + 1}: column-0 #[cfg(test)] on something other than a mod")
        count += 1
        i += 1
    return count, test_files


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    crates = sorted(p.parent.name for p in (root / "crates").glob("*/src"))
    counts = {}
    for c in crates:
        scanned = {f: scan(f) for f in (root / "crates" / c / "src").rglob("*.rs")}
        test_files = {t for _, tests in scanned.values() for t in tests}
        counts[c] = sum(n for f, (n, _) in scanned.items() if f not in test_files)
    for c in crates:
        print(f"{c:<10} {counts[c]:>6}")
    print(f"{'total5':<10} {sum(counts.get(c, 0) for c in TRACKED):>6}  ({' + '.join(TRACKED)})")
    print(f"{'all':<10} {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
