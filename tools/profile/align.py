#!/usr/bin/env python3
"""Code placement of the functions of an executable that match a pattern.

    align.py EXECUTABLE REGEX

Prints, for each function symbol whose demangled name matches REGEX
(`re.search`), its link-time address (`nm -S -C`), its size and its address
modulo 64 — where it starts in its 64-byte cache line and fetch block. A
nanosecond-scale probe of a function can move by a few per cent with that
offset alone, the instructions unchanged, so two builds' readings of such a
probe are compared with their offsets beside them.

Exits with status 1 if no function matches: a function the optimiser inlined
into every caller has no symbol of its own, and its callers' placement is
what a probe of it then measures.
"""

import re
import subprocess
import sys

LINE = 64


def functions(elf):
    """(address, size, demangled name) of every function defined in `elf`."""
    nm = subprocess.run(["nm", "-S", "-C", "--defined-only", elf],
                        capture_output=True, text=True, check=True).stdout
    for line in nm.splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.*)", line)
        if m:
            yield int(m.group(1), 16), int(m.group(2), 16), m.group(3)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().split("\n\n")[1])
    elf, pattern = sys.argv[1], re.compile(sys.argv[2])
    rows = sorted((name, addr, size) for addr, size, name in functions(elf)
                  if pattern.search(name))
    if not rows:
        print(f"no function of {elf} matches {pattern.pattern!r}", file=sys.stderr)
        return 1
    print(f"{'address':>18} {'size':>7} {'mod ' + str(LINE):>6}  function")
    for name, addr, size in rows:
        print(f"{addr:#18x} {size:7d} {addr % LINE:6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
