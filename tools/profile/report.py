#!/usr/bin/env python3
"""Flat profile report for samples written by sampler.c.

    report.py EXECUTABLE PROFILE [PROFILE ...] [--top N] [--match REGEX ...]

Each sample's instruction pointer is mapped back to an address of the file it
was taken in, using the process map the sampler saved: for a position-
independent executable the run-time address minus the mapping's start, plus
its file offset, gives a file offset, and the ELF load segment holding that
offset (`readelf -lW`) turns it into the link-time address that `nm` and
`addr2line` speak. Then each sample is charged

  * to the function whose code it is in (`nm -S`, demangled), and
  * to the innermost function inlined at that address, with the chain of
    functions it was inlined into (`addr2line -i`), and
  * to each `--match` pattern that its function or any function of its
    inline chain matches (e.g. `--match hashbrown` for hash-table code
    wherever it was inlined).

Samples in `Calib::time` — the benchmark harness timing its noise reference —
are not the workload's. Neither are those in a function that only the
reference reaches: every direct call or jump to it (`objdump -d`) comes from
`Calib::time` or from another such function, which is how its own heap and
queue instantiations are told from the engine's, whose demangled names are the
same. They are counted apart, and every share printed is of the other
samples. Samples in shared libraries are charged to the library's dynamic
symbols (glibc's internal functions have none: `(internal)`), and the
allocations the reference kernel makes stay in the workload's glibc rows.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess


def run(*args, stdin=None):
    return subprocess.run(args, input=stdin, capture_output=True, text=True, check=True).stdout


def load_profile(path):
    maps, samples = [], []
    with open(path) as f:
        for line in f:
            kind, rest = line[0], line[2:].rstrip("\n")
            if kind == "M":
                fields = rest.split(None, 5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                start, end = (int(x, 16) for x in fields[0].split("-"))
                maps.append((start, end, int(fields[2], 16), fields[5]))
            elif kind == "S":
                samples.append(int(rest, 16))
    return maps, samples


def load_segments(elf):
    """(file offset, file size, virtual address) of each LOAD segment."""
    segments = []
    for line in run("readelf", "-lW", elf).splitlines():
        fields = line.split()
        if fields and fields[0] == "LOAD":
            offset, vaddr, size = int(fields[1], 16), int(fields[2], 16), int(fields[4], 16)
            segments.append((offset, size, vaddr))
    return segments


class Symbols:
    """Function symbols of one ELF file, by link-time address."""

    def __init__(self, elf, dynamic):
        flags = ["-S", "-C", "--defined-only"] + (["-D"] if dynamic else [])
        table = []
        for line in run("nm", *flags, elf).splitlines():
            m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwWiI] (.*)", line)
            if m:
                table.append((int(m.group(1), 16), int(m.group(2), 16), m.group(3)))
        table.sort()
        self.starts = [t[0] for t in table]
        self.table = table

    def lookup(self, vaddr):
        """(start, name) of the function holding `vaddr`."""
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0:
            start, size, name = self.table[i]
            if vaddr < start + max(size, 1):
                return start, name
        return None, "(internal)"


def harness_functions(elf):
    """Start addresses of `Calib::time` and of every function whose direct
    callers are all such functions."""
    callers = collections.defaultdict(set)
    harness = set()
    current = None
    for line in run("objdump", "-d", "--no-show-raw-insn", "-w", elf).splitlines():
        header = re.match(r"([0-9a-f]+) <(.*)>:$", line)
        if header:
            current = int(header.group(1), 16)
            if "5Calib4time" in header.group(2):
                harness.add(current)
            continue
        call = re.search(r"\s(?:call|jmp)\s+([0-9a-f]+) <", line)
        if call and current is not None:
            callers[int(call.group(1), 16)].add(current)
    grew = True
    while grew:
        grew = False
        for target, sources in callers.items():
            if target not in harness and sources - {target} and sources <= harness | {target}:
                harness.add(target)
                grew = True
    return harness


def inline_chains(elf, vaddrs):
    """addr2line -i: for each address, its inline chain, innermost first."""
    chains = {}
    text = run("addr2line", "-a", "-i", "-f", "-C", "-e", elf,
               stdin="\n".join(hex(a) for a in vaddrs) + "\n")
    current = None
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if lines[i].startswith("0x"):
            current = int(lines[i], 16)
            chains[current] = []
            i += 1
            continue
        chains[current].append(lines[i])
        i += 2  # function, then file:line
    return chains


def short(name, width=110):
    return name if len(name) <= width else name[: width - 1] + "…"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("executable")
    parser.add_argument("profiles", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--match", action="append", default=[], metavar="REGEX")
    args = parser.parse_args()
    exe = os.path.realpath(args.executable)

    # Link-time address (or library + symbol) of every sample, pooled over runs.
    located = collections.Counter()
    files = {}
    total = 0
    for path in args.profiles:
        maps, samples = load_profile(path)
        total += len(samples)
        for rip in samples:
            for start, end, offset, mapped in maps:
                if start <= rip < end:
                    located[(mapped, rip - start + offset)] += 1
                    break
            else:
                located[("[unmapped]", 0)] += 1
    by_function = collections.Counter()
    by_inlined = collections.Counter()
    by_match = collections.Counter()
    harness = 0
    resolved = collections.Counter()
    for (mapped, file_offset), n in located.items():
        if mapped not in files and os.path.exists(mapped):
            files[mapped] = (load_segments(mapped), Symbols(mapped, mapped != exe))
        if mapped not in files:
            by_function[mapped] += n
            by_inlined[mapped] += n
            continue
        segments, _ = files[mapped]
        vaddr = next((file_offset - off + va for off, size, va in segments
                      if off <= file_offset < off + size), None)
        resolved[(mapped, vaddr)] += n
    chains = {}
    exe_addrs = [v for (m, v) in resolved if m == exe and v is not None]
    if exe_addrs:
        chains = inline_chains(exe, exe_addrs)
    reference = harness_functions(exe)
    for (mapped, vaddr), n in resolved.items():
        symbols = files[mapped][1]
        start, function = symbols.lookup(vaddr) if vaddr is not None else (None, "??")
        chain = chains.get(vaddr, []) if mapped == exe else []
        if mapped != exe:
            function = f"{os.path.basename(mapped)}: {function}"
        elif start in reference:
            harness += n
            continue
        by_function[function] += n
        innermost = chain[0] if chain else function
        outer = f"  (in {chain[-1]})" if len(chain) > 1 else ""
        by_inlined[innermost + outer] += n
        for pattern in args.match:
            if any(re.search(pattern, f) for f in chain + [function]):
                by_match[pattern] += n

    work = total - harness
    print(f"{total} samples in {len(args.profiles)} run(s); harness (Calib::time) "
          f"{harness} = {100 * harness / max(total, 1):.1f} %; shares below are of the "
          f"other {work}.")
    tables = (("function (nm)", by_function),
              ("innermost inlined function (addr2line -i)", by_inlined))
    for title, table in tables:
        print(f"\n| share | samples | {title} |\n|---|---|---|")
        for name, n in table.most_common(args.top):
            print(f"| {100 * n / max(work, 1):.1f} % | {n} | `{short(name)}` |")
    if args.match:
        print("\n| share | samples | matching anywhere in the inline chain |\n|---|---|---|")
        for pattern in args.match:
            n = by_match[pattern]
            print(f"| {100 * n / max(work, 1):.1f} % | {n} | `{pattern}` |")


if __name__ == "__main__":
    main()
