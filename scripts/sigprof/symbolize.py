#!/usr/bin/env python3
"""Symbolize a sigprof.so dump with `nm` and print self / inclusive shares.

    symbolize.py <binary> <dump> [top=40]

Self = samples whose innermost frame is in the function; inclusive = samples
with the function anywhere on the stack (counted once per sample).
"""
import bisect
import collections
import os
import subprocess
import sys


def main():
    binary, dump = sys.argv[1], sys.argv[2]
    top = int(sys.argv[3]) if len(sys.argv) > 3 else 40
    syms = []
    nm = subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                        capture_output=True, text=True, check=True).stdout
    for line in nm.splitlines():
        parts = line.split(None, 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    starts = [a for a, _ in syms]
    # PIE: nm address = runtime address - load base, and the load base is
    # where the binary's offset-0 mapping starts.
    real = os.path.realpath(binary)
    bias, lo, hi = 0, None, 0
    stacks = []
    for line in open(dump):
        if line.startswith("map "):
            f = line.split()
            if len(f) >= 7 and os.path.realpath(f[6]) == real:
                start, end = (int(x, 16) for x in f[1].split("-"))
                if int(f[3], 16) == 0:
                    bias = start
                lo, hi = start if lo is None else min(lo, start), max(hi, end)
        elif line.strip():
            stacks.append([int(x, 16) for x in line.split()])

    def name(addr):
        if lo is None or not lo <= addr < hi:
            return "[outside %s]" % os.path.basename(binary)
        i = bisect.bisect_right(starts, addr - bias) - 1
        return syms[i][1] if i >= 0 else "[unknown]"

    self_n, incl_n = collections.Counter(), collections.Counter()
    for st in stacks:
        # Return addresses point after the call: step back into it.
        names = [name(st[0])] + [name(a - 1) for a in st[1:]]
        self_n[names[0]] += 1
        for n in set(names):
            incl_n[n] += 1
    total = len(stacks) or 1
    print("%d samples" % len(stacks))
    for title, table in (("self", self_n), ("inclusive", incl_n)):
        print("\n%8s  %s" % (title, "function"))
        for n, c in table.most_common(top):
            print("%7.2f%%  %s" % (100.0 * c / total, n[:110]))


if __name__ == "__main__":
    main()
