#!/usr/bin/env python3
"""Fold the stacks `tools/sampler.c` or `tools/heap.c` wrote into leaf and inclusive shares.

    python3 tools/fold.py STACKS [--within FRAME] [--callers LEAF] [--children FRAME] [--top N]

A sampler stack weighs one sample. A heap stack carries its weight, the
bytes allocated there that were live at the heap's peak (`bytes=N`), and
the heap file also holds the peak and its size-class histogram, which are
printed first: shares are then of bytes, not of samples.

Addresses are resolved with `addr2line -a -f -C -i` against the object they
fall in (build with debug info: see the header of `tools/sampler.c`), so
inlined callees appear as frames of their own. A function's *leaf* share is
the samples whose innermost frame it is: its own instructions. Its
*inclusive* share is the samples with it anywhere on the stack, counted once
a sample. `--within FRAME` keeps only samples whose stack contains a frame
with FRAME in its name, and drops the frames outside it: with
`workloads::timed`, what is left is the benchmark's timed call.

`--callers LEAF` also prints, for the samples whose leaf has LEAF in its
name, the innermost three repository frames above that leaf, innermost
first: frames of this repository's crates (names that start with `flare`
or `bytes::`, after any leading `<`). It is how time spent in libc is
charged to the code that called it. glibc's `memcpy`, `memmove` and
`memset` are internal symbols chosen at load time that the shared object
does not export, and without glibc's debug info addr2line names the
nearest exported symbol before them instead: on glibc 2.36 (Debian 12)
that is `__nss_database_lookup`. A leaf of that name is copy or fill time,
so run with `--callers __nss_database_lookup` to see whose. malloc's own
internals are misnamed the same way: on glibc 2.36 they resolve to
`__default_morecore` and `timer_settime`, and every caller of either is a
`GlobalAlloc::{alloc, dealloc, realloc}`. A leaf of those names is
allocator time; `--callers __default_morecore` shows whose.

`--children FRAME` splits the samples under a frame one level down: for
each sample whose stack has a frame with FRAME in its name, the frame its
outermost such frame called, or `(self)` where that frame is the leaf.
Each callee is printed with its share of the kept samples, so the rows
add up to FRAME's inclusive share. Recursion and inlined copies deeper in
the stack are charged to the outermost call.

Objects are taken to be position-independent (rustc's default, and every
shared library): an address's offset from the start of its object's first
mapping is what addr2line is asked about.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

# A frame of this repository's crates: `flare_core::…`, `<flare_net::… as …>`,
# `bytes::…` (vendor/bytes is ours).
REPO_FRAME = re.compile(r"<?(flare\w*|bytes)::")


def read(path):
    """maps, [(weight, addresses)], dropped, peak, [(class, bytes, blocks)]."""
    maps, stacks, dropped, peak, classes = [], [], 0, None, []
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            fields = rest.split(None, 5)
            start, end = (int(x, 16) for x in fields[0].split("-"))
            maps.append((start, end, int(fields[2], 16), fields[5].strip()))
        elif kind == "stack":
            words, weight = rest.split(), 1
            if words and words[0].startswith("bytes="):
                weight = int(words.pop(0)[len("bytes="):])
            stacks.append((weight, [int(a, 16) for a in words]))
        elif kind == "dropped":
            dropped = int(rest)
        elif kind == "peak":
            peak = int(rest)
        elif kind == "class":
            classes.append(tuple(int(x) for x in rest.split()))
    return maps, stacks, dropped, peak, classes


def resolve(maps, addresses):
    """address -> [innermost inlined frame, ..., the function itself]."""
    base = {}
    for start, _, offset, obj in maps:
        if offset == 0:
            base.setdefault(obj, start)
    maps = sorted(maps)
    starts = [m[0] for m in maps]
    by_object = collections.defaultdict(list)
    for addr in addresses:
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < maps[i][1] and maps[i][3] in base:
            # A return address: the call is the instruction before it.
            by_object[maps[i][3]].append((addr, addr - base[maps[i][3]] - 1))
    names = {}
    for obj, pairs in by_object.items():
        query = "\n".join(hex(rel) for _, rel in pairs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input=query, capture_output=True, text=True, check=False,
        ).stdout.splitlines()
        frames, at = [], -1
        for line in out:
            if line.startswith("0x"):
                at += 1
                frames.append([])
            elif not re.match(r".*:(\d+|\?)( \(discriminator \d+\))?$", line):
                frames[at].append(line if line != "??" else f"?? in {obj}")
        for (addr, _), fs in zip(pairs, frames):
            names[addr] = fs or [f"?? in {obj}"]
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("stacks")
    ap.add_argument("--within", help="keep samples with this frame; drop its callers")
    ap.add_argument("--callers", metavar="LEAF", help="charge samples with this leaf to repository frames")
    ap.add_argument("--children", metavar="FRAME", help="split FRAME's samples by its immediate callee")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()

    maps, stacks, dropped, peak, classes = read(args.stacks)
    if peak is not None:
        print(f"peak {peak} bytes live; by size class at the peak:")
        print(f"{'class':>12}  {'bytes':>12}  {'blocks':>8}  share")
        for size, live, blocks in classes:
            print(f"{size:>12}  {live:>12}  {blocks:>8}  {100 * live / max(peak, 1):5.1f}")
        print()
    names = resolve(maps, {a for _, s in stacks for a in s})
    leaf, inclusive, kept = collections.Counter(), collections.Counter(), 0
    callers, children = collections.Counter(), collections.Counter()
    for weight, stack in stacks:
        # Innermost first, inlined frames expanded.
        frames = [f for a in stack for f in names.get(a, [hex(a)])]
        if args.within:
            hits = [i for i, f in enumerate(frames) if args.within in f]
            if not hits:
                continue
            frames = frames[: hits[-1] + 1]
        if not frames:
            continue
        kept += weight
        leaf[frames[0]] += weight
        for f in set(frames):
            inclusive[f] += weight
        if args.callers and args.callers in frames[0]:
            ours = [f for f in frames[1:] if REPO_FRAME.match(f)][:3]
            callers[" < ".join(ours) or "(no repository frame)"] += weight
        if args.children:
            hits = [i for i, f in enumerate(frames) if args.children in f]
            if hits:
                children[frames[hits[-1] - 1] if hits[-1] else "(self)"] += weight

    unit = "bytes" if peak is not None else "samples"
    total = sum(w for w, _ in stacks)
    print(f"{total} {unit} in {len(stacks)} stacks, {kept} kept, {dropped} dropped for want of room")
    tables = [("leaf", leaf), ("inclusive", inclusive)]
    if args.callers:
        matched = sum(callers.values())
        print(f"\n{matched} {unit} ({100 * matched / max(kept, 1):.1f} %) have a leaf matching {args.callers}")
        tables.append((f"callers of {args.callers}", callers))
    if args.children:
        matched = sum(children.values())
        print(f"\n{matched} {unit} ({100 * matched / max(kept, 1):.1f} %) have a frame matching {args.children}")
        tables.append((f"children of {args.children}", children))
    for title, counts in tables:
        print(f"\n{title:>9}  share  function")
        for name, n in counts.most_common(args.top):
            print(f"{n:9d}  {100 * n / max(kept, 1):5.1f}  {name}")


if __name__ == "__main__":
    sys.exit(main())
