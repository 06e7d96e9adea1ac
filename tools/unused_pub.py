#!/usr/bin/env python3
"""List the public items of the workspace crates that nothing calls outside a test.

    python3 tools/unused_pub.py            # print every such item
    python3 tools/unused_pub.py --check    # also fail on any not in tools/unused_pub.allow

An item is a `pub fn`, `pub const`, `pub static`, `pub struct`, `pub enum`,
`pub trait` or `pub type` declared in `crates/*/src` outside a
`#[cfg(test)]` item. It has a caller if its name appears as a word on a
line of non-test code in `crates/*/src`, `src/`, `benchmark/src` or
`examples/`, other than a line that declares a public item of that name.
So two same-named items that nothing else names are both reported: a
declaration never vouches for another. Comment lines and `use` /
`pub use` lines do not count, and neither does anything under a `tests/`
directory or inside a `#[cfg(test)]` item.

The match is by name, not by type, so a method that shares its name with
another one that is called (`new`, `len`) is taken as called: the check
can miss an unused item. For a public `fn` named like a method of
`Iterator`, slices or `Option` (`reduce`, `map`, `len`, ...) whose only
matches are `.name(` calls, both modes print it without failing: it may
be called by nothing but the standard library's method. A person reads
that list; it is not an error.

Each line of `tools/unused_pub.allow` is `path::name  # <its user>`, where
`path` is the crate directory and the module file (`flare-net::topology`)
and the comment names who calls the item, typically a test. `--check`
fails on an unused item that is not listed, on a listed one that has
gained a caller or is gone, and on a line without a comment.
"""

import argparse
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "unused_pub.allow"

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|const|static|struct|enum|trait|type)\s+(?:mut\s+)?([A-Za-z_][A-Za-z0-9_]*)"
)
USE = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?use\b")
# Methods of `Iterator`, slices and `Option` that a crate's own `fn` may
# share a name with; a `.name(` call matches both.
STD_METHODS = frozenset(
    """all and_then any as_mut as_ref chain chunks cloned cmp collect contains
    copied count enumerate expect fill filter filter_map find first flat_map
    flatten fold for_each get get_mut insert is_empty is_none is_some iter
    iter_mut join last len map max max_by max_by_key min min_by min_by_key
    next nth ok_or or partition position product reduce replace rev skip
    sort sort_by sum swap take to_vec unwrap unwrap_or unzip windows zip""".split()
)


def strip(line, in_block):
    """The code of `line` without comments and literals; and whether a block comment is open."""
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block = end + 2, False
        elif line.startswith("//", i):
            break
        elif line.startswith("/*", i):
            in_block, i = True, i + 2
        elif line[i] == '"' or (line[i] == "r" and re.match(r'r#*"', line[i:])):
            hashes = 0
            if line[i] == "r":
                m = re.match(r'r(#*)"', line[i:])
                hashes = len(m.group(1))
                i += len(m.group(0))
                close = '"' + "#" * hashes
                end = line.find(close, i)
            else:
                i += 1
                end = i
                while end < n and line[end] != '"':
                    end += 2 if line[end] == "\\" else 1
                end = end if end < n else -1
            out.append('""')
            if end < 0:
                # A string that runs on to the next line: nothing after it here.
                return "".join(out), False
            i = end + 1 + hashes
        elif line[i] == "'" and re.match(r"'(\\.|[^\\'])'", line[i:]):
            i += len(re.match(r"'(\\.|[^\\'])'", line[i:]).group(0))
            out.append("' '")
        else:
            out.append(line[i])
            i += 1
    return "".join(out), in_block


def code_lines(path):
    """(line number, code) for each line of `path` outside `#[cfg(test)]` items.

    A test-only item ends where its braces close, or, if it opens none,
    at the `;` or `,` that ends it (a field of a struct or of a struct
    literal). A `}` that closes more than it opened closes the enclosing
    item, which is not test code: that line is kept.
    """
    lines = path.read_text().splitlines()
    in_block = False
    skipping, depth, opened = False, 0, False
    for no, raw in enumerate(lines, 1):
        code, in_block = strip(raw, in_block)
        if skipping:
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if depth < 0:
                skipping = False
                yield no, code
            elif (opened and depth <= 0) or (not opened and code.rstrip().endswith((";", ","))):
                skipping = False
            continue
        if re.match(r"^\s*#\[cfg\(test\)\]", code):
            skipping, depth, opened = True, 0, False
            continue
        yield no, code


def sources(root):
    files = sorted(root.glob("crates/*/src/**/*.rs"))
    callers = files + sorted(root.glob("src/**/*.rs"))
    callers += sorted(root.glob("benchmark/src/**/*.rs"))
    callers += sorted(root.glob("examples/**/*.rs"))
    return files, [p for p in callers if "tests" not in p.relative_to(root).parts]


def item_path(root, path, name):
    rel = path.relative_to(root)
    module = rel.with_suffix("").parts[3:]
    return "::".join((rel.parts[1],) + module + (name,))


def unused(root=ROOT):
    """The items without a caller, and the `fn`s whose only callers may be std methods.

    Each is a list of `(item path, file relative to root, line number)`.
    """
    files, callers = sources(root)
    decls = []
    code = {p: list(code_lines(p)) for p in callers}
    for p in files:
        for no, line in code[p]:
            m = ITEM.match(line)
            if m:
                decls.append((p, no, m.group(1), m.group(2)))
    declared = {}
    for p, no, _, name in decls:
        declared.setdefault(name, set()).add((p, no))
    words = {}
    for p, lines in code.items():
        for no, line in lines:
            if USE.match(line):
                continue
            for w in set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line)):
                words.setdefault(w, set()).add((p, no, line))
    found, std_only = [], []
    for p, no, kind, name in decls:
        where = (item_path(root, p, name), p.relative_to(root), no)
        matches = [line for q, n, line in words.get(name, ()) if (q, n) not in declared[name]]
        if not matches:
            found.append(where)
        elif kind == "fn" and name in STD_METHODS and all(
            only_method_calls(line, name) for line in matches
        ):
            std_only.append(where)
    return found, std_only


def only_method_calls(line, name):
    """Whether every use of `name` as a word on `line` is a `.name(` call."""
    words = re.findall(rf"\b{name}\b", line)
    calls = re.findall(rf"\.\s*{name}\s*(?:::\s*<[^()]*>\s*)?\(", line)
    return len(words) == len(calls)


def allowed():
    entries = {}
    if not ALLOW.exists():
        return entries, []
    bad = []
    for no, line in enumerate(ALLOW.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        item, _, why = line.partition("#")
        if not why.strip():
            bad.append(f"{ALLOW.name}:{no}: `{item.strip()}` names no user")
        entries[item.strip()] = why.strip()
    return entries, bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="fail on items not in the allowlist")
    args = ap.parse_args()
    found, std_only = unused()
    for item, path, no in std_only:
        print(f"{item}  ({path}:{no})  maybe called only as a std method")
    print(f"{len(std_only)} public fns whose only matches are std-method-like calls (not an error)")
    if not args.check:
        for item, path, no in found:
            print(f"{item}  ({path}:{no})")
        print(f"{len(found)} public items without a caller outside tests")
        return 0
    entries, errors = allowed()
    names = {item for item, _, _ in found}
    for item, path, no in found:
        if item not in entries:
            errors.append(f"{path}:{no}: `{item}` has no caller outside tests")
    for item in entries:
        if item not in names:
            errors.append(f"{ALLOW.name}: `{item}` has a caller or is gone; drop its line")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"{len(found)} public items without a caller outside tests, each allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
