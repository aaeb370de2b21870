#!/usr/bin/env python3
"""Over-export scan: every value a library interface exports needs a caller.

Each `val` in lib/**/*.mli must be referenced outside its own module
(the .ml/.mli pair it lives in) by code under lib/, bin/, bench/,
examples/ or e2ebench/.  A value kept for another reason (a test hook,
a recovery reader, an exporter) says why in its own doc comment: a
`Kept:` sentence in the odoc comment attached to the `val`, directly
before it or directly after it with no blank line between.  The scan
fails on a value that has no such caller and no `Kept:` reason, and on
a `Kept:` value that has gained a caller, so the reason cannot go stale.

The scan is by name, after stripping comments and string literals:
  * `M.v`, `Lib.M.v` and `X.v` under `module X = ...M` refer to M.v;
  * inside a file that opens M (`open M`, `let open M in`, `M.( ... )`)
    a bare `v` refers to M.v;
  * a value of a nested module `M.Sub` is matched on `Sub`.

Usage: python3 ci/exports.py   (from the repository root)
Exit status: 0 clean, 1 on an unexplained or stale value.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "bench", "examples", "e2ebench"]
TEST_DIR = "test"
ITEMS = {"val", "type", "module", "exception", "include", "open", "external",
         "end"}

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
OPCHARS = set("!$%&*+-./:<=>?@^|~#")


def strip(src, docs=None):
    """Source with comments and string/char literals blanked out, line
    breaks kept.  When [docs] is a list, each doc comment `(** ... *)` is
    appended to it as (first line, last line, text)."""
    out = []
    i, n, depth, line = 0, len(src), 0, 1
    doc = None
    while i < n:
        c = src[i]
        if src.startswith("(*", i) and not src.startswith("(*)", i):
            if not depth and src.startswith("(**", i) and not src.startswith("(**)", i):
                doc = (line, i)
            depth += 1
            i += 2
            continue
        if depth and src.startswith("*)", i):
            depth -= 1
            i += 2
            if not depth and doc is not None:
                if docs is not None:
                    docs.append((doc[0], line, src[doc[1] : i]))
                doc = None
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            breaks = src.count("\n", i, j + 1)
            line += breaks
            i = j + 1
            if not depth:
                out.append('""' + "\n" * breaks)
            else:
                out.append("\n" * breaks)
            continue
        if c == "'" and not depth:
            prev = src[i - 1] if i else " "
            if not (prev.isalnum() or prev == "_"):
                m = re.match(r"'(\\[^']*|[^\\'])'", src[i:])
                if m:
                    i += m.end()
                    out.append("' '")
                    continue
        if c == "\n":
            line += 1
        if not depth or c == "\n":
            out.append(c)
        i += 1
    return "".join(out)


def tokens(src, lines=False):
    """Identifiers, dots and single punctuation, in order; with [lines],
    (token, line) pairs."""
    toks = []
    i, n, line = 0, len(src), 1
    while i < n:
        c = src[i]
        j = i + 1
        if c.isspace():
            line += c == "\n"
            i = j
            continue
        if c.isalpha() or c == "_":
            j = IDENT.match(src, i).end()
        elif c in OPCHARS and c != ".":
            while j < n and src[j] in OPCHARS:
                j += 1
        toks.append((src[i:j], line) if lines else src[i:j])
        i = j
    return toks


def is_mod(t):
    return t[:1].isupper()


def is_val(t):
    return t[:1].islower() or t[:1] == "_"


def module_of(path):
    return os.path.basename(path).split(".")[0].capitalize()


def exported_values(mli):
    """(module path, value name, kept) for each `val` of an interface;
    [kept] when an attached doc comment carries `Kept:`."""
    docs = []
    located = tokens(strip(open(mli).read(), docs), lines=True)
    toks = [t for t, _ in located]
    base = module_of(mli)
    # each item runs from its keyword to the token before the next one
    starts = [i for i, t in enumerate(toks) if t in ITEMS] + [len(toks)]
    spans = {
        a: (located[a][1], located[b - 1][1], toks[b - 1])
        for a, b in zip(starts, starts[1:])
    }
    # a comment starting on an item's last line or the next belongs to
    # that item; one ending on an item's first line or the line before
    # belongs to it unless it already belongs to the item above
    after = {
        d
        for d in docs
        for _, last, tail in spans.values()
        if tail not in ("sig", "struct") and last <= d[0] <= last + 1
    }

    def kept(i):
        first, last, _ = spans[i]
        return any(
            "Kept:" in d[2]
            and (
                (d not in after and first - 1 <= d[1] <= first)
                or (d in after and last <= d[0] <= last + 1)
            )
            for d in docs
        )

    stack, pending, vals = [], None, []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "module":
            if i + 1 < len(toks) and toks[i + 1] == "type":
                pending = "-"
            elif i + 1 < len(toks):
                pending = toks[i + 1]
        elif t == "sig":
            stack.append(pending or "-")
            pending = None
        elif t in ("struct", "begin", "object"):
            stack.append("-")
        elif t == "end":
            if stack:
                stack.pop()
        elif t in ("type", "exception", "include", "open"):
            if not (t == "type" and i and toks[i - 1] == "module"):
                pending = None
        elif t == "val":
            pending = None
            name = toks[i + 1]
            if name == "(":
                name = toks[i + 2]
            if "-" not in stack:
                vals.append((tuple([base] + stack), name, kept(i)))
        i += 1
    return vals


def module_path(toks, i):
    """Longest `A.B.C` module path starting at token i: (parts, next)."""
    parts = [toks[i]]
    j = i + 1
    while j + 1 < len(toks) and toks[j] == "." and is_mod(toks[j + 1]):
        parts.append(toks[j + 1])
        j += 2
    return parts, j


def references(ml):
    """Set of (module name, value name) an implementation file refers to."""
    toks = tokens(strip(open(ml).read()))
    aliases = {}
    for i, t in enumerate(toks):
        if (
            t == "module"
            and i + 3 < len(toks)
            and is_mod(toks[i + 1])
            and toks[i + 2] == "="
            and is_mod(toks[i + 3])
        ):
            parts, _ = module_path(toks, i + 3)
            aliases[toks[i + 1]] = parts

    def last(parts):
        seen = 0
        while parts[0] in aliases and seen < 8:
            parts = aliases[parts[0]] + parts[1:]
            seen += 1
        return parts[-1]

    refs, opened, bare = set(), set(), set()
    i = 0
    while i < len(toks):
        t = toks[i]
        if is_mod(t) and (i == 0 or toks[i - 1] != "."):
            parts, j = module_path(toks, i)
            m = last(parts)
            prev = toks[i - 1] if i else ""
            if prev == "open" or prev == "open!" or (
                j < len(toks) and toks[j] == "." and toks[j + 1 : j + 2] in (["("], ["["], ["{"])
            ):
                opened.add(m)
            if j + 1 < len(toks) and toks[j] == ".":
                nxt = toks[j + 1]
                if is_val(nxt):
                    refs.add((m, nxt))
                elif nxt == "(" and j + 3 < len(toks) and toks[j + 3] == ")":
                    refs.add((m, toks[j + 2]))
            i = j
            continue
        if (is_val(t) or t[0] in OPCHARS) and (i == 0 or toks[i - 1] != "."):
            bare.add(t)
        i += 1
    for m in opened:
        for v in bare:
            refs.add((m, v))
    return refs


def ml_files(d):
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
        dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
        for f in sorted(filenames):
            if f.endswith(".ml"):
                yield os.path.join(dirpath, f)


def own_module(ml, mli):
    return os.path.dirname(ml) == os.path.dirname(mli) and module_of(ml) == module_of(mli)


def main():
    mlis = sorted(
        os.path.join(dp, f)
        for dp, dn, fs in os.walk(os.path.join(ROOT, "lib"))
        for f in fs
        if f.endswith(".mli")
    )
    callers = [(ml, references(ml)) for d in CALLER_DIRS for ml in ml_files(d)]
    tests = [(ml, references(ml)) for ml in ml_files(TEST_DIR)]

    total, no_caller, test_only, kept_count, flagged = 0, [], [], 0, []
    for mli in mlis:
        for path, v, kept in exported_values(mli):
            total += 1
            kept_count += kept
            key = (path[-1], v)
            name = ".".join(path + (v,))
            outside = any(
                key in refs and not own_module(ml, mli) for ml, refs in callers
            )
            if outside:
                if kept:
                    flagged.append(f"{name}: has a caller, yet its doc comment says Kept:")
                continue
            in_tests = any(key in refs for _, refs in tests)
            (test_only if in_tests else no_caller).append(name)
            if not kept:
                flagged.append(
                    f"{name}: no caller outside its module"
                    + (" (only test/)" if in_tests else "")
                    + " and no Kept: reason in its doc comment"
                )

    print(
        f"exports: {total} values, {len(no_caller)} with no caller outside "
        f"their module, {len(test_only)} called only from test/, "
        f"{kept_count} with a Kept: reason"
    )
    for f in flagged:
        print("FAIL " + f)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
