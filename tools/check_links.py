#!/usr/bin/env python3
"""Docs link checker: fails on dead relative links in README.md and docs/,
and on markdown files cited in source comments that do not exist.

Scans markdown inline links [text](target) and bare reference definitions
[label]: target. External targets (http/https/mailto) are skipped;
everything else is resolved relative to the containing file and must exist
in the working tree. Directory targets are allowed (e.g. a link to docs/).

Source comments (// and /* */ in .h/.cc/.cpp files under src/, bench/,
tests/ and examples/) that name a markdown file, such as
"see docs/SERVING.md", must name one that exists relative to the repo root
or to the source file's directory. A doc renamed or never written otherwise
leaves comments pointing nowhere. URLs in comments are skipped.

Fragments are validated, not stripped: a target like FILE.md#some-section
(or a pure in-page #some-section) must name a heading that actually exists
in the target file, using GitHub's slug rules (lowercase, punctuation
dropped, spaces to hyphens, -N suffixes for duplicates). A renamed heading
otherwise leaves a link that resolves to the page but silently lands at the
top.

Usage:
  python3 tools/check_links.py [root]      root defaults to the repo root
  python3 tools/check_links.py --self-test run fixture checks (dead links
                                           and dead anchors must be caught,
                                           live ones must pass)

Exit status 1 if any link or anchor is dead, listing every offender.
"""

import os
import re
import sys
import tempfile

# Inline [text](target "title") — target ends at whitespace or ')'.
INLINE_LINK = re.compile(r"\[[^\]]*\]\(\s*<?([^)\s>]+)>?(?:\s+\"[^\"]*\")?\s*\)")
# Reference definition: [label]: target
REF_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+<?(\S+?)>?\s*$", re.MULTILINE)
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

SOURCE_DIRS = ("src", "bench", "tests", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
URL = re.compile(r"\w+://\S+")
MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def strip_code(text):
    """Drop fenced and inline code spans so example links aren't checked."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def targets_in(text):
    text = strip_code(text)
    for pattern in (INLINE_LINK, REF_DEF):
        for m in pattern.finditer(text):
            yield m.group(1)


def github_slug(heading):
    """GitHub's heading-to-anchor transform."""
    # Inline code/links inside the heading contribute their text only.
    heading = re.sub(r"`([^`]*)`", r"\1", heading)
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_in(md_path, cache={}):
    """Set of valid fragment slugs in a markdown file (with -N dedup)."""
    if md_path in cache:
        return cache[md_path]
    anchors = set()
    counts = {}
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    cache[md_path] = anchors
    return anchors


def check_file(md_path, root):
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    base = os.path.dirname(md_path)
    dead = []
    for target in targets_in(text):
        if target.startswith(SKIP_PREFIXES):
            continue
        path, _, fragment = target.partition("#")
        if path:
            resolved = os.path.normpath(
                os.path.join(root, path.lstrip("/"))
                if path.startswith("/")
                else os.path.join(base, path)
            )
            if not os.path.exists(resolved):
                dead.append((target, f"missing file {resolved}"))
                continue
        else:
            resolved = md_path  # pure in-page anchor
        if fragment:
            if not resolved.endswith(".md") or os.path.isdir(resolved):
                continue  # anchors into non-markdown targets: not checked
            if fragment.lower() not in anchors_in(resolved):
                dead.append(
                    (target,
                     f"no heading with anchor '#{fragment}' in {resolved}"))
    return dead


def source_files(root):
    files = []
    for sub in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, sub)):
            files += [os.path.join(dirpath, n) for n in names
                      if n.endswith(SOURCE_EXTS)]
    return sorted(files)


def dead_md_names(path, root):
    """(line, name) for every markdown file a comment in `path` cites that
    exists neither under the repo root nor beside `path`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    dead = []
    for comment in COMMENT.finditer(text):
        body = URL.sub(lambda m: " " * len(m.group(0)), comment.group(0))
        for m in MD_NAME.finditer(body):
            name = m.group(0)
            if any(os.path.exists(os.path.join(base, name))
                   for base in (root, os.path.dirname(path))):
                continue
            line = text.count("\n", 0, comment.start() + m.start()) + 1
            dead.append((line, name))
    return dead


def run(root):
    files = [os.path.join(root, "README.md")]
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        files += sorted(
            os.path.join(docs_dir, n)
            for n in os.listdir(docs_dir)
            if n.endswith(".md")
        )

    failures = 0
    for md in files:
        if not os.path.exists(md):
            print(f"MISSING FILE {md}")
            failures += 1
            continue
        for target, why in check_file(md, root):
            rel = os.path.relpath(md, root)
            print(f"DEAD LINK {rel}: ({target}) -> {why}")
            failures += 1

    sources = source_files(root)
    for path in sources:
        for line, name in dead_md_names(path, root):
            rel = os.path.relpath(path, root)
            print(f"DEAD DOC REFERENCE {rel}:{line}: {name} -> no such file")
            failures += 1

    if failures:
        print(f"{failures} dead link(s)")
        return 1
    print(f"checked {len(files)} doc(s) and {len(sources)} source file(s): "
          f"all links, anchors and cited docs resolve")
    return 0


# ---- self-test --------------------------------------------------------------

GOOD_README = """\
# Overview

See [the guide](docs/GUIDE.md), [setup](docs/GUIDE.md#getting-started),
[the FAQ entry](docs/GUIDE.md#why-c17), and [below](#local-notes).

## Local Notes

Text. Duplicate-heading anchors: [second](docs/GUIDE.md#details-1).
"""

GOOD_GUIDE = """\
# Guide

## Getting Started

## Why C++17?

## Details

## Details

```sh
# not a heading: fenced code
```
"""


def self_test():
    cases = [
        ("clean fixture passes", None, False),
        ("dead file caught",
         ("README.md", "[gone](docs/NOPE.md)\n"), True),
        ("dead same-file anchor caught",
         ("README.md", "# T\n\n[x](#no-such-heading)\n"), True),
        ("dead cross-file anchor caught",
         ("README.md", "[x](docs/GUIDE.md#renamed-section)\n"), True),
        ("out-of-range duplicate anchor caught",
         ("README.md", "[x](docs/GUIDE.md#details-2)\n"), True),
        ("source comment citing an existing doc passes",
         ("src/widget.h", "// Widgets; see docs/GUIDE.md.\nint w;\n"), False),
        ("source comment citing a missing doc caught",
         ("src/widget.h", "// Widgets; see DESIGN.md Section 1.\nint w;\n"),
         True),
        ("missing doc in a bench block comment caught",
         ("bench/bench_w.cc", "/* Compares widgets\n   (docs/NOPE.md). */\n"),
         True),
        (".md in a string literal or a URL NOT flagged",
         ("tests/w_test.cc",
          "const char* k = \"NOPE.md\";  // https://example.com/NOPE.md\n"),
         False),
    ]
    misses = 0
    for name, patch, expect_fail in cases:
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "docs"))
            with open(os.path.join(root, "README.md"), "w") as f:
                f.write(GOOD_README)
            with open(os.path.join(root, "docs", "GUIDE.md"), "w") as f:
                f.write(GOOD_GUIDE)
            if patch:
                path = os.path.join(root, patch[0])
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(patch[1])
            # anchors_in caches by path; temp dirs are unique per case, so
            # the cache cannot leak stale fixture state between cases.
            sys.stdout.write(f"--- {name}\n")
            rc = run(root)
            ok = (rc != 0) == expect_fail
            print(f"{'PASS' if ok else 'MISS'}: {name}")
            misses += 0 if ok else 1
    if misses:
        print(f"self-test: {misses} case(s) missed")
        return 1
    print(f"self-test: all {len(cases)} cases behave")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    args = [a for a in sys.argv[1:] if not a.startswith("-")]
    root = args[0] if args else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return run(root)


if __name__ == "__main__":
    sys.exit(main())
