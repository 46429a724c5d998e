#!/usr/bin/env python3
"""Repo-contract lint: enforces conventions the compiler cannot see.

Seven checks, each meant to stop a specific silent-rot failure mode:

1. naked-primitives — no `std::mutex` / `std::lock_guard` / `std::unique_lock`
   / `std::scoped_lock` / `std::shared_lock` / `std::condition_variable*` /
   `std::shared_mutex` outside src/common/thread_annotations.h. State behind
   a naked primitive is invisible to Clang's thread-safety analysis, so one
   naked mutex quietly exempts its fields from the -Werror=thread-safety CI
   leg. Comments and string literals are stripped before matching.

2. bench-names — every benchmark referenced by the CI smoke filter
   (SMOKE_FILTER in .github/workflows/ci.yml) and every row in BENCH_*.json
   must correspond to a BENCHMARK(...) registration in bench/*.cc. A renamed
   benchmark otherwise keeps CI green while the smoke run silently matches
   nothing and the perf gate diffs against a ghost.

3. header-contracts — every header under src/ must carry the ownership /
   thread-safety contract comment (a comment mentioning "ownership" and one
   mentioning "thread"), the documentation contract established for kernel
   headers in the serving-layer PR and extended repo-wide here.

4. config-knobs — every field of CajadeConfig (src/core/config.h) must
   appear backticked in docs/SERVING.md's engine-knobs tables. A knob added
   without a documented default and meaning is invisible to operators; this
   bit the sharded-APT work (`apt_shard_rows` gates a whole pipeline), so
   the contract is enforced for all knobs.

5. oracle-boundary — no file under src/ includes a header from tests/, and
   no function named Reference* is declared (or called) under src/. The
   differential-testing oracles live in tests/oracles, a library only the
   tests and bench_micro link; an oracle declared in src/ would be compiled
   into the engine again, and a src/ include of a tests/ header would make
   the engine depend on test code.

6. once-protocol — `std::promise` / `std::shared_future` appear under src/
   only in src/common/once_lru_cache.h. The build-once protocol (one build
   per key behind a shared_future, failures to every waiter) is written and
   tested once there; hand-rolled copies of it drift apart.

7. dead-api — every free function declared at namespace scope in a src/
   header must be referenced by code outside tests/ (src/, bench/,
   bench_e2e/, examples/) other than by its own declarations and
   definitions, or be on DEAD_API_ALLOWLIST with a reason. Any mention
   counts, so taking a function's address is a use. Otherwise a function
   only tests call keeps growing in the engine library. Member functions
   are out of reach of this check.

Usage:
  python3 tools/lint_contracts.py [root]     lint the tree (root defaults to
                                             the repo containing this script)
  python3 tools/lint_contracts.py --self-test
      run the lint against seeded-violation fixtures in a temp dir and fail
      unless every seeded violation is caught and the clean fixture passes.

Exit status 1 on any violation (or self-test miss), listing every offender.
"""

import glob
import json
import os
import re
import sys
import tempfile

NAKED_PRIMITIVE = re.compile(
    r"\bstd\s*::\s*("
    r"mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable|condition_variable_any"
    r")\b"
)

WRAPPER_HEADER = os.path.join("src", "common", "thread_annotations.h")

# Leading identifier run of one SMOKE_FILTER regex alternative, e.g.
# "ExecuteSpj(Seed|Typed)/10000$" -> "ExecuteSpj".
FILTER_TOKEN = re.compile(r"^[A-Za-z0-9_]+")

BENCHMARK_DECL = re.compile(r"\bBENCHMARK\s*\(\s*(BM_[A-Za-z0-9_]+)\s*\)")

# The load harness (bench_load.cc) registers scenarios by string name
# rather than the BENCHMARK macro, so BM_ names inside string literals are
# registrations too.
BENCHMARK_STRING = re.compile(r"\"(BM_[A-Za-z0-9_]+)")


def split_top_level(expr, sep="|"):
    """Split a regex on `sep` at paren depth 0 only, so nested groups like
    Foo/(1|4)/ stay attached to their alternative."""
    parts, depth, cur = [], 0, []
    for ch in expr:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def strip_comments_and_strings(text):
    """Remove comments, string literals, and char literals from C++ source."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j  # keep the newline for line numbers
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def comment_text(text):
    """Return just the comment contents of C++ source (inverse of strip)."""
    chunks = re.findall(r"//[^\n]*|/\*.*?\*/", text, flags=re.DOTALL)
    return "\n".join(chunks)


def cxx_files(root, subdirs):
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        for ext in ("h", "cc"):
            files += glob.glob(os.path.join(base, "**", "*." + ext),
                               recursive=True)
    return sorted(files)


def check_naked_primitives(root):
    """No concurrency primitives outside the annotated wrapper header."""
    errors = []
    wrapper = os.path.join(root, WRAPPER_HEADER)
    for path in cxx_files(root, ["src", "tests", "bench", "examples"]):
        if os.path.abspath(path) == os.path.abspath(wrapper):
            continue
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = NAKED_PRIMITIVE.search(line)
            if m:
                rel = os.path.relpath(path, root)
                errors.append(
                    f"{rel}:{lineno}: naked std::{m.group(1)} — use the "
                    f"annotated wrappers in {WRAPPER_HEADER} so the "
                    f"thread-safety analysis can see this state")
    return errors


def declared_benchmarks(root):
    names = set()
    for path in cxx_files(root, ["bench"]):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        names |= set(BENCHMARK_DECL.findall(strip_comments_and_strings(raw)))
        # String registrations must not count when commented out, so strip
        # comments but keep string literals for this pass.
        no_comments = re.sub(r"//[^\n]*|/\*.*?\*/", "", raw, flags=re.DOTALL)
        names |= set(BENCHMARK_STRING.findall(no_comments))
    return names


def smoke_filter_value(root):
    ci = os.path.join(root, ".github", "workflows", "ci.yml")
    if not os.path.exists(ci):
        return None
    with open(ci, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"\s*SMOKE_FILTER:\s*(.+?)\s*$", line)
            if m:
                return m.group(1).strip("'\"")
    return None


def check_bench_names(root):
    """SMOKE_FILTER tokens and BENCH_*.json rows must name real benchmarks."""
    errors = []
    declared = declared_benchmarks(root)
    if not declared:
        return ["bench: no BENCHMARK(...) registrations found under bench/"]

    smoke = smoke_filter_value(root)
    if smoke is None:
        errors.append("bench: SMOKE_FILTER not found in "
                      ".github/workflows/ci.yml")
    else:
        for alternative in split_top_level(smoke):
            m = FILTER_TOKEN.match(alternative)
            if not m:
                continue  # pure-metachar fragment of a nested group
            token = m.group(0)
            if not any(token in name for name in declared):
                errors.append(
                    f"ci.yml: SMOKE_FILTER token '{token}' matches no "
                    f"BENCHMARK registration in bench/ — the smoke run "
                    f"would silently skip it")

    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                errors.append(f"{rel}: invalid JSON: {e}")
                continue
        for row in doc.get("benchmarks", []):
            base = row.get("name", "").split("/", 1)[0]
            if base not in declared:
                errors.append(
                    f"{rel}: baseline row '{row.get('name')}' names "
                    f"benchmark '{base}' which is not registered in bench/ "
                    f"— stale baseline, regenerate or rename")
    return errors


def check_header_contracts(root):
    """Every src/ header documents ownership and thread-safety in comments."""
    errors = []
    for path in cxx_files(root, ["src"]):
        if not path.endswith(".h"):
            continue
        with open(path, encoding="utf-8") as f:
            comments = comment_text(f.read())
        missing = []
        if not re.search(r"ownership", comments, re.IGNORECASE):
            missing.append("ownership")
        if not re.search(r"thread", comments, re.IGNORECASE):
            missing.append("thread-safety")
        if missing:
            rel = os.path.relpath(path, root)
            errors.append(
                f"{rel}: header lacks the {' and '.join(missing)} contract "
                f"comment (see src/common/thread_annotations.h for the "
                f"convention)")
    return errors


CONFIG_HEADER = os.path.join("src", "core", "config.h")
KNOBS_DOC = os.path.join("docs", "SERVING.md")

# A CajadeConfig field declaration: built-in scalar type, snake_case name,
# initializer. The declared types are deliberately enumerated — locals in
# helper functions (char*, unsigned long long) stay out of scope.
CONFIG_FIELD = re.compile(
    r"^\s*(?:int|double|bool|size_t|uint64_t)\s+([a-z][a-z0-9_]*)\s*=",
    re.MULTILINE)


def check_config_knobs(root):
    """Every CajadeConfig field has a backticked row in SERVING.md."""
    config = os.path.join(root, CONFIG_HEADER)
    if not os.path.exists(config):
        return []  # partial tree (e.g. self-test fixtures without an engine)
    with open(config, encoding="utf-8") as f:
        fields = CONFIG_FIELD.findall(strip_comments_and_strings(f.read()))
    doc_path = os.path.join(root, KNOBS_DOC)
    if not os.path.exists(doc_path):
        return [f"{KNOBS_DOC}: missing, but {CONFIG_HEADER} declares "
                f"{len(fields)} engine knobs that must be documented there"]
    with open(doc_path, encoding="utf-8") as f:
        doc = f.read()
    errors = []
    for name in fields:
        if f"`{name}`" not in doc:
            errors.append(
                f"{CONFIG_HEADER}: config knob '{name}' has no backticked "
                f"entry in {KNOBS_DOC} — add it to the engine-knobs tables "
                f"(default + meaning)")
    return errors


TEST_INCLUDE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*[<"](tests/[^>"]*)[>"]',
                          re.MULTILINE)

ORACLE_NAME = re.compile(r"\b(Reference[A-Z_]\w*)\s*\(")


def strip_comments(text):
    """Remove comments but keep string literals (include paths)."""
    return re.sub(r"//[^\n]*|/\*.*?\*/",
                  lambda m: "\n" * m.group(0).count("\n"), text,
                  flags=re.DOTALL)


def check_oracle_boundary(root):
    """src/ neither includes tests/ headers nor declares Reference* oracles."""
    errors = []
    for path in cxx_files(root, ["src"]):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        no_comments = strip_comments(raw)
        for m in TEST_INCLUDE.finditer(no_comments):
            lineno = no_comments.count("\n", 0, m.start()) + 1
            errors.append(
                f"{rel}:{lineno}: includes the test header {m.group(1)} — "
                f"the engine must not depend on test code")
        code = strip_comments_and_strings(raw)
        for lineno, line in enumerate(code.splitlines(), start=1):
            for name in ORACLE_NAME.findall(line):
                errors.append(
                    f"{rel}:{lineno}: {name} under src/ — differential "
                    f"oracles live in tests/oracles (the cajade_oracles "
                    f"library), not in the engine")
    return errors


ONCE_PRIMITIVE = re.compile(r"\bstd\s*::\s*(promise|shared_future)\b")

ONCE_HEADER = os.path.join("src", "common", "once_lru_cache.h")


def check_once_protocol(root):
    """src/ builds-once only through OnceLruCache."""
    errors = []
    for path in cxx_files(root, ["src"]):
        rel = os.path.relpath(path, root)
        if rel == ONCE_HEADER:
            continue
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(code.splitlines(), start=1):
            m = ONCE_PRIMITIVE.search(line)
            if m:
                errors.append(
                    f"{rel}:{lineno}: std::{m.group(1)} outside "
                    f"{ONCE_HEADER} — build-once caching goes through "
                    f"OnceLruCache, not a new copy of its protocol")
    return errors


# Free functions in src/ headers that may stay without a caller outside
# tests/, each with the reason it stays.
DEAD_API_ALLOWLIST = {
    "ParseExpression": "the parser's expression entry point; sql_test and "
                       "exec_test use it as a seam",
}

# Directories whose code counts as a use of an engine function.
NON_TEST_DIRS = ["src", "bench", "bench_e2e", "examples"]

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def strip_preprocessor(code):
    """Blank out preprocessor directives, continuation lines included, so a
    function-like macro is not read as a declaration."""
    out, continued = [], False
    for line in code.split("\n"):
        directive = continued or line.lstrip().startswith("#")
        continued = directive and line.rstrip().endswith("\\")
        out.append("" if directive else line)
    return "\n".join(out)


def skip_template_header(stmt):
    """Drop a leading `template <...>` (angle brackets balanced)."""
    m = re.match(r"\s*template\s*<", stmt)
    if not m:
        return stmt
    depth, i = 1, m.end()
    while i < len(stmt) and depth:
        depth += {"<": 1, ">": -1}.get(stmt[i], 0)
        i += 1
    return skip_template_header(stmt[i:])


NOT_A_FUNCTION = re.compile(
    r"\s*(using|typedef|class|struct|union|enum|namespace|friend|"
    r"static_assert|extern)\b")


def declared_function(stmt):
    """The name of the free function a namespace-scope statement declares or
    defines, or None (types, variables, macro calls, member definitions,
    operators)."""
    stmt = skip_template_header(stmt)
    if NOT_A_FUNCTION.match(stmt):
        return None
    paren = stmt.find("(")
    if paren < 0:
        return None
    head = stmt[:paren].rstrip()
    if "=" in head:
        return None  # a variable initialized by a call
    m = re.search(r"([A-Za-z_]\w*)$", head)
    if not m:
        return None  # operator overloads end in punctuation
    before = head[:m.start()].rstrip()
    if not before or before.endswith("::") or m.group(1) == "operator":
        return None  # a macro call (no return type) or a member definition
    return m.group(1)


def namespace_scope_functions(code):
    """Names of the free functions declared or defined at namespace scope in
    `code` (comments, strings and preprocessor lines already stripped), one
    entry per declaration or definition."""
    names = []
    stack = []  # one entry per open brace: True for a namespace body
    start, parens = 0, 0

    def at_namespace_scope():
        return all(stack) and parens == 0

    for i, c in enumerate(code):
        if c == "(":
            parens += 1 if all(stack) else 0
        elif c == ")":
            parens -= 1 if all(stack) and parens else 0
        elif c == "{":
            if at_namespace_scope():
                stmt = code[start:i]
                is_namespace = re.search(r"\bnamespace\b", stmt) is not None
                if not is_namespace:
                    name = declared_function(stmt)
                    if name:
                        names.append(name)
                stack.append(is_namespace)
                start = i + 1
            else:
                stack.append(False)
        elif c == "}":
            if stack:
                stack.pop()
            if at_namespace_scope():
                start = i + 1
        elif c == ";" and at_namespace_scope():
            name = declared_function(code[start:i])
            if name:
                names.append(name)
            start = i + 1
    return names


def check_dead_api(root):
    """Every free function of a src/ header has a use outside tests/."""
    declared = {}  # name -> header declaring it
    for path in cxx_files(root, ["src"]):
        if not path.endswith(".h"):
            continue
        with open(path, encoding="utf-8") as f:
            code = strip_preprocessor(strip_comments_and_strings(f.read()))
        for name in namespace_scope_functions(code):
            declared.setdefault(name, os.path.relpath(path, root))
    uses = dict.fromkeys(declared, 0)
    for path in cxx_files(root, NON_TEST_DIRS):
        with open(path, encoding="utf-8") as f:
            code = strip_comments_and_strings(f.read())
        for token in IDENTIFIER.findall(code):
            if token in uses:
                uses[token] += 1
        for name in namespace_scope_functions(strip_preprocessor(code)):
            if name in uses:
                uses[name] -= 1  # its own declaration or definition
    errors = []
    for name in sorted(declared):
        if uses[name] > 0 or name in DEAD_API_ALLOWLIST:
            continue
        errors.append(
            f"{declared[name]}: {name} is declared for the engine but "
            f"nothing outside tests/ uses it — delete it, move it to the "
            f"test-only code, or add it to DEAD_API_ALLOWLIST with a reason")
    return errors


CHECKS = [
    ("naked-primitives", check_naked_primitives),
    ("bench-names", check_bench_names),
    ("header-contracts", check_header_contracts),
    ("config-knobs", check_config_knobs),
    ("oracle-boundary", check_oracle_boundary),
    ("once-protocol", check_once_protocol),
    ("dead-api", check_dead_api),
]


def run_lint(root, quiet=False):
    failures = 0
    for name, check in CHECKS:
        errors = check(root)
        for err in errors:
            if not quiet:
                print(f"[{name}] {err}")
        failures += len(errors)
    if not quiet:
        if failures:
            print(f"lint_contracts: {failures} violation(s)")
        else:
            print("lint_contracts: all contracts hold")
    return failures


# ---- self-test --------------------------------------------------------------
# Builds a miniature repo in a temp dir, seeds one violation per check, and
# asserts the lint catches each one — so a refactor of the lint itself cannot
# silently stop enforcing.

CLEAN_HEADER = """\
// Widget registry.
//
// Ownership and thread-safety: the registry owns its widgets; all methods
// are thread-compatible (external synchronization required).
#ifndef MINI_SRC_WIDGET_H_
#define MINI_SRC_WIDGET_H_
struct Widget {};
#endif
"""

CLEAN_BENCH = """\
#include <cstdint>
void BM_Widget(int64_t);  // placeholder: "std::mutex" in strings is ignored
BENCHMARK(BM_Widget);
const char* kScenario = "BM_Gadget/4";  // string registration (load harness)
// const char* kRetired = "BM_Retired/4";  // commented out: must not count
"""

CLEAN_CI = """\
env:
  SMOKE_FILTER: 'Widget/10$'
"""

CLEAN_JSON = '{"benchmarks": [{"name": "BM_Widget/10"}]}\n'

CLEAN_CONFIG = """\
// Engine knobs.
//
// Ownership and thread-safety: plain value struct, copy per thread.
#ifndef MINI_SRC_CORE_CONFIG_H_
#define MINI_SRC_CORE_CONFIG_H_
struct MiniConfig {
  int widget_count = 3;
  // double retired_knob = 0.5;  // commented out: must not require a row
  size_t shard_rows = 0;
};
#endif
"""

CLEAN_SERVING = """\
# Serving

| Knob | Default | Meaning |
| --- | --- | --- |
| `widget_count` | 3 | widgets per request |
| `shard_rows` | 0 | rows per shard (0 = one full-range shard) |
"""

# The oracles live under tests/: their declarations, definitions and calls
# are all legal there.
CLEAN_ORACLE_HEADER = """\
// Widget oracles.
#ifndef MINI_TESTS_ORACLES_ORACLES_H_
#define MINI_TESTS_ORACLES_ORACLES_H_
int ReferenceMaterializeApt(int rows);
#endif
"""

CLEAN_ORACLE_SOURCE = """\
#include "tests/oracles/oracles.h"
int ReferenceMaterializeApt(int rows) { return rows; }
int Twice(int rows) { return 2 * ReferenceMaterializeApt(rows); }
"""

# An engine header whose one free function production code calls.
CLEAN_API_HEADER = """\
// Widget counting.
//
// Ownership and thread-safety: stateless free functions.
#ifndef MINI_SRC_WIDGET_API_H_
#define MINI_SRC_WIDGET_API_H_
namespace mini {
int CountWidgets(int rows);
}  // namespace mini
#endif
"""

# Production code: a mention of an oracle in a comment or string is not a
# call, and the engine function has its caller here.
CLEAN_CALLER = """\
#include "src/widget_api.h"
// Unlike ReferenceMaterializeApt(rows), the kernel path is production code.
const char* kNote = "ReferenceExecuteSpj(query) is test-only";
namespace mini {
int CountWidgets(int rows) { return rows; }
int Explain(int rows) { return CountWidgets(rows); }
}  // namespace mini
"""

# The one home of the build-once protocol: its promise/shared_future are
# legal here and nowhere else under src/.
CLEAN_ONCE_HEADER = """\
// Build-once cache.
//
// Ownership and thread-safety: owns its entries; safe for concurrent use.
#ifndef MINI_SRC_COMMON_ONCE_LRU_CACHE_H_
#define MINI_SRC_COMMON_ONCE_LRU_CACHE_H_
#include <future>
struct Entry {
  std::promise<int> promise;
  std::shared_future<int> ready = promise.get_future();
};
#endif
"""


def write_fixture(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def make_clean_tree(root):
    write_fixture(root, os.path.join("src", "widget.h"), CLEAN_HEADER)
    write_fixture(root, os.path.join("bench", "bench_widget.cc"), CLEAN_BENCH)
    write_fixture(root, os.path.join(".github", "workflows", "ci.yml"),
                  CLEAN_CI)
    write_fixture(root, "BENCH_widget.json", CLEAN_JSON)
    write_fixture(root, CONFIG_HEADER, CLEAN_CONFIG)
    write_fixture(root, KNOBS_DOC, CLEAN_SERVING)
    write_fixture(root, os.path.join("tests", "oracles", "oracles.h"),
                  CLEAN_ORACLE_HEADER)
    write_fixture(root, os.path.join("tests", "oracles", "apt_oracle.cc"),
                  CLEAN_ORACLE_SOURCE)
    write_fixture(root, os.path.join("src", "widget_api.h"),
                  CLEAN_API_HEADER)
    write_fixture(root, os.path.join("src", "core", "explainer.cc"),
                  CLEAN_CALLER)
    write_fixture(root, ONCE_HEADER, CLEAN_ONCE_HEADER)


def self_test():
    cases = []

    def case(name, mutate, expect_fail):
        cases.append((name, mutate, expect_fail))

    case("clean tree passes", lambda root: None, False)
    case("naked std::mutex caught",
         lambda root: write_fixture(
             root, os.path.join("src", "naked.cc"),
             '#include <mutex>\nstd::mutex mu;  // seeded violation\n'),
         True)
    case("naked primitive inside comment NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("src", "commented.cc"),
             '// std::mutex is banned here; see thread_annotations.h\n'
             'int x = 0;\n'),
         False)
    case("nested-group SMOKE_FILTER alternative accepted",
         lambda root: write_fixture(
             root, os.path.join(".github", "workflows", "ci.yml"),
             "env:\n  SMOKE_FILTER: 'Widget(/10|/20)$|Gadget/(1|4)/'\n"),
         False)
    case("string-registered benchmark accepted",
         lambda root: write_fixture(
             root, "BENCH_widget.json",
             '{"benchmarks": [{"name": "BM_Gadget/4"}]}\n'),
         False)
    case("commented-out string registration NOT counted",
         lambda root: write_fixture(
             root, "BENCH_widget.json",
             '{"benchmarks": [{"name": "BM_Retired/4"}]}\n'),
         True)
    case("unknown SMOKE_FILTER token caught",
         lambda root: write_fixture(
             root, os.path.join(".github", "workflows", "ci.yml"),
             "env:\n  SMOKE_FILTER: 'Widget/10$|Ghost/8$'\n"),
         True)
    case("stale BENCH_*.json row caught",
         lambda root: write_fixture(
             root, "BENCH_widget.json",
             '{"benchmarks": [{"name": "BM_Renamed/10"}]}\n'),
         True)
    case("header without contract comment caught",
         lambda root: write_fixture(
             root, os.path.join("src", "bare.h"),
             "#ifndef MINI_SRC_BARE_H_\n#define MINI_SRC_BARE_H_\n"
             "struct Bare {};\n#endif\n"),
         True)
    case("undocumented config knob caught",
         lambda root: write_fixture(
             root, CONFIG_HEADER,
             CLEAN_CONFIG.replace("  size_t shard_rows = 0;",
                                  "  size_t shard_rows = 0;\n"
                                  "  bool ghost_knob = true;")),
         True)
    case("knob named in prose without backticks still caught",
         lambda root: write_fixture(
             root, KNOBS_DOC,
             CLEAN_SERVING + "\nshard_extra is tuned automatically.\n") or
         write_fixture(
             root, CONFIG_HEADER,
             CLEAN_CONFIG.replace("  size_t shard_rows = 0;",
                                  "  size_t shard_rows = 0;\n"
                                  "  int shard_extra = 1;")),
         True)
    case("missing knobs doc caught when config exists",
         lambda root: os.remove(os.path.join(root, KNOBS_DOC)),
         True)
    case("oracle called from tests/ NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("tests", "apt_diff_test.cc"),
             '#include "tests/oracles/oracles.h"\n'
             "int Diff(int rows) { return ReferenceMaterializeApt(rows); }\n"),
         False)
    case("tests/ header included from src/ caught",
         lambda root: write_fixture(
             root, os.path.join("src", "core", "explainer.cc"),
             '#include "tests/oracles/oracles.h"  // seeded\n' +
             CLEAN_CALLER),
         True)
    case("tests/ include inside a src/ comment NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("src", "core", "explainer.cc"),
             '// #include "tests/oracles/oracles.h" is not allowed here\n' +
             CLEAN_CALLER),
         False)
    case("Reference* oracle declared under src/ caught",
         lambda root: write_fixture(
             root, os.path.join("src", "widget_api.h"),
             CLEAN_API_HEADER.replace(
                 "int CountWidgets(int rows);",
                 "int CountWidgets(int rows);\n"
                 "int ReferenceCountWidgets(int rows);  // seeded")),
         True)
    case("oracle called from production code caught",
         lambda root: write_fixture(
             root, os.path.join("src", "core", "explainer.cc"),
             CLEAN_CALLER + "int Build(int rows) {\n"
             "  return ReferenceMaterializeApt (rows);  // seeded\n}\n"),
         True)
    case("engine function only tests call caught",
         lambda root: write_fixture(
             root, os.path.join("src", "widget_api.h"),
             CLEAN_API_HEADER.replace(
                 "int CountWidgets(int rows);",
                 "int CountWidgets(int rows);\n"
                 "int RetiredWidgets(int rows);  // seeded")) or
         write_fixture(
             root, os.path.join("src", "widget_api.cc"),
             '#include "src/widget_api.h"\n'
             "namespace mini {\n"
             "int RetiredWidgets(int rows) { return rows; }\n"
             "}  // namespace mini\n") or
         write_fixture(
             root, os.path.join("tests", "widget_test.cc"),
             "int Check() { return mini::RetiredWidgets(1); }\n"),
         True)
    case("engine function used only through its address NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("src", "core", "explainer.cc"),
             CLEAN_CALLER.replace("return CountWidgets(rows);",
                                  "auto* count = &CountWidgets;\n"
                                  "  return count(rows);")),
         False)
    case("engine function used in its own header's initializer NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("src", "widget_api.h"),
             CLEAN_API_HEADER.replace(
                 "int CountWidgets(int rows);",
                 "int CountWidgets(int rows);\n"
                 "inline int DefaultRows() { return 3; }\n"
                 "struct WidgetOptions {\n"
                 "  int rows = DefaultRows();\n"
                 "};")),
         False)
    case("function-like macro NOT read as a declaration",
         lambda root: write_fixture(
             root, os.path.join("src", "widget_api.h"),
             CLEAN_API_HEADER.replace(
                 "int CountWidgets(int rows);",
                 "#define CAPABILITY(x) \\\n"
                 "  __attribute__((capability(x)))\n"
                 "int CountWidgets(int rows);")),
         False)
    case("engine function declared after a multi-line macro still caught",
         lambda root: write_fixture(
             root, os.path.join("src", "widget_api.h"),
             CLEAN_API_HEADER.replace(
                 "int CountWidgets(int rows);",
                 "#define CAPABILITY(x) \\\n"
                 "  __attribute__((capability(x)))\n"
                 "int RetiredWidgets(int rows);  // seeded\n"
                 "int CountWidgets(int rows);")),
         True)
    case("allowlisted engine function without a caller NOT flagged",
         lambda root: write_fixture(
             root, os.path.join("src", "sql", "parser.h"),
             "// Parser.\n//\n// Ownership and thread-safety: stateless.\n"
             "int ParseExpression(const char* text);\n"),
         False)
    case("once_lru_cache.h's own promise/shared_future NOT flagged",
         lambda root: None, False)
    case("shared_future outside once_lru_cache.h caught",
         lambda root: write_fixture(
             root, os.path.join("src", "serve", "result_cache.cc"),
             "#include <future>\n"
             "std::shared_future<int> ready;  // seeded\n"),
         True)

    misses = 0
    for name, mutate, expect_fail in cases:
        with tempfile.TemporaryDirectory() as root:
            make_clean_tree(root)
            mutate(root)
            failures = run_lint(root, quiet=True)
            ok = (failures > 0) == expect_fail
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
    return 1 if run_lint(root) else 0


if __name__ == "__main__":
    sys.exit(main())
