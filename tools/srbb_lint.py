#!/usr/bin/env python3
"""Determinism lint for SRBB (runs as the `srbb_lint` ctest test).

Every validator must derive bit-identical superblock results, so constructs
whose output depends on process-local state (ASLR, hash seeds, wall clocks,
libc PRNGs) are consensus poison. This linter scans src/ for the patterns
that have historically caused replica divergence in production chains:

  nondet-source    rand()/std::random_device/std::mt19937/system_clock/...
                   anywhere outside src/common/rng.* (the audited
                   deterministic RNG) — wall clocks and libc PRNGs differ
                   across replicas.
  unordered-iter   ranged-for over a std::unordered_{map,set}: iteration
                   order is implementation- and seed-defined, so any hash,
                   serialization, or state mutation fed from it can diverge.
  pointer-key      containers keyed on pointer values: ASLR makes ordering
                   and hashing differ per process.
  uninit-field     scalar struct fields without initializers in files that
                   RLP-encode structs: encoding an indeterminate value is
                   UB and trivially divergent.
  analysis-cache-mutation
                   AnalysisCache clear()/set_metrics() outside
                   src/evm/analysis/: the cache backs the parallel
                   executor's rw-set hints while workers run; mutation from
                   scheduler code races them.
  interproc-bypass direct AnalysisCache summary lookups from src/txn/: a
                   per-contract summary ignores everything behind a CALL,
                   so scheduler/validation code consuming it directly ships
                   stale cross-contract facts. The sanctioned path is the
                   state-keyed InterprocCache wrapper, which revalidates
                   every resolved call edge against the queried state.
  message-dynamic-cast
                   dynamic_cast on a sim::Message (a *Msg/*Message target
                   type, or a message/msg operand): receivers dispatch on
                   Message::kind and convert with sim::msg_cast<T>, a byte
                   compare, where a dynamic_cast chain costs a type_info walk
                   per hop on every delivered message.
  unsealed-block   make_shared<const ...Block> outside src/txn/block.cpp:
                   a shared block must come from txn::seal(), which
                   memoizes its body root and hash() before any node sees
                   it; a hand-built one makes every receiving node
                   re-merkleize the body.
  host-dispatch    __builtin_cpu_supports/__builtin_cpu_init, cpuid or
                   __attribute__((target(...))) outside
                   src/crypto/sha256.cpp: a CPU-dependent code path must
                   sit in the one kernel file whose kernels have a
                   differential test, or two replicas on different hosts
                   could run code that no test compared.
  node-hash-index  std::unordered_{map,set} keyed by Hash32 or Address under
                   src/sim, src/pool, src/srbb, src/diablo or src/chains:
                   the per-transaction indexes there are probed on every
                   gossiped copy, and srbb::FlatMap / FlatSet
                   (common/flat_table.hpp) probe without the node-based
                   table's divide and pointer chases (docs/PERF.md §13).

Audited sites are suppressed through tools/lint_allowlist.txt; every entry
carries a justification and MUST still match a real finding (stale entries
fail the lint, so the allowlist cannot rot).

Usage: srbb_lint.py --root <repo-root> [--list] [--no-allowlist]
Exit status: 0 clean, 1 findings (or stale allowlist entries), 2 bad usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SRC_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}

# ---------------------------------------------------------------------------
# Source preprocessing: strip comments and string/char literals while keeping
# line structure, so rules never fire on prose or quoted text.
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.) — bail out
                mode = "code"
                out.append(c)
            i += 1
            continue
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rule: nondet-source
# ---------------------------------------------------------------------------

NONDET_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "libc PRNG"),
    (re.compile(r"std::random_device"), "hardware/OS entropy"),
    (re.compile(r"std::mt19937"), "std PRNG (stream differs across stdlibs)"),
    (re.compile(r"std::default_random_engine"), "implementation-defined PRNG"),
    (re.compile(r"\bsystem_clock\b"), "wall clock"),
    (re.compile(r"\bsteady_clock\b"), "process-local clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "process-local clock"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "wall clock"),
    (re.compile(r"(?<![\w:])getenv\s*\("), "environment-dependent value"),
]

# The audited deterministic RNG implementation is the one allowed home for
# entropy-ish code; SimTime (common/time.hpp) is the virtual clock.
NONDET_EXEMPT = {"src/common/rng.cpp", "src/common/rng.hpp"}


def check_nondet_source(relpath: str, lines: list[str]) -> list[tuple]:
    if relpath in NONDET_EXEMPT:
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        for pattern, why in NONDET_PATTERNS:
            if pattern.search(line):
                findings.append(
                    ("nondet-source", relpath, lineno, line.strip(),
                     f"nondeterministic source ({why}); use srbb::Rng / SimTime"))
    return findings


# ---------------------------------------------------------------------------
# Rule: unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set)\s*<")
FOR_OPEN = re.compile(r"\bfor\s*\(")
RANGE_COLON = re.compile(r"(?<!:):(?!:)")
LAST_IDENT = re.compile(r"([A-Za-z_]\w*)\s*$")


def collect_unordered_names(stripped: str) -> set[str]:
    """Names of variables/members declared with an unordered container type,
    including through type aliases is out of scope — the lint is a heuristic
    backstop, reviewed allowlist entries carry the precision."""
    names = set()
    for match in UNORDERED_DECL.finditer(stripped):
        i = match.end() - 1  # at '<'
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        rest = stripped[i + 1:i + 200]
        decl = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={]", rest)
        if decl:
            names.add(decl.group(1))
    return names


def range_fors(stripped: str):
    """(offset, range expression) of every range-based for. The header ends
    at the parenthesis matching the for's own, so whatever follows it (a
    brace, a newline or a brace-less statement) cannot hide the loop."""
    for match in FOR_OPEN.finditer(stripped):
        depth, i = 0, match.end() - 1  # at '('
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        header = stripped[match.end():i]
        colon = RANGE_COLON.search(header)
        if ";" in header or colon is None:
            continue  # a classic for, or no header at all
        yield match.start(), header[colon.end():]


def check_unordered_iter(relpath: str, stripped: str,
                         unordered_names: set[str]) -> list[tuple]:
    findings = []
    for offset, range_expr in range_fors(stripped):
        ident = LAST_IDENT.search(range_expr.strip())
        if not ident or ident.group(1) not in unordered_names:
            continue
        lineno = stripped.count("\n", 0, offset) + 1
        line = stripped.splitlines()[lineno - 1].strip()
        findings.append(
            ("unordered-iter", relpath, lineno, line,
             f"iterates unordered container '{ident.group(1)}' — order is "
             "hash-seed/implementation defined; sort first if the result "
             "feeds a hash, serialization, or state mutation"))
    return findings


# ---------------------------------------------------------------------------
# Rule: pointer-key
# ---------------------------------------------------------------------------

POINTER_KEY = re.compile(
    r"\b(?:unordered_)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+\s*\*")


def check_pointer_key(relpath: str, lines: list[str]) -> list[tuple]:
    findings = []
    for lineno, line in enumerate(lines, 1):
        if POINTER_KEY.search(line):
            findings.append(
                ("pointer-key", relpath, lineno, line.strip(),
                 "container keyed on a pointer: ASLR makes ordering/hashing "
                 "process-local; key on a value identity instead"))
    return findings


# ---------------------------------------------------------------------------
# Rule: uninit-field
# ---------------------------------------------------------------------------

SCALAR_FIELD = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?:std::)?(?:u?int(?:8|16|32|64)?_t|size_t|ptrdiff_t|bool|int|unsigned"
    r"|long|short|double|float|char)\b"
    r"(?:\s+|\s*::\s*)?[A-Za-z_]\w*\s*;\s*$")
STRUCT_OPEN = re.compile(r"\b(?:struct|class)\s+[A-Za-z_]\w*[^;{]*\{")


def check_uninit_field(relpath: str, stripped: str) -> list[tuple]:
    # Only meaningful where structs get serialized: files that touch the RLP
    # codec or declare encode()/decode() surfaces.
    if "rlp" not in stripped and "encode" not in stripped:
        return []
    findings = []
    lines = stripped.splitlines()
    depth_stack = []  # stack of '{' depths that opened a struct/class body
    depth = 0
    for lineno, line in enumerate(lines, 1):
        if STRUCT_OPEN.search(line):
            depth_stack.append(depth + line.count("{"))
        depth += line.count("{") - line.count("}")
        while depth_stack and depth < depth_stack[-1]:
            depth_stack.pop()
        if not depth_stack or depth != depth_stack[-1]:
            continue
        if SCALAR_FIELD.match(line):
            findings.append(
                ("uninit-field", relpath, lineno, line.strip(),
                 "scalar field without initializer in a serialized struct: "
                 "encoding an indeterminate value is UB and divergent"))
    return findings


# ---------------------------------------------------------------------------
# Rule: float-in-consensus
# ---------------------------------------------------------------------------

# Floating point in consensus-critical code is divergence waiting to happen:
# rounding mode, FMA contraction, x87 excess precision and libm differences
# all vary across replicas. The simulator/diablo layers may use doubles for
# measurement; these directories may not.
FLOAT_CONSENSUS_DIRS = ("src/state/", "src/consensus/", "src/evm/",
                        "src/srbb/")
FLOAT_TYPE = re.compile(r"\b(?:float|double|long\s+double)\b")


def check_float_in_consensus(relpath: str, lines: list[str]) -> list[tuple]:
    if not relpath.startswith(FLOAT_CONSENSUS_DIRS):
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if FLOAT_TYPE.search(line):
            findings.append(
                ("float-in-consensus", relpath, lineno, line.strip(),
                 "floating point in consensus-critical code: rounding and "
                 "excess precision differ across replicas; use U256 or "
                 "fixed-point integers"))
    return findings


# ---------------------------------------------------------------------------
# Rule: analysis-cache-mutation
# ---------------------------------------------------------------------------

# The AnalysisCache holds immutable, code-hash-keyed results that the
# parallel executor's rw-set scheduler resolves hints from while worker
# threads execute (docs/ANALYSIS.md §rw-sets). Outside the analyzer layer the
# only sanctioned operation is get(): a clear() or set_metrics() from
# executor/scheduler code could race the workers or desynchronize the
# analysis.rwset.* counters that tests reconcile exactly. Receivers are
# matched by name (the `*analysis_cache*` / `*hint_cache*` convention and the
# global() accessor) — same heuristic spirit as unordered-iter, with the
# allowlist carrying any audited exception.
ANALYSIS_CACHE_MUTATION = re.compile(
    r"(?:AnalysisCache::global\(\)|\b\w*(?:analysis|hint)_cache\w*)\s*"
    r"(?:\.|->)\s*(?:clear|set_metrics)\s*\(")
ANALYSIS_CACHE_HOME = "src/evm/analysis/"


def check_analysis_cache_mutation(relpath: str, lines: list[str]) -> list[tuple]:
    if relpath.startswith(ANALYSIS_CACHE_HOME):
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if ANALYSIS_CACHE_MUTATION.search(line):
            findings.append(
                ("analysis-cache-mutation", relpath, lineno, line.strip(),
                 "AnalysisCache mutated outside the analyzer entry points: "
                 "cached summaries are shared with concurrently-running "
                 "workers; only get() is safe here — move setup mutations "
                 "into src/evm/analysis/"))
    return findings


# ---------------------------------------------------------------------------
# Rule: interproc-bypass
# ---------------------------------------------------------------------------

# Scheduler and validation code (src/txn/) must obtain callee summaries
# through the state-keyed InterprocCache wrapper
# (evm/analysis/interproc.hpp), never by a direct AnalysisCache lookup: the
# per-contract summary carries no cross-contract facts and is not
# invalidated when a callee's code changes in state. Receivers are matched
# by the `*analysis_cache*` / `*hint_cache*` / `cache` naming convention and
# the global() accessor; `InterprocCache::global().get(...)` itself does not
# match (its receiver is the wrapper, not an AnalysisCache name).
INTERPROC_BYPASS = re.compile(
    r"(?:\bAnalysisCache::global\(\)|\b\w*(?:analysis|hint)_cache\w*|\bcache)"
    r"\s*(?:\.|->)\s*get\s*\(")
INTERPROC_BYPASS_SCOPE = "src/txn/"


def check_interproc_bypass(relpath: str, lines: list[str]) -> list[tuple]:
    if not relpath.startswith(INTERPROC_BYPASS_SCOPE):
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if INTERPROC_BYPASS.search(line):
            findings.append(
                ("interproc-bypass", relpath, lineno, line.strip(),
                 "direct AnalysisCache summary lookup in scheduler/validation "
                 "code: per-contract summaries ignore CALL targets and are "
                 "not state-invalidated; go through "
                 "InterprocCache::global().get(db, addr, cache)"))
    return findings


# ---------------------------------------------------------------------------
# Rule: message-dynamic-cast
# ---------------------------------------------------------------------------

# Every shipped wire message is a final TaggedMessage, so sim::msg_cast<T>
# (one compare of Message::kind) is exact. A new message type dispatched
# with dynamic_cast would bring back the per-message RTTI walk that the
# simulator's hot path no longer pays. Matched by target type name
# (`*Msg`, `*Message`) or by operand name (`message`, `msg`, ...).
MESSAGE_DYNAMIC_CAST = re.compile(
    r"dynamic_cast\s*<\s*(?:const\s+)?[\w:]*(?:Msg|Message)\s*\*\s*>"
    r"|dynamic_cast\s*<[^<>]*>\s*\(\s*\w*(?:message|msg)\w*\s*[.)]")


def check_message_dynamic_cast(relpath: str, lines: list[str]) -> list[tuple]:
    findings = []
    for lineno, line in enumerate(lines, 1):
        if MESSAGE_DYNAMIC_CAST.search(line):
            findings.append(
                ("message-dynamic-cast", relpath, lineno, line.strip(),
                 "dynamic_cast on a sim::Message: switch on message->kind and "
                 "convert with sim::msg_cast<T> (give a new message type its "
                 "own MsgKind via sim::TaggedMessage)"))
    return findings


# ---------------------------------------------------------------------------
# Rule: unsealed-block
# ---------------------------------------------------------------------------

UNSEALED_BLOCK = re.compile(
    r"make_shared\s*<\s*const\s+(?:\w+\s*::\s*)*Block\s*>")
UNSEALED_BLOCK_HOME = "src/txn/block.cpp"


def check_unsealed_block(relpath: str, lines: list[str]) -> list[tuple]:
    if relpath == UNSEALED_BLOCK_HOME:
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if UNSEALED_BLOCK.search(line):
            findings.append(
                ("unsealed-block", relpath, lineno, line.strip(),
                 "shared block built without its digests: use "
                 "txn::seal(block), so receiving nodes reuse the memoized "
                 "body root and hash instead of recomputing them"))
    return findings


# ---------------------------------------------------------------------------
# Rule: host-dispatch
# ---------------------------------------------------------------------------

HOST_DISPATCH = re.compile(
    r"\b__builtin_cpu_(?:supports|init)\b|\bcpuid\b"
    r"|__attribute__\s*\(\s*\(\s*target\s*\(")
HOST_DISPATCH_HOME = "src/crypto/sha256.cpp"


def check_host_dispatch(relpath: str, lines: list[str]) -> list[tuple]:
    if relpath == HOST_DISPATCH_HOME:
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if HOST_DISPATCH.search(line):
            findings.append(
                ("host-dispatch", relpath, lineno, line.strip(),
                 "CPU-dependent code path outside src/crypto/sha256.cpp: "
                 "keep host dispatch in the kernel file whose kernels are "
                 "differentially tested (tests/test_hash_differential.cpp)"))
    return findings


# ---------------------------------------------------------------------------
# Rule: node-hash-index
# ---------------------------------------------------------------------------

NODE_HASH_INDEX = re.compile(
    r"\bunordered_(?:map|set)\s*<\s*(?:srbb::)?(?:Hash32|Address)\b")
NODE_HASH_INDEX_DIRS = ("src/sim/", "src/pool/", "src/srbb/", "src/diablo/",
                        "src/chains/")


def check_node_hash_index(relpath: str, lines: list[str]) -> list[tuple]:
    if not relpath.startswith(NODE_HASH_INDEX_DIRS):
        return []
    findings = []
    for lineno, line in enumerate(lines, 1):
        if NODE_HASH_INDEX.search(line):
            findings.append(
                ("node-hash-index", relpath, lineno, line.strip(),
                 "node-based hash index keyed by a hash or address: use "
                 "srbb::FlatMap / FlatSet (common/flat_table.hpp), which "
                 "probe one inline slot array"))
    return findings


# ---------------------------------------------------------------------------
# Self-test: one positive and one negative fixture per rule, so a regex edit
# that silently disables a rule fails the `srbb_lint_selftest` ctest.
# ---------------------------------------------------------------------------

SELFTEST_FIXTURES = [
    # (rule, relpath, source, expect_finding)
    ("nondet-source", "src/consensus/x.cpp",
     "int f() { return rand(); }\n", True),
    ("nondet-source", "src/consensus/x.cpp",
     "int f() { return my_rand_value; }\n", False),
    ("nondet-source", "src/consensus/x.cpp",
     "// rand() in a comment\nint f() { return 1; }\n", False),
    ("unordered-iter", "src/state/x.cpp",
     "std::unordered_map<int, int> m;\n"
     "void f() { for (auto& kv : m) { use(kv); } }\n", True),
    ("unordered-iter", "src/state/x.cpp",
     "std::map<int, int> m;\n"
     "void f() { for (auto& kv : m) { use(kv); } }\n", False),
    # A brace-less one-line body must not hide the loop.
    ("unordered-iter", "src/state/x.cpp",
     "std::unordered_map<int, int> m;\n"
     "void f() { for (auto& kv : m) use(kv); }\n", True),
    # The range expression ends at the for's own closing parenthesis.
    ("unordered-iter", "src/state/x.cpp",
     "std::unordered_set<int> m;\n"
     "void f() { for (int v : sorted(m)) use(v); }\n", False),
    ("pointer-key", "src/state/x.hpp",
     "std::map<Node*, int> weights;\n", True),
    ("pointer-key", "src/state/x.hpp",
     "std::map<NodeId, int> weights;\n", False),
    ("uninit-field", "src/txn/x.hpp",
     "struct Wire {\n  std::uint64_t nonce;\n};\n"
     "void encode(const Wire&);\n", True),
    ("uninit-field", "src/txn/x.hpp",
     "struct Wire {\n  std::uint64_t nonce = 0;\n};\n"
     "void encode(const Wire&);\n", False),
    ("float-in-consensus", "src/evm/x.cpp",
     "double price = 0.5;\n", True),
    ("float-in-consensus", "src/evm/x.cpp",
     "std::uint64_t price = 5;\n", False),
    # Outside the consensus directories doubles are fine (measurement code).
    ("float-in-consensus", "src/diablo/x.cpp",
     "double latency_ms = 0.5;\n", False),
    ("analysis-cache-mutation", "src/txn/x.cpp",
     "void f() { evm::analysis::AnalysisCache::global().clear(); }\n", True),
    ("analysis-cache-mutation", "src/txn/x.cpp",
     "void f(Cfg& c) { c.hint_cache->set_metrics(&registry); }\n", True),
    ("analysis-cache-mutation", "src/txn/x.cpp",
     "void f(Cfg& c) { c.hint_cache->get(keccak, code); }\n", False),
    # Inside the analyzer layer the cache may manage itself.
    ("analysis-cache-mutation", "src/evm/analysis/cache.cpp",
     "void AnalysisCache::reset() { analysis_cache_impl.clear(); }\n", False),
    ("interproc-bypass", "src/txn/x.cpp",
     "auto a = config.analysis_cache->get(db.code_keccak(to), code);\n", True),
    ("interproc-bypass", "src/txn/x.cpp",
     "auto a = evm::analysis::AnalysisCache::global().get(h, code);\n", True),
    ("interproc-bypass", "src/txn/x.cpp",
     "auto a = cache.get(code_keccak, code);\n", True),
    # The sanctioned wrapper: state-keyed, edge-revalidating.
    ("interproc-bypass", "src/txn/x.cpp",
     "auto s = evm::analysis::InterprocCache::global().get(db, to, cache);\n",
     False),
    # Outside src/txn/ the analyzer layer composes from raw summaries.
    ("interproc-bypass", "src/evm/analysis/interproc.cpp",
     "auto a = analyses.get(code_keccak, code);\n", False),
    ("message-dynamic-cast", "src/srbb/x.cpp",
     "const auto* b = dynamic_cast<const consensus::BinMsg*>(message.get());\n",
     True),
    ("message-dynamic-cast", "src/srbb/x.cpp",
     "auto* m = dynamic_cast<const sim::Message*>(base);\n", True),
    ("message-dynamic-cast", "src/chains/x.cpp",
     "if (auto* t = dynamic_cast<const Tx*>(msg.get())) use(t);\n", True),
    ("message-dynamic-cast", "src/srbb/x.cpp",
     "const auto* b = sim::msg_cast<consensus::BinMsg>(message);\n", False),
    # Casts on non-message hierarchies stay allowed.
    ("message-dynamic-cast", "src/state/x.cpp",
     "auto* log = dynamic_cast<LogBackend*>(backend.get());\n", False),
    ("message-dynamic-cast", "src/srbb/x.cpp",
     "// dynamic_cast<const BinMsg*>(message.get()) was the old path\n",
     False),
    ("unsealed-block", "src/srbb/x.cpp",
     "return std::make_shared<const txn::Block>(txn::make_block(i));\n",
     True),
    ("unsealed-block", "src/srbb/x.cpp",
     "return txn::seal(txn::make_block(i));\n", False),
    ("host-dispatch", "src/crypto/keccak.cpp",
     "if (__builtin_cpu_supports(\"avx2\")) return fast(a);\n", True),
    ("host-dispatch", "src/state/x.cpp",
     "static bool ok = (__builtin_cpu_init(), true);\n", True),
    ("host-dispatch", "src/common/x.cpp",
     "#include <cpuid.h>\n", True),
    ("host-dispatch", "src/evm/x.cpp",
     "__attribute__((target(\"avx2\"))) void add(U256& a);\n", True),
    # The SHA-256 kernel file is the one home for dispatch.
    ("host-dispatch", "src/crypto/sha256.cpp",
     "return __builtin_cpu_supports(\"sha\");\n", False),
    ("host-dispatch", "src/crypto/keccak.cpp",
     "// __builtin_cpu_supports would go here\nvoid f();\n", False),
    ("host-dispatch", "src/evm/x.cpp",
     "__attribute__((always_inline)) inline void add(U256& a);\n", False),
    ("node-hash-index", "src/pool/x.hpp",
     "std::unordered_set<Hash32, Hash32Hasher> index_;\n", True),
    ("node-hash-index", "src/srbb/x.hpp",
     "std::unordered_map<Address, U256, AddressHasher> owed_;\n", True),
    ("node-hash-index", "src/pool/x.hpp",
     "FlatSet<32> index_;\n", False),
    # State keeps node-based tables: it hands out Account* across inserts.
    ("node-hash-index", "src/state/x.hpp",
     "std::unordered_map<Address, Account, AddressHasher> accounts_;\n",
     False),
]


def run_file_checks(relpath: str, stripped: str,
                    unordered_names: set[str]) -> list[tuple]:
    lines = stripped.splitlines()
    findings = []
    findings += check_nondet_source(relpath, lines)
    findings += check_unordered_iter(relpath, stripped, unordered_names)
    findings += check_pointer_key(relpath, lines)
    findings += check_uninit_field(relpath, stripped)
    findings += check_float_in_consensus(relpath, lines)
    findings += check_analysis_cache_mutation(relpath, lines)
    findings += check_interproc_bypass(relpath, lines)
    findings += check_message_dynamic_cast(relpath, lines)
    findings += check_unsealed_block(relpath, lines)
    findings += check_host_dispatch(relpath, lines)
    findings += check_node_hash_index(relpath, lines)
    return findings


def self_test() -> int:
    failures = 0
    for i, (rule, relpath, source, expect) in enumerate(SELFTEST_FIXTURES):
        stripped = strip_comments_and_strings(source)
        hits = [f for f in run_file_checks(relpath, stripped,
                                           collect_unordered_names(stripped))
                if f[0] == rule]
        if bool(hits) != expect:
            print(f"self-test fixture #{i} ({rule}): expected "
                  f"{'a finding' if expect else 'no finding'}, got "
                  f"{len(hits)}")
            failures += 1
    print(f"srbb_lint --self-test: {len(SELFTEST_FIXTURES)} fixtures, "
          f"{failures} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Allowlist
# ---------------------------------------------------------------------------


def load_allowlist(path: Path) -> list[dict]:
    entries = []
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        body, _, justification = line.partition("#")
        parts = body.strip().split(None, 2)
        if len(parts) != 3 or not justification.strip():
            print(f"allowlist:{lineno}: malformed entry (want: "
                  f"<rule> <path> <line-substring>  # justification)")
            sys.exit(2)
        rule, relpath, needle = parts
        if len(needle) >= 2 and needle[0] == needle[-1] and needle[0] in "\"'":
            needle = needle[1:-1]
        entries.append({
            "rule": rule, "path": relpath, "needle": needle,
            "justification": justification.strip(), "lineno": lineno,
            "used": False,
        })
    return entries


def is_allowed(finding: tuple, allowlist: list[dict]) -> bool:
    rule, relpath, _lineno, line, _why = finding
    for entry in allowlist:
        if (entry["rule"] == rule and entry["path"] == relpath
                and entry["needle"] in line):
            entry["used"] = True
            return True
    return False


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (containing src/)")
    parser.add_argument("--no-allowlist", action="store_true",
                        help="report every finding, audited or not")
    parser.add_argument("--list", action="store_true",
                        help="list findings without failing (triage mode)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in rule fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    src = args.root / "src"
    if not src.is_dir():
        print(f"srbb_lint: no src/ under {args.root}", file=sys.stderr)
        return 2

    files = sorted(p for p in src.rglob("*") if p.suffix in SRC_EXTENSIONS)
    stripped_by_file = {
        p: strip_comments_and_strings(p.read_text(errors="replace"))
        for p in files
    }

    # unordered-container member names are collected globally so iteration
    # over a member declared in another header (e.g. Account::storage) is
    # still caught at the use site.
    unordered_names: set[str] = set()
    for stripped in stripped_by_file.values():
        unordered_names |= collect_unordered_names(stripped)

    findings = []
    for path in files:
        relpath = path.relative_to(args.root).as_posix()
        findings += run_file_checks(relpath, stripped_by_file[path],
                                    unordered_names)

    allowlist = ([] if args.no_allowlist
                 else load_allowlist(args.root / "tools/lint_allowlist.txt"))
    reported = [f for f in findings if not is_allowed(f, allowlist)]
    stale = [e for e in allowlist if not e["used"]]

    for rule, relpath, lineno, line, why in reported:
        print(f"{relpath}:{lineno}: [{rule}] {line}")
        print(f"    {why}")
    for entry in stale:
        print(f"tools/lint_allowlist.txt:{entry['lineno']}: stale entry "
              f"(matches nothing): {entry['rule']} {entry['path']} "
              f"{entry['needle']}")

    suppressed = len(findings) - len(reported)
    print(f"srbb_lint: {len(files)} files, {len(reported)} finding(s), "
          f"{suppressed} allowlisted, {len(stale)} stale allowlist entr(y/ies)")
    if args.list:
        return 0
    return 1 if reported or stale else 0


if __name__ == "__main__":
    sys.exit(main())
