#!/usr/bin/env python3
"""Enclave-safety lint for the EActors runtime (v2).

Enforces the framework invariants from the paper (EActors, Middleware '18):
actors running inside an enclave must never block or exit the enclave on the
message path. Concretely, trusted-capable modules may not use OS mutexes,
blocking syscalls, dynamic heap allocation (outside designated construction
paths), or iostream; and POD structs copied into node payloads (which cross
the enclave boundary through Channels) must not smuggle raw pointers.

v2 adds the concurrency-correctness passes (DESIGN.md §13):

  * lock-order-cycle — extracts guard-nesting pairs (HleGuard /
    HostMutexGuard, both lexical nesting and one level of calls into
    lock-taking functions) across the WHOLE tree, builds the lock graph,
    and fails on any cycle: a cycle is a deadlock two threads can reach
    even though every individual function looks locally reasonable.
  * tsa-unjustified — every EA_NO_THREAD_SAFETY_ANALYSIS opt-out must
    carry an inline `// tsa: <reason>` on the same or preceding line;
    silencing the thread-safety analysis without saying why is how
    lock-free "fast paths" rot into races.
  * epoch-pairing — epoch_enter/epoch_leave calls must balance within a
    function body (DESIGN.md §15): a path that announces an epoch and
    returns without leaving pins the global epoch and stalls POS
    reclamation forever. The RAII Section halves carry inline waivers.
  * seal-plaintext-zeroize — a function that calls into the sealing layer
    (seal/unseal) or seals a frame in place
    (seal_framed_into/open_framed_in_place) and declares util::Bytes
    locals must secure_zero() before release (DESIGN.md §17): those locals
    hold sealed-state plaintext, such as a migration's exported actor
    state, staged in untrusted memory.

Every top-level directory of the source root must be a module the policy
lists, and every listed module must hold source files: `module-unlisted`
fires on a directory in neither list (its files are then linted as
trusted), `module-missing` on a listed module with no sources left. Both
also fail `--tcb`, so a module cannot leave the count by leaving a list.

The per-module policy lives in tools/enclave_policy.toml. Files can carry
inline waivers:

    ... offending code ...        // ea-lint: allow(rule-name) -- reason
    // ea-lint: allow-next-line(rule-name) -- reason
    // ea-lint: allow-file(rule-name) -- reason   (within the first 15 lines)

Scan performance: `--jobs N` fans the per-file scan out over a process
pool, and an mtime/size cache under build/ skips re-scanning files that
have not changed since the previous run (`--no-cache` disables it; the
self-test never uses it).

Exit status: 0 when clean, 1 when violations were found, 2 on usage errors.

TCB mode (`--tcb`) counts code lines — non-blank lines left after comment
stripping, the same stripping the rules use — per trusted module and
fails (exit 1) when a module's count differs from its budget in the
policy's `[modules.tcb_budget]` table, or it has none: growth fails, and
so does slack that a shrinking change left behind for a later one to grow
back into. It also prints core +
concurrent, the framework code an enclave must trust, against the paper's
§6.1 bound of < 3.3 kLoC of enclave-resident code, and fails when they
reach it: raising two budgets cannot carry the framework past the bound.

Self-test mode (`--self-test`) runs the lint over tools/lint_fixtures/ and
checks that every `// EXPECT: rule-name` annotation fires on exactly that
line and that nothing else fires.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import multiprocessing
import os
import re
import sys
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

WAIVER_LINE = re.compile(r"//\s*ea-lint:\s*allow\(([\w\-, ]+)\)")
WAIVER_NEXT = re.compile(r"//\s*ea-lint:\s*allow-next-line\(([\w\-, ]+)\)")
WAIVER_FILE = re.compile(r"//\s*ea-lint:\s*allow-file\(([\w\-, ]+)\)")
# `// EXPECT:` in fixture sources, `# EXPECT:` in the fixture policy.
EXPECT_RE = re.compile(r"(?://|#)\s*EXPECT:\s*([\w\-]+)")
# A quoted #include operand is a header name, not a string literal: the
# stripping keeps it so pattern rules can match include paths.
INCLUDE_QUOTED = re.compile(r'\s*#\s*include\s*"[^"]*"')

# sizeof(T) on a line that also touches a node payload — T is (heuristically)
# a type whose bytes cross the enclave boundary inside a node.
PAYLOAD_SIZEOF = re.compile(r"sizeof\((\w+)\)")
STRUCT_OPEN = re.compile(r"^\s*struct\s+(\w+)\b[^;]*$")
POINTER_MEMBER = re.compile(
    r"^\s*(?:const\s+)?[\w:<>,\s]+?[*&]\s*\w+\s*(?:=[^;]*)?;"
)
FUNC_DECL_HINT = re.compile(r"\(|\boperator\b")

# --- lock-graph extraction (rule: lock-order-cycle) -------------------------

# `HleGuard g(expr);` / `HostMutexGuard g(expr);` — optionally qualified.
GUARD_DECL = re.compile(
    r"\b(?:[\w:]+::)?(?:HleGuard|HostMutexGuard)\s+\w+\s*[({]\s*"
    r"([^(){};]+?)\s*[)}]"
)
# Candidate function-definition name: last identifier before a '(' on a
# line that later opens a brace without terminating in ';'.
CALL_OR_DEF = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
NTSA_TOKEN = re.compile(r"\bEA_NO_THREAD_SAFETY_ANALYSIS\b")
TSA_JUSTIFY = re.compile(r"//.*\btsa:\s*\S")

# Epoch-pairing (rule `epoch-pairing`): calls to the POS epoch API, the
# declaration/definition shape to skip, and a function-body opener
# (`) ... {`, excluding control-flow headers).
EPOCH_CALL = re.compile(r"\b(epoch_enter|epoch_leave)\s*\(")
EPOCH_DECL = re.compile(
    r"\bvoid\s+(?:[A-Za-z_]\w*::)*(?:epoch_enter|epoch_leave)\s*\("
)

# Sealed-bundle hygiene (rule `seal-plaintext-zeroize`): a function that
# moves state through the SEALING layer (sgxsim::seal/unseal — sealed
# master keys) or seals a frame in place (crypto::seal_framed_into/
# open_framed_in_place — the migration transfer frame) and owns byte
# buffers must wipe them before release (DESIGN.md §17 — sealed-state
# plaintext in untrusted memory outlives the enclave it came from). The
# channel makes the same in-place calls on pool nodes and owns no
# util::Bytes there, so it passes. The copying helpers
# (seal_with_counter/open_framed) are deliberately out of scope: their
# plaintext is in-flight message payload, not an at-rest state bundle.
SEAL_NAMES = r"(?:unseal|seal|seal_framed_into|open_framed_in_place)"
SEAL_CALL = re.compile(r"\b(" + SEAL_NAMES + r")\s*\(")
SEAL_DECL = re.compile(
    r"\b(?!return\b|throw\b)[A-Za-z_][\w:<>]*\s+"
    r"(?:[A-Za-z_]\w*::)*" + SEAL_NAMES + r"\s*\("
)
BYTES_LOCAL = re.compile(r"\b(?:util::)?Bytes\s+\w+\s*[;({=]")
SECURE_ZERO = re.compile(r"\bsecure_zero\s*\(")
FUNC_OPEN = re.compile(r"\)\s*(?:const\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*\s]+)?\{")
CONTROL_HEAD = re.compile(r"^\s*(?:\}?\s*)?(?:if|for|while|switch|catch)\b")

# Control keywords that look like calls but are not.
CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "catch", "throw", "new", "delete", "static_assert",
    "decltype", "noexcept", "defined", "assert", "static_cast",
    "reinterpret_cast", "const_cast", "dynamic_cast",
}
# Names too generic to resolve to a unique definition: calls to these are
# never used for interprocedural lock-edge propagation (a `push` holding a
# mbox lock must not inherit the locks of every `push` in the tree).
GENERIC_NAMES = {
    "push", "pop", "get", "set", "put", "add", "size", "empty", "with",
    "lock", "unlock", "body", "find", "close", "open", "begin", "end",
    "count", "data", "next", "reset", "clear", "insert", "erase",
    "emplace", "load", "store", "read", "write", "send", "recv", "tick",
    "run", "stop", "start", "join", "main", "name", "wait", "post",
    "push_back", "pop_back", "emplace_back", "append", "assign", "swap",
    "front", "back", "test", "value", "fetch_add", "fetch_sub", "exchange",
    "compare_exchange_weak", "compare_exchange_strong", "c_str", "str",
}
MIN_CALLEE_LEN = 4


@dataclass
class Rule:
    name: str
    description: str
    patterns: list[re.Pattern] = field(default_factory=list)


@dataclass
class Violation:
    path: Path
    line: int
    rule: str
    message: str

    def render(self, root: Path) -> str:
        try:
            rel = self.path.relative_to(root.parent)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class LockExtract:
    """Per-file facts feeding the global lock-order-cycle pass.

    Lock identity is `<module>/<filestem>:<member>` with array indexes
    stripped, so `free_locks_[s]` and `free_locks_[t]` are one lock family
    (matching the rank table, where same-rank nesting is forbidden anyway).
    """

    # function name -> sorted list of lock ids it acquires directly
    func_locks: dict[str, list[str]] = field(default_factory=dict)
    # (outer lock id, inner lock id, line of the inner acquisition)
    lexical_edges: list[tuple[str, str, int]] = field(default_factory=list)
    # (callee name, line, held lock ids at the call site)
    guarded_calls: list[tuple[str, int, list[str]]] = field(
        default_factory=list
    )
    # function name -> callee names invoked anywhere inside it
    func_calls: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class FileScan:
    """Everything lint_file() learns about one file (cacheable)."""

    violations: list[Violation] = field(default_factory=list)
    waiver_count: int = 0
    extract: LockExtract = field(default_factory=LockExtract)


@dataclass
class Policy:
    trusted_modules: list[str]
    untrusted_modules: list[str]
    rules: dict[str, Rule]
    # list of (path glob, set of rule names or {"*"}, reason)
    exemptions: list[tuple[str, set[str], str]]
    # trusted module -> maximum code lines (`--tcb`)
    tcb_budget: dict[str, int] = field(default_factory=dict)
    # the file it was loaded from, for diagnostics about the policy itself
    path: Path | None = None

    @staticmethod
    def load(path: Path) -> "Policy":
        with open(path, "rb") as f:
            raw = tomllib.load(f)
        modules = raw.get("modules", {})
        rules: dict[str, Rule] = {}
        for name, spec in raw.get("rules", {}).items():
            patterns = [re.compile(p) for p in spec.get("patterns", [])]
            rules[name] = Rule(name, spec.get("description", ""), patterns)
        exemptions = []
        for ex in raw.get("exempt", []):
            if "reason" not in ex:
                raise SystemExit(
                    f"policy error: exemption for {ex.get('path')} lacks a reason"
                )
            exemptions.append(
                (ex["path"], set(ex.get("rules", ["*"])), ex["reason"])
            )
        return Policy(
            trusted_modules=modules.get("trusted", []),
            untrusted_modules=modules.get("untrusted", []),
            rules=rules,
            exemptions=exemptions,
            tcb_budget=modules.get("tcb_budget", {}),
            path=path,
        )

    def exempt(self, rel: str, rule: str) -> bool:
        for glob, rule_set, _reason in self.exemptions:
            if fnmatch.fnmatch(rel, glob) and ("*" in rule_set or rule in rule_set):
                return True
        return False


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Returns lines with comments and string/char literals blanked out,
    preserving line numbering so diagnostics stay accurate."""
    out: list[str] = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        n = len(line)
        include = None if in_block else INCLUDE_QUOTED.match(line)
        if include:
            buf.append(include.group(0))
            i = include.end()
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            c = line[i]
            if c == "/" and i + 1 < n and line[i + 1] == "/":
                break  # rest of line is a comment
            if c == "/" and i + 1 < n and line[i + 1] == "*":
                in_block = True
                i += 2
                continue
            if c in ('"', "'"):
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        break
                    i += 1
                buf.append(quote)
                i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def collect_payload_types(files: list[Path]) -> set[str]:
    """Type names T appearing as sizeof(T) on lines that also touch a node
    payload — their bytes are serialized across the enclave boundary."""
    types: set[str] = set()
    for path in files:
        try:
            text = path.read_text(errors="replace")
        except OSError:
            continue
        for line in text.splitlines():
            if "payload()" not in line and "payload_bytes" not in line:
                continue
            for m in PAYLOAD_SIZEOF.finditer(line):
                name = m.group(1)
                if len(name) > 2:  # skip template params like T, U
                    types.add(name)
    return types


def check_payload_structs(
    path: Path, stripped: list[str], payload_types: set[str]
) -> list[Violation]:
    """Flags raw pointer/reference members inside structs whose bytes are
    copied into node payloads (bypassing Node/Channel ownership)."""
    violations = []
    i = 0
    n = len(stripped)
    while i < n:
        m = STRUCT_OPEN.match(stripped[i])
        if not m or m.group(1) not in payload_types:
            i += 1
            continue
        name = m.group(1)
        # Walk the struct body tracking brace depth.
        depth = 0
        seen_open = False
        j = i
        while j < n:
            line = stripped[j]
            if seen_open and depth >= 1 and j > i:
                if POINTER_MEMBER.match(line) and not FUNC_DECL_HINT.search(line):
                    violations.append(
                        Violation(
                            path,
                            j + 1,
                            "payload-raw-pointer",
                            f"struct {name} is copied into node payloads but "
                            f"this member holds a raw pointer/reference; "
                            f"pointers must not cross the enclave boundary — "
                            f"pass ids or inline bytes instead",
                        )
                    )
            if "{" in line:
                seen_open = True
            depth += line.count("{") - line.count("}")
            if seen_open and depth <= 0:
                break
            if not seen_open and j > i + 1:
                break  # forward declaration or unrelated match
            j += 1
        i = j + 1
    return violations


def lock_id(rel: str, expr: str) -> str:
    """Normalises a guard-constructor expression to a lock identity.

    `free_locks_[s]` -> `pos/pos:free_locks_`; `shared->mu_` ->
    `<file>:mu_`. Member locks are keyed by the file declaring the
    guard use, so two same-named locks in one file share an id: the XMPP
    Directory and RoomTable shard locks (`s.lock` in xmpp/server.cpp) do.
    """
    expr = re.sub(r"\[[^\]]*\]", "", expr)  # strip array indexes
    expr = expr.strip().rstrip("*&")
    # Last component of a member access chain.
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    expr = expr.strip().lstrip(":")
    stem = rel.rsplit(".", 1)[0]
    return f"{stem}:{expr}"


def check_tsa_justifications(
    path: Path, rel: str, raw_lines: list[str], stripped: list[str]
) -> list[Violation]:
    """Rule `tsa-unjustified`: every EA_NO_THREAD_SAFETY_ANALYSIS use needs
    an inline `// tsa: <reason>` on the same or the preceding line."""
    violations = []
    for idx, code in enumerate(stripped):
        if not NTSA_TOKEN.search(code):
            continue
        if code.lstrip().startswith("#"):  # the macro's own definition
            continue
        here = TSA_JUSTIFY.search(raw_lines[idx])
        above = idx > 0 and TSA_JUSTIFY.search(raw_lines[idx - 1])
        if not here and not above:
            violations.append(
                Violation(
                    path,
                    idx + 1,
                    "tsa-unjustified",
                    "EA_NO_THREAD_SAFETY_ANALYSIS without an inline "
                    "`// tsa: <reason>` justification (same or previous "
                    "line); opting out of the thread-safety analysis "
                    "silently is forbidden (DESIGN.md §13)",
                )
            )
    return violations


def check_epoch_pairing(path: Path, stripped: list[str]) -> list[Violation]:
    """Rule `epoch-pairing`: within one function body, `epoch_enter` and
    `epoch_leave` calls must balance.

    An entry point that announces an epoch and returns without leaving pins
    the global epoch forever — the cleaner can never advance past it and
    retired entries are never freed. Deliberately unbalanced halves (the
    RAII Section constructor/destructor) carry inline waivers.

    Heuristic function tracking: a body opens on `) ... {` (control-flow
    headers excluded) and closes when brace depth returns to its opening
    level; calls are attributed to the innermost open body, so a lambda's
    pairing is judged on its own.
    """
    violations: list[Violation] = []
    # Each frame: (close_depth, enter_lines, leave_lines).
    frames: list[tuple[int, list[int], list[int]]] = []
    depth = 0

    def judge(enters: list[int], leaves: list[int]) -> None:
        if len(enters) == len(leaves):
            return
        anchor = enters[0] if len(enters) > len(leaves) else leaves[0]
        what = (
            f"{len(enters)} epoch_enter vs {len(leaves)} epoch_leave"
        )
        violations.append(
            Violation(
                path,
                anchor,
                "epoch-pairing",
                f"unbalanced epoch section in this function body ({what}); "
                "a path that returns without leaving pins the global epoch "
                "and stalls POS reclamation — use Pos::Section (RAII) or "
                "balance every branch",
            )
        )

    for idx, code in enumerate(stripped):
        lineno = idx + 1
        if code.lstrip().startswith("#"):
            continue

        decl_spans = [m.span() for m in EPOCH_DECL.finditer(code)]
        calls: list[str] = []
        for m in EPOCH_CALL.finditer(code):
            if any(s <= m.start(1) < e for s, e in decl_spans):
                continue  # the API's own declaration/definition line
            calls.append(m.group(1))

        opens_func = bool(FUNC_OPEN.search(code)) and not CONTROL_HEAD.match(
            code
        )
        delta = code.count("{") - code.count("}")

        if opens_func and delta == 0 and "{" in code:
            # One-liner body (`~Section() { ...epoch_leave(); }`): judge
            # the line's calls directly, without touching the frame stack.
            judge(
                [lineno for c in calls if c == "epoch_enter"],
                [lineno for c in calls if c == "epoch_leave"],
            )
            continue

        if opens_func and delta > 0:
            frames.append((depth, [], []))

        if frames:
            close_depth, enters, leaves = frames[-1]
            for c in calls:
                (enters if c == "epoch_enter" else leaves).append(lineno)

        depth += delta
        while frames and depth <= frames[-1][0]:
            _, enters, leaves = frames.pop()
            judge(enters, leaves)

    for _, enters, leaves in frames:  # unterminated (truncated file)
        judge(enters, leaves)
    return violations


def check_seal_zeroize(path: Path, stripped: list[str]) -> list[Violation]:
    """Rule `seal-plaintext-zeroize`: a function body that calls into the
    sealing layer (`seal`/`unseal`) or seals a frame in place
    (`seal_framed_into`/`open_framed_in_place`) and declares `util::Bytes`
    locals must contain at least one `secure_zero` call.

    Those locals hold sealed-state *plaintext* — exported actor state
    staged in untrusted memory during a migration. A return
    path that drops them unwiped leaves enclave secrets lying in host
    memory after the bundle is gone (DESIGN.md §17). Wiping through a
    helper lambda counts: facts are attributed to the outermost enclosing
    function, so `auto wipe = [&] { secure_zero(...); }` satisfies the
    rule for the whole body.
    """
    violations: list[Violation] = []
    frames: list[int] = []  # depth before each open function body
    depth = 0
    seal_lines: list[int] = []
    bytes_seen = False
    zero_seen = False

    def judge() -> None:
        nonlocal seal_lines, bytes_seen, zero_seen
        if seal_lines and bytes_seen and not zero_seen:
            violations.append(
                Violation(
                    path,
                    seal_lines[0],
                    "seal-plaintext-zeroize",
                    "this function stages sealed-bundle plaintext "
                    "(a seal/unseal or in-place frame seal/open call plus "
                    "util::Bytes locals) but never "
                    "secure_zero()s a buffer; every exit path must wipe "
                    "exported state before releasing it to untrusted "
                    "memory (DESIGN.md §17)",
                )
            )
        seal_lines, bytes_seen, zero_seen = [], False, False

    for idx, code in enumerate(stripped):
        lineno = idx + 1
        if code.lstrip().startswith("#"):
            continue
        opens_func = bool(FUNC_OPEN.search(code)) and not CONTROL_HEAD.match(
            code
        )
        delta = code.count("{") - code.count("}")
        if opens_func and delta > 0:
            frames.append(depth)
        if frames:
            decl_spans = [m.span() for m in SEAL_DECL.finditer(code)]
            for m in SEAL_CALL.finditer(code):
                if any(s <= m.start(1) < e for s, e in decl_spans):
                    continue  # declaration/definition of the API itself
                seal_lines.append(lineno)
            # A `Bytes` on the opener line is the return type, not a local.
            if not opens_func and BYTES_LOCAL.search(code):
                bytes_seen = True
            if SECURE_ZERO.search(code):
                zero_seen = True
        depth += delta
        while frames and depth <= frames[-1]:
            frames.pop()
            if not frames:
                judge()
    judge()  # unterminated (truncated file)
    return violations


def extract_lock_facts(rel: str, stripped: list[str]) -> LockExtract:
    """Single lexical pass: guard scopes, function contexts, call sites.

    Deliberately heuristic (this is a lint, not a compiler): function
    bodies are recognised by `name(...) ... {`, guard lifetimes by brace
    depth, and calls by `identifier(`. The heuristics are tuned so false
    *edges* (which could fabricate a cycle) are far less likely than false
    negatives: interprocedural propagation only follows calls to uniquely
    named, non-generic functions that demonstrably take guards.
    """
    ex = LockExtract()
    depth = 0
    # (lock id, depth at declaration); active at the current point.
    guard_stack: list[tuple[str, int]] = []
    # (function name, depth before its opening brace)
    func_stack: list[tuple[str, int]] = []
    pending_func: str | None = None

    for idx, code in enumerate(stripped):
        lineno = idx + 1
        if code.lstrip().startswith("#"):
            continue

        # New guards on this line first: record nesting edges against the
        # guards already active.
        line_guards: list[str] = []
        for m in GUARD_DECL.finditer(code):
            lid = lock_id(rel, m.group(1))
            for outer, _d in guard_stack:
                if outer != lid:
                    ex.lexical_edges.append((outer, lid, lineno))
            if func_stack:
                fname = func_stack[-1][0]
                locks = ex.func_locks.setdefault(fname, [])
                if lid not in locks:
                    locks.append(lid)
            line_guards.append(lid)

        # Call sites / function-definition candidates.
        for m in CALL_OR_DEF.finditer(code):
            name = m.group(1)
            if name in CPP_KEYWORDS or len(name) < MIN_CALLEE_LEN:
                continue
            if name in GENERIC_NAMES:
                continue
            if GUARD_DECL.search(code) and name in ("HleGuard",
                                                    "HostMutexGuard"):
                continue
            held = [g for g, _d in guard_stack]
            if held:
                ex.guarded_calls.append((name, lineno, held))
            if func_stack:
                fname = func_stack[-1][0]
                calls = ex.func_calls.setdefault(fname, [])
                if name not in calls:
                    calls.append(name)
            pending_func = name  # definition candidate if a '{' follows

        # Brace accounting; pop scopes as they close.
        opens = code.count("{")
        closes = code.count("}")
        if opens and pending_func is not None and ";" not in code.split("{")[0]:
            func_stack.append((pending_func, depth))
            pending_func = None
        depth += opens - closes
        if ";" in code and opens == 0:
            pending_func = None
        while guard_stack and guard_stack[-1][1] > depth:
            guard_stack.pop()
        while func_stack and func_stack[-1][1] >= depth and closes:
            func_stack.pop()
        # Guards declared on this line live at the *current* depth.
        for lid in line_guards:
            guard_stack.append((lid, depth))

    for locks in ex.func_locks.values():
        locks.sort()
    return ex


def detect_lock_cycles(
    scans: dict[str, FileScan], policy: Policy
) -> list[Violation]:
    """Builds the global lock graph and reports every edge inside a cycle.

    Edges come from (a) lexical guard nesting and (b) calls made while a
    guard is held into functions that (transitively, via same-kind calls)
    take guards — one conservative level of indirection, enough to see
    clean_step()'s limbo→free edge through shard_push_chain().
    """
    # Unique, lock-taking function table across the tree.
    defs: dict[str, list[str]] = {}
    ambiguous: set[str] = set()
    for scan in scans.values():
        for fname, locks in scan.extract.func_locks.items():
            if fname in defs and defs[fname] != locks:
                ambiguous.add(fname)
            else:
                defs.setdefault(fname, locks)
    calls: dict[str, list[str]] = {}
    for scan in scans.values():
        for fname, callees in scan.extract.func_calls.items():
            calls.setdefault(fname, []).extend(callees)

    # Transitive closure of acquired locks over the call graph (bounded
    # fixpoint; the graph is tiny).
    closure: dict[str, set[str]] = {
        f: set(locks) for f, locks in defs.items() if f not in ambiguous
    }
    for _ in range(8):
        changed = False
        for fname in list(closure):
            for callee in calls.get(fname, []):
                extra = closure.get(callee)
                if extra and not extra <= closure[fname]:
                    closure[fname] |= extra
                    changed = True
        if not changed:
            break

    # Edge set: (outer, inner) -> first (rel, line) witnessing it.
    edges: dict[tuple[str, str], tuple[str, int]] = {}

    def add_edge(outer: str, inner: str, rel: str, line: int) -> None:
        if outer == inner:
            return
        edges.setdefault((outer, inner), (rel, line))

    for rel, scan in sorted(scans.items()):
        for outer, inner, line in scan.extract.lexical_edges:
            add_edge(outer, inner, rel, line)
        for callee, line, held in scan.extract.guarded_calls:
            inner_locks = closure.get(callee)
            if not inner_locks:
                continue
            for outer in held:
                for inner in sorted(inner_locks):
                    add_edge(outer, inner, rel, line)

    # Cycle detection: iterative DFS over the edge graph.
    graph: dict[str, list[str]] = {}
    for (outer, inner) in edges:
        graph.setdefault(outer, []).append(inner)
        graph.setdefault(inner, [])
    for succs in graph.values():
        succs.sort()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc: set[str] = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == node:
                        break
                sccs.append(scc)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    violations: list[Violation] = []
    for scc in sccs:
        if len(scc) < 2:
            continue
        cycle = " ↔ ".join(sorted(scc))
        for (outer, inner), (rel, line) in sorted(edges.items()):
            if outer in scc and inner in scc:
                if policy.exempt(rel, "lock-order-cycle"):
                    continue
                violations.append(
                    Violation(
                        Path(rel),
                        line,
                        "lock-order-cycle",
                        f"acquiring `{inner.split(':')[1]}` while holding "
                        f"`{outer.split(':')[1]}` closes a cycle in the "
                        f"lock graph [{cycle}]; two threads taking these "
                        f"locks in opposite orders can deadlock — fix the "
                        f"acquisition order (see the LockRank table, "
                        f"concurrent/lock_rank.hpp)",
                    )
                )
    return violations


def waived_rules(line: str) -> set[str]:
    m = WAIVER_LINE.search(line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


def lint_file(
    path: Path, rel: str, policy: Policy, payload_types: set[str]
) -> FileScan:
    scan = FileScan()
    try:
        raw_lines = path.read_text(errors="replace").splitlines()
    except OSError as e:
        print(f"warning: cannot read {path}: {e}", file=sys.stderr)
        return scan
    stripped = strip_comments_and_strings(raw_lines)

    file_waivers: set[str] = set()
    for line in raw_lines[:15]:
        m = WAIVER_FILE.search(line)
        if m:
            file_waivers |= {r.strip() for r in m.group(1).split(",")}

    violations = scan.violations
    pending_next: set[str] = set()
    line_waiver_map: dict[int, set[str]] = {}
    for idx, (raw, code) in enumerate(zip(raw_lines, stripped)):
        lineno = idx + 1
        line_waivers = waived_rules(raw) | pending_next | file_waivers
        line_waiver_map[lineno] = line_waivers
        pending_next = set()
        m = WAIVER_NEXT.search(raw)
        if m:
            pending_next = {r.strip() for r in m.group(1).split(",")}
            continue
        for rule in policy.rules.values():
            if policy.exempt(rel, rule.name):
                continue
            for pat in rule.patterns:
                pm = pat.search(code)
                if not pm:
                    continue
                if rule.name in line_waivers:
                    scan.waiver_count += 1
                    break
                violations.append(
                    Violation(
                        path,
                        lineno,
                        rule.name,
                        f"`{pm.group(0).strip()}` — {rule.description}",
                    )
                )
                break  # one diagnostic per rule per line

    if not policy.exempt(rel, "payload-raw-pointer"):
        for v in check_payload_structs(path, stripped, payload_types):
            if "payload-raw-pointer" in file_waivers or "payload-raw-pointer" in waived_rules(
                raw_lines[v.line - 1]
            ):
                scan.waiver_count += 1
                continue
            violations.append(v)

    if not policy.exempt(rel, "tsa-unjustified"):
        for v in check_tsa_justifications(path, rel, raw_lines, stripped):
            if "tsa-unjustified" in line_waiver_map.get(v.line, set()):
                scan.waiver_count += 1
                continue
            violations.append(v)

    if not policy.exempt(rel, "epoch-pairing"):
        for v in check_epoch_pairing(path, stripped):
            if "epoch-pairing" in line_waiver_map.get(v.line, set()):
                scan.waiver_count += 1
                continue
            violations.append(v)

    if not policy.exempt(rel, "seal-plaintext-zeroize"):
        for v in check_seal_zeroize(path, stripped):
            if "seal-plaintext-zeroize" in line_waiver_map.get(
                v.line, set()
            ):
                scan.waiver_count += 1
                continue
            violations.append(v)

    # Lock facts are extracted for EVERY scanned file (trusted or not):
    # a deadlock between an untrusted guard and a trusted one is still a
    # deadlock.
    scan.extract = extract_lock_facts(rel, stripped)
    return scan


# --- scan cache (satellite: skip unchanged files) ---------------------------

CACHE_VERSION = 5


def scan_to_jsonable(scan: FileScan) -> dict:
    return {
        "violations": [
            [str(v.path), v.line, v.rule, v.message] for v in scan.violations
        ],
        "waivers": scan.waiver_count,
        "extract": {
            "func_locks": scan.extract.func_locks,
            "lexical_edges": scan.extract.lexical_edges,
            "guarded_calls": scan.extract.guarded_calls,
            "func_calls": scan.extract.func_calls,
        },
    }


def scan_from_jsonable(raw: dict) -> FileScan:
    scan = FileScan()
    scan.violations = [
        Violation(Path(p), line, rule, msg)
        for p, line, rule, msg in raw["violations"]
    ]
    scan.waiver_count = raw["waivers"]
    ex = raw["extract"]
    scan.extract = LockExtract(
        func_locks={k: list(v) for k, v in ex["func_locks"].items()},
        lexical_edges=[tuple(e) for e in ex["lexical_edges"]],
        guarded_calls=[
            (name, line, list(held)) for name, line, held in ex["guarded_calls"]
        ],
        func_calls={k: list(v) for k, v in ex["func_calls"].items()},
    )
    return scan


def load_cache(path: Path, policy_stamp: tuple[float, int]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        if raw.get("version") != CACHE_VERSION:
            return {}
        if raw.get("policy_stamp") != list(policy_stamp):
            return {}
        return raw.get("files", {})
    except (OSError, ValueError):
        return {}


def save_cache(
    path: Path, policy_stamp: tuple[float, int], files: dict
) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "version": CACHE_VERSION,
                    "policy_stamp": list(policy_stamp),
                    "files": files,
                },
                f,
            )
        os.replace(tmp, path)
    except OSError as e:
        print(f"warning: cannot write lint cache {path}: {e}", file=sys.stderr)


# --- driving ----------------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(policy_path: str, payload_types: set[str]) -> None:
    _WORKER_STATE["policy"] = Policy.load(Path(policy_path))
    _WORKER_STATE["payload_types"] = payload_types


def _worker_scan(item: tuple[str, str]) -> tuple[str, dict]:
    path_s, rel = item
    scan = lint_file(
        Path(path_s),
        rel,
        _WORKER_STATE["policy"],
        _WORKER_STATE["payload_types"],
    )
    return rel, scan_to_jsonable(scan)


def check_modules(root: Path, policy: Policy) -> list[Violation]:
    """Rules `module-missing` and `module-unlisted`: the policy's module
    lists and the source root's top-level directories must name the same
    modules. A listed module with no source files is reported at the policy
    line naming it; a directory in neither list at line 1 of its first
    source file."""
    sources: dict[str, list[Path]] = {}
    for path in sorted(root.rglob("*")):
        if path.suffix in SOURCE_SUFFIXES and path.is_file():
            module = path.relative_to(root).parts[0]
            sources.setdefault(module, []).append(path)
    policy_lines: list[str] = []
    if policy.path is not None:
        policy_lines = policy.path.read_text().splitlines()
    listed = policy.trusted_modules + policy.untrusted_modules
    violations: list[Violation] = []
    for module in listed:
        if module in sources:
            continue
        line = next(
            (i + 1 for i, text in enumerate(policy_lines)
             if f'"{module}"' in text),
            1,
        )
        violations.append(
            Violation(
                policy.path or root,
                line,
                "module-missing",
                f"module `{module}` is listed in [modules] but "
                f"{root.name}/{module} holds no source files; delete the "
                "entry, its budget and its exemptions with the module",
            )
        )
    for module, files in sources.items():
        if module not in listed:
            violations.append(
                Violation(
                    files[0],
                    1,
                    "module-unlisted",
                    f"`{module}` is in neither [modules].trusted nor "
                    "[modules].untrusted; list it (until then its files "
                    "are linted as trusted)",
                )
            )
    return violations


def run_lint(
    root: Path,
    policy: Policy,
    policy_path: Path | None = None,
    jobs: int = 1,
    cache_path: Path | None = None,
) -> tuple[list[Violation], int]:
    files = sorted(
        p
        for p in root.rglob("*")
        if p.suffix in SOURCE_SUFFIXES and p.is_file()
    )
    payload_types = collect_payload_types(files)

    # Every file is scanned: the lock pass needs them all. Untrusted
    # modules' diagnostics are filtered below (blocking on the host is
    # fine). Trusted and unlisted modules keep every rule: an unlisted one
    # also fails `module-unlisted`, and its code must not escape the
    # enclave rules meanwhile.
    wanted = [(path, path.relative_to(root).as_posix()) for path in files]

    untrusted = set(policy.untrusted_modules)

    if cache_path is not None and policy_path is not None:
        try:
            st = policy_path.stat()
            policy_stamp = (st.st_mtime, st.st_size)
        except OSError:
            policy_stamp = (0.0, 0)
        cached = load_cache(cache_path, policy_stamp)
    else:
        policy_stamp = (0.0, 0)
        cached = {}

    fresh: dict[str, dict] = {}
    to_scan: list[tuple[str, str]] = []
    for path, rel in wanted:
        try:
            st = path.stat()
            stamp = [st.st_mtime, st.st_size]
        except OSError:
            stamp = [0.0, 0]
        entry = cached.get(rel)
        if entry is not None and entry.get("stamp") == stamp:
            fresh[rel] = entry
        else:
            to_scan.append((str(path), rel))

    scanned: dict[str, dict] = {}
    if to_scan:
        jobs = max(1, min(jobs, len(to_scan)))
        if jobs > 1 and policy_path is not None:
            with multiprocessing.Pool(
                jobs, _worker_init, (str(policy_path), payload_types)
            ) as pool:
                for rel, raw in pool.imap_unordered(_worker_scan, to_scan):
                    scanned[rel] = {"scan": raw}
        else:
            for path_s, rel in to_scan:
                scan = lint_file(Path(path_s), rel, policy, payload_types)
                scanned[rel] = {"scan": scan_to_jsonable(scan)}
        for path_s, rel in to_scan:
            try:
                st = Path(path_s).stat()
                scanned[rel]["stamp"] = [st.st_mtime, st.st_size]
            except OSError:
                scanned[rel]["stamp"] = [0.0, 0]

    all_entries = {**fresh, **scanned}
    if cache_path is not None and policy_path is not None:
        save_cache(cache_path, policy_stamp, all_entries)

    scans: dict[str, FileScan] = {
        rel: scan_from_jsonable(entry["scan"])
        for rel, entry in all_entries.items()
    }

    all_violations: list[Violation] = []
    total_waivers = 0
    for rel in sorted(scans):
        module = rel.split("/", 1)[0]
        scan = scans[rel]
        if module in untrusted:
            # Host-side modules keep only the concurrency-correctness rules
            # and the sealed-plaintext hygiene pass (host memory is exactly
            # where a leaked bundle would linger); the enclave regex rules
            # were never evaluated for them (v1 semantics preserved) — drop
            # anything else defensively.
            scan.violations = [
                v
                for v in scan.violations
                if v.rule in ("tsa-unjustified", "seal-plaintext-zeroize")
            ]
        all_violations.extend(scan.violations)
        total_waivers += scan.waiver_count

    all_violations.extend(check_modules(root, policy))
    for v in detect_lock_cycles(scans, policy):
        # Cycle diagnostics carry tree-relative paths; rebase onto root so
        # render() produces the same shape as other rules.
        v.path = root / v.path
        all_violations.append(v)

    all_violations.sort(key=lambda v: (str(v.path), v.line, v.rule))
    return all_violations, total_waivers


def self_test(tools_dir: Path) -> int:
    fixtures = tools_dir / "lint_fixtures"
    policy = Policy.load(fixtures / "policy.toml")
    root = fixtures / "src"
    # Hermetic: no cache, in-process scan.
    violations, _ = run_lint(root, policy)
    # Paths relative to the fixture directory: the policy's own lines can
    # carry expectations too (`module-missing`).
    got = {
        (v.path.relative_to(fixtures).as_posix(), v.line, v.rule)
        for v in violations
    }

    expected: set[tuple[str, int, str]] = set()
    for path in [fixtures / "policy.toml", *sorted(root.rglob("*"))]:
        if path.suffix not in SOURCE_SUFFIXES | {".toml"}:
            continue
        rel = path.relative_to(fixtures).as_posix()
        for idx, line in enumerate(path.read_text().splitlines()):
            for m in EXPECT_RE.finditer(line):
                expected.add((rel, idx + 1, m.group(1)))

    ok = True
    for miss in sorted(expected - got):
        print(f"SELF-TEST FAIL: expected violation did not fire: {miss}")
        ok = False
    for extra in sorted(got - expected):
        print(f"SELF-TEST FAIL: unexpected violation: {extra}")
        ok = False
    if not expected:
        print("SELF-TEST FAIL: no EXPECT annotations found in fixtures")
        ok = False
    if ok:
        print(
            f"self-test OK: {len(expected)} seeded violations fired, "
            f"no false positives"
        )
        return 0
    return 1


# Paper §6.1: the enclave-resident TCB stays below 3.3 kLoC.
PAPER_TCB_BOUND = 3300
# The framework modules an enclave must trust (beyond crypto and the
# applications built on them) — what the paper's bound is compared with.
FRAMEWORK_MODULES = ("core", "concurrent")


def code_lines(path: Path) -> int:
    """Non-blank lines of `path` once comments (and literals) are stripped."""
    stripped = strip_comments_and_strings(path.read_text().splitlines())
    return sum(1 for line in stripped if line.strip())


def tcb_report(root: Path, policy: Policy) -> int:
    """`--tcb`: code lines per trusted module against its budget."""
    counts: dict[str, int] = {}
    failed = False
    for module in policy.trusted_modules:
        files = [p for p in sorted((root / module).rglob("*"))
                 if p.suffix in SOURCE_SUFFIXES]
        counts[module] = sum(code_lines(p) for p in files)
        budget = policy.tcb_budget.get(module)
        if not files:
            verdict = "FAIL: no source files (module-missing)"
            failed = True
        elif budget is None:
            verdict = "FAIL: no budget in [modules.tcb_budget]"
            failed = True
        elif counts[module] > budget:
            verdict = f"FAIL: over budget {budget} by {counts[module] - budget}"
            failed = True
        elif counts[module] < budget:
            verdict = (f"FAIL: under budget {budget} by "
                       f"{budget - counts[module]}: lower the entry to "
                       f"{counts[module]}")
            failed = True
        else:
            verdict = f"ok (budget {budget})"
        print(f"  {module:<12} {counts[module]:>6} code lines  {verdict}")
    for v in check_modules(root, policy):
        if v.rule == "module-unlisted":
            print(f"  FAIL: {v.message}")
            failed = True
    print(f"  {'total':<12} {sum(counts.values()):>6} code lines")
    framework = sum(counts.get(m, 0) for m in FRAMEWORK_MODULES)
    holds = framework < PAPER_TCB_BOUND
    print(f"  {' + '.join(FRAMEWORK_MODULES)}: {framework} code lines; paper "
          f"§6.1 bound < {PAPER_TCB_BOUND} "
          f"({'holds' if holds else 'does not hold'})")
    if failed:
        print("enclave-lint --tcb: budget check failed")
        return 1
    if not holds:
        print("enclave-lint --tcb: the paper's §6.1 bound does not hold")
        return 1
    print("enclave-lint --tcb: every trusted module at its budget")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tools_dir = Path(__file__).resolve().parent
    ap.add_argument("--root", type=Path, default=tools_dir.parent / "src")
    ap.add_argument(
        "--policy", type=Path, default=tools_dir / "enclave_policy.toml"
    )
    ap.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=os.cpu_count() or 1,
        help="parallel scan processes (default: cpu count)",
    )
    ap.add_argument(
        "--cache",
        type=Path,
        default=tools_dir.parent / "build" / ".enclave_lint_cache.json",
        help="mtime cache path (default: build/.enclave_lint_cache.json)",
    )
    ap.add_argument(
        "--no-cache",
        action="store_true",
        help="rescan everything, touching no cache file",
    )
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument(
        "--tcb",
        action="store_true",
        help="report code lines per trusted module against the budgets",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test(tools_dir)

    if not args.root.is_dir():
        print(f"error: source root {args.root} not found", file=sys.stderr)
        return 2
    try:
        policy = Policy.load(args.policy)
    except FileNotFoundError:
        print(f"error: policy file {args.policy} not found", file=sys.stderr)
        return 2
    except tomllib.TOMLDecodeError as e:
        print(f"error: policy file {args.policy}: {e}", file=sys.stderr)
        return 2
    if args.tcb:
        return tcb_report(args.root, policy)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    violations, waivers = run_lint(
        args.root,
        policy,
        policy_path=args.policy,
        jobs=args.jobs,
        cache_path=None if args.no_cache else args.cache,
    )
    for v in violations:
        print(v.render(args.root))
    if violations:
        print(
            f"\nenclave-lint: {len(violations)} violation(s) "
            f"({waivers} inline waiver(s) honoured)"
        )
        return 1
    print(f"enclave-lint: clean ({waivers} inline waiver(s) honoured)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
