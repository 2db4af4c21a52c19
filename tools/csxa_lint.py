#!/usr/bin/env python3
"""csxa security-contract linter.

Enforces the project invariants no generic static analyzer knows — the
contracts the paper's threat model rests on, machine-checked at review
time instead of rediscovered as runtime flakes:

  error-taxonomy
      In the attacker-input modules (src/crypto wire/verification code,
      src/server, src/net transport), Status failure constructors are
      restricted to a per-module allowlist, and functions on the
      verification path (Decode*/Verify*/DecryptVerified*) may fail ONLY
      as IntegrityError.
      This is the PR 7 bug class: a stale-session race misclassified as
      InvalidArgument slipped through every attack test that only checked
      "some error happened".

  duplicate-integrity-message
      Every Status::IntegrityError message literal must be unique across
      src/. The fuzz corpus and the server and transport tests pin
      failures by class and diagnose them by message; two sites sharing one message make a
      pinned rejection ambiguous.

  unguarded-memcpy
      No raw memcpy/memcmp on a container's .data() with a runtime size
      unless a size guard appears in the enclosing statement (or the
      statement right above it). This is the PR 7 UBSan class: memcpy
      from a zero-length span's .data() is UB even for zero bytes.

  naked-mutex
      No std::mutex / std::lock_guard / std::unique_lock / etc. outside
      src/common/thread_annotations.h. A naked std::mutex is invisible to
      clang Thread Safety Analysis, so whatever it guards silently drops
      out of the compile-time locking contract.

  taint-release
      Every UnverifiedBytes::ReleaseUnverified() call site — the single
      typestate escape hatch of src/common/tainted.h — must carry a
      written justification waiver. A naked escape is a finding: the
      allowlist of pre-verification byte uses is reviewed, not implied.

  byte-reinterpret
      No naked reinterpret_cast to byte/char pointers outside
      src/common/bytes.h (common::AsBytes / common::AsChars). Scattered
      byte reinterprets are exactly how tainted terminal bytes get
      laundered past the typestate wall without tripping the type system.

  taint-dataflow
      Intraprocedural source→sink tracking of the verify-before-trust
      invariant. Sources: BatchSource reads (ReadBatch/ReadRange), the
      store's FillBatch, wire decodes (DecodeBatchResponse, including the
      decode-into form, whose `&out` argument becomes tainted) and
      ReleaseUnverified() escapes.
      Sinks: navigator feeds (OpenBuffer), witness minting
      (VerifiedViewOf) and digest-cache writes (Record). Any path from a
      source to a sink that does not pass a verification mint site
      (DecryptVerifiedBatch / VerifyChunkAgainstMaterial / VerifyData) —
      including laundering through assignments, copies,
      raw pointers or memcpy — is a finding. The PR 1 range-narrowing
      decrypt and PR 6 cache-poisoning bugs were both instances of this
      pattern, found dynamically; this pins the class statically.

Engines: a libclang AST engine (preferred when the clang python bindings
are importable — CI installs them) and a token-level text engine that is
always available; `--engine auto` uses libclang per file and falls back
to the text engine wherever parsing is unavailable, so the gate never
depends on the host having clang (pass --strict to make any fallback a
hard error — what CI runs, so the AST checks can never silently vanish).
Both engines share the statement-level dataflow core; libclang
contributes AST-accurate function extents. Both are validated against
the fixture tree in tools/lint_fixtures by `--self-test`.

A site may waive one check with a justification comment on its own line
or the line above:
    // csxa-lint: allow(<check-name>) <reason>
The reason is mandatory; a bare waiver is itself a finding.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Policy
# --------------------------------------------------------------------------

FAILURE_CONSTRUCTORS = {
    "InvalidArgument", "ParseError", "OutOfRange", "IntegrityError",
    "Corruption", "NotSupported", "ResourceExhausted", "Internal",
    "Unavailable", "DeadlineExceeded",
}

# Per-module allowlists of Status failure constructors, first match wins
# (paths are relative to --root, '/'-separated). Rationale per line: the
# point is that *adding* a new failure class to an attacker-input module is
# a reviewed policy change, not a drive-by.
TAXONOMY_POLICY = [
    # The wire decoder faces raw attacker bytes: every failure is an
    # integrity failure by definition.
    ("src/crypto/wire_format.cc", {"IntegrityError"}),
    # Store/decryptor: IntegrityError on the verification path,
    # InvalidArgument for owner/SOE API misuse (layout validation, output
    # buffer sizing), OutOfRange for honest range math at the terminal.
    ("src/crypto/secure_store.cc",
     {"IntegrityError", "InvalidArgument", "OutOfRange"}),
    # The digest cache never constructs failures (pure cache; verification
    # failures belong to its callers).
    ("src/crypto/digest_cache.cc", set()),
    # Merkle proof-shape errors are wrapped into IntegrityError by every
    # verification-path caller; the module itself reports malformed
    # *caller* input (InvalidArgument) and non-converging proofs
    # (Corruption).
    ("src/crypto/merkle.cc", {"InvalidArgument", "Corruption"}),
    # Backend registry: unknown backend names are caller errors.
    ("src/crypto/cipher_backend.cc", {"InvalidArgument"}),
    # Transport layer: the two retryable classes RemoteBatchSource's
    # retry loop is contracted on (Unavailable, DeadlineExceeded) plus
    # the terminal classes the error relay forwards verbatim
    # (IntegrityError, InvalidArgument). Anything else escaping a socket
    # would be uncontracted for every retry policy built on this layer.
    ("src/net/",
     {"Unavailable", "DeadlineExceeded", "IntegrityError",
      "InvalidArgument"}),
    # Default for the rest of src/crypto and all of src/server: the
    # integrity class plus caller errors; anything else (Corruption,
    # Internal, ...) is a policy change.
    ("src/crypto/", {"IntegrityError", "InvalidArgument"}),
    ("src/server/", {"IntegrityError", "InvalidArgument"}),
    # Owner side (parse, flat tree, encode): malformed XML is a
    # ParseError, a document or variant the encoder cannot take is
    # InvalidArgument. Its loops terminate by construction, so there is no
    # Internal "cannot happen" class to report.
    ("src/xml/sax_parser.cc", {"ParseError", "InvalidArgument"}),
    ("src/xml/flat_tree.cc", {"ParseError", "InvalidArgument"}),
    ("src/index/encoder.cc", {"ParseError", "InvalidArgument"}),
]

# Functions on the verification path: whatever the module allowlist says,
# these may only fail as IntegrityError — they judge attacker input, and a
# non-integrity class here is exactly the PR 7 misclassification.
STRICT_FUNCTION_RE = re.compile(r"^(Decode|Verify|DecryptVerified)")
STRICT_ALLOWED = {"IntegrityError"}

# Directories scanned per check (relative to root).
TAXONOMY_DIRS = ("src/crypto", "src/server", "src/net", "src/xml",
                 "src/index")
MESSAGE_DIRS = ("src",)
MEMCPY_DIRS = ("src", "tools")
MUTEX_DIRS = ("src", "tools")
MUTEX_EXEMPT = "src/common/thread_annotations.h"
TAINT_DIRS = ("src", "tools", "tests")
# The wrapper's own definition and the one sanctioned cast site.
TAINT_EXEMPT = "src/common/tainted.h"
BYTES_EXEMPT = "src/common/bytes.h"

# The reason must sit on the waiver's own line ([^\S\n]: spaces but not
# the newline) — otherwise the next code line would masquerade as one.
WAIVER_RE = re.compile(
    r"csxa-lint:\s*allow\(([a-z-]+)\)[^\S\n]*(\S[^\n]*)?")

CHECKS = ("error-taxonomy", "duplicate-integrity-message",
          "unguarded-memcpy", "naked-mutex", "taint-release",
          "byte-reinterpret", "taint-dataflow")


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return "%s:%d: error: [%s] %s" % (self.path, self.line, self.check,
                                          self.message)


# --------------------------------------------------------------------------
# Shared lexical helpers
# --------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Returns text with comments and string/char literal *contents* blanked
    (same length, newlines preserved) so structural scans never match inside
    them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (min(j, n) - i - 1) +
                       (quote if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def waivers_by_line(text):
    """line -> (check, has_reason) for every waiver comment, applying to
    the waiver's own line and the one below."""
    waivers = {}
    for m in WAIVER_RE.finditer(text):
        line = line_of(text, m.start())
        entry = (m.group(1), bool(m.group(2)))
        waivers[line] = entry
        waivers[line + 1] = entry
    return waivers


def waived(waivers, line, check, findings, path):
    w = waivers.get(line)
    if w is None or w[0] != check:
        return False
    if not w[1]:
        findings.append(Finding(path, line, check,
                                "waiver without a justification"))
    return True


def enclosing_functions(stripped):
    """Best-effort map of brace regions to function names.

    Returns a list of (start_offset, end_offset, name) for every
    function-looking brace block, outermost first. Namespace / class /
    enum braces are classified out by the text preceding their '{'."""
    regions = []
    stack = []  # (offset, kind, name)
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            head = stripped[max(0, i - 400):i]
            kind, name = _classify_block(head)
            stack.append((i, kind, name))
        elif c == "}":
            if stack:
                start, kind, name = stack.pop()
                if kind == "function":
                    regions.append((start, i, name))
        i += 1
    return regions


_FUNC_NAME_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:::\s*[A-Za-z_]\w*\s*)*\([^()]*(?:\([^()]*\)[^()]*)*\)"
    r"\s*(?:const|noexcept|override|final|->\s*[\w:<>,&*\s]+|\s)*$")


_CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                     "sizeof", "do", "else", "try"}


def _classify_block(head):
    head = head.rstrip()
    if re.search(r"\bnamespace\b[^{};]*$", head):
        return "other", None
    if re.search(r"\b(struct|class|union|enum)\b[^(){};]*$", head):
        return "other", None
    if head.endswith("=") or head.endswith("return"):
        return "other", None  # Braced initializer.
    m = _FUNC_NAME_RE.search(head)
    if m:
        # The name is the identifier right before the final '(' — walk the
        # matched text for the last identifier preceding its paren group.
        sig = m.group(0)
        paren = sig.index("(")
        name_m = re.search(r"([A-Za-z_]\w*)\s*$", sig[:paren])
        if name_m and name_m.group(1) not in _CONTROL_KEYWORDS:
            return "function", name_m.group(1)
    return "other", None


def function_at(regions, offset):
    best = None
    for start, end, name in regions:
        if start <= offset <= end:
            if best is None or start > best[0]:
                best = (start, name)
    return best[1] if best else None


def extract_call(text, open_paren):
    """Returns (args_text, end_offset) of the parenthesized call starting at
    text[open_paren] == '('."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:j], j
    return text[open_paren + 1:], len(text)


def leading_literal(raw_args):
    """Concatenated leading string literal of an argument list, or None."""
    s = raw_args.lstrip()
    parts = []
    while s.startswith('"'):
        m = re.match(r'"((?:[^"\\]|\\.)*)"\s*', s)
        if not m:
            break
        parts.append(m.group(1))
        s = s[m.end():]
    if not parts:
        return None
    return "".join(parts)


# --------------------------------------------------------------------------
# Text engine: error-taxonomy + unguarded-memcpy
# --------------------------------------------------------------------------

STATUS_CALL_RE = re.compile(r"Status::([A-Za-z]+)\s*\(")
MEM_CALL_RE = re.compile(r"(?:std::)?mem(?:cpy|cmp|move|set)\s*\(")
GUARD_TOKEN_RE = re.compile(r"[<>]|!=|==|\bempty\s*\(|\bmin\b|\bmax\b")
INT_LITERAL_RE = re.compile(r"^(?:\(\s*)*(?:\d+|0x[0-9a-fA-F]+|sizeof\b.*)")


def split_top_level_args(args):
    out, depth, cur = [], 0, []
    for ch in args:
        if ch in "([{<":
            depth += 1
        elif ch in ")]}>":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [a.strip() for a in out]


class TextEngine:
    name = "text"

    def taxonomy(self, path, rel, text, stripped, waivers, findings):
        allowed = _allowlist_for(rel)
        if allowed is None:
            return
        regions = enclosing_functions(stripped)
        for m in STATUS_CALL_RE.finditer(stripped):
            ctor = m.group(1)
            if ctor not in FAILURE_CONSTRUCTORS:
                continue
            line = line_of(stripped, m.start())
            func = function_at(regions, m.start())
            _judge_taxonomy(path, rel, line, ctor, func, allowed, waivers,
                            findings)

    def memcpy(self, path, rel, text, stripped, waivers, findings):
        if not rel.startswith(tuple(d + "/" for d in MEMCPY_DIRS)):
            return
        lines = stripped.split("\n")
        for m in MEM_CALL_RE.finditer(stripped):
            open_paren = stripped.index("(", m.start())
            args, _ = extract_call(stripped, open_paren)
            line = line_of(stripped, m.start())
            _judge_memcpy(path, line, args, lines, waivers, findings)

    def dataflow(self, path, rel, text, stripped, waivers, findings):
        regions = [(a, b) for a, b, _ in enclosing_functions(stripped)]
        _dataflow_file(path, rel, stripped, waivers, findings, regions)


def _allowlist_for(rel):
    if not rel.startswith(tuple(d + "/" for d in TAXONOMY_DIRS)):
        return None
    for prefix, allowed in TAXONOMY_POLICY:
        if rel == prefix or rel.startswith(prefix):
            return allowed
    return None


def _judge_taxonomy(path, rel, line, ctor, func, allowed, waivers, findings):
    if waived(waivers, line, "error-taxonomy", findings, path):
        return
    if func is not None and STRICT_FUNCTION_RE.match(func):
        if ctor not in STRICT_ALLOWED:
            findings.append(Finding(
                path, line, "error-taxonomy",
                "Status::%s in verification-path function %s(): attacker "
                "input must fail as IntegrityError" % (ctor, func)))
            return
    if ctor not in allowed:
        findings.append(Finding(
            path, line, "error-taxonomy",
            "Status::%s not in the failure-constructor allowlist for %s "
            "(allowed: %s)" % (ctor, rel,
                               ", ".join(sorted(allowed)) or "none")))


def _judge_memcpy(path, line, args, lines, waivers, findings):
    if ".data()" not in args:
        return
    parts = split_top_level_args(args)
    if len(parts) >= 3 and INT_LITERAL_RE.match(parts[-1]):
        return  # Compile-time-constant size: cannot be a zero-length span.
    if waived(waivers, line, "unguarded-memcpy", findings, path):
        return
    # Guard window: the call's own statement (which may start on earlier
    # lines) plus the two lines above it — enough for the idioms
    #   if (k != 0) std::memcpy(...)
    #   if (whole > 0) {\n  std::memcpy(...)
    lo = max(0, line - 3)
    window = "\n".join(lines[lo:line])
    for cond in re.finditer(r"\bif\s*\(", window):
        cond_text, _ = extract_call(window, window.index("(", cond.start()))
        if GUARD_TOKEN_RE.search(cond_text):
            return
    findings.append(Finding(
        path, line, "unguarded-memcpy",
        "raw mem* on container .data() with a runtime size and no size "
        "guard in the enclosing statement (zero-length spans hand mem* a "
        "null/one-past-end pointer: UB)"))


# --------------------------------------------------------------------------
# Taint dataflow core (shared by both engines)
# --------------------------------------------------------------------------

SOURCE_CALL_RE = re.compile(
    r"\b(?:ReadBatch|FillBatch|ReadRange|DecodeBatchResponse)\s*\(|"
    r"(?:\.|->)\s*ReleaseUnverified\s*\(")
ADDRESS_ARG_RE = re.compile(r"^\s*&\s*([A-Za-z_]\w*)")
MINT_CALL_RE = re.compile(
    r"\b(?:DecryptVerifiedBatch|VerifyChunkAgainstMaterial|VerifyData)\s*\(")
SINK_CALL_RE = re.compile(
    r"\bOpenBuffer\s*\(|\bVerifiedViewOf\s*\(|(?:->|\.)\s*Record\s*\(")
ASSIGN_OR_RETURN_RE = re.compile(r"\bCSXA_ASSIGN_OR_RETURN\s*\(")
MEMCPY_PROP_RE = re.compile(r"\b(?:std::)?mem(?:cpy|move)\s*\(")
_LAST_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")


def _statements(stripped, begin, end):
    """Yields (offset, text) statement slices of stripped[begin:end], split
    on ';' and braces. Nested-block statements are included — the scan is
    per enclosing function, flow-insensitively over its whole body."""
    start = begin
    for i in range(begin, end):
        if stripped[i] in ";{}":
            yield start, stripped[start:i]
            start = i + 1
    yield start, stripped[start:end]


def _find_top_assign(stmt):
    """Offset of a top-level simple '=' (not ==/!=/<=/>= or inside parens),
    or None."""
    depth = 0
    for i, ch in enumerate(stmt):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth == 0:
            if i > 0 and stmt[i - 1] in "=!<>+-*/|&^%":
                continue
            if i + 1 < len(stmt) and stmt[i + 1] == "=":
                continue
            return i
    return None


def _scan_taint_region(path, stripped, begin, end, waivers, findings, seen):
    """Flow-insensitive forward taint scan of one function region.

    An identifier becomes tainted when a source call's result reaches it
    (assignment, declaration-init, CSXA_ASSIGN_OR_RETURN, memcpy/memmove
    destination — the laundering moves); a statement that invokes a sink
    while any tainted identifier (or a source call itself) appears in it,
    without passing a verification mint site, is a finding."""
    tainted = set()

    def has_taint(fragment):
        if SOURCE_CALL_RE.search(fragment):
            return True
        return any(re.search(r"\b%s\b" % re.escape(t), fragment)
                   for t in tainted)

    for off, stmt in _statements(stripped, begin, end):
        if MINT_CALL_RE.search(stmt):
            continue  # Verification path: its reads are the point.
        # A source that fills an out-parameter (`FillBatch(req, &resp)`,
        # `DecodeBatchResponse(p, n, &resp)`) taints what it writes.
        for src in SOURCE_CALL_RE.finditer(stmt):
            args, _ = extract_call(stmt, stmt.index("(", src.start()))
            for arg in split_top_level_args(args):
                am = ADDRESS_ARG_RE.match(arg)
                if am:
                    tainted.add(am.group(1))
        sink = SINK_CALL_RE.search(stmt)
        if sink and has_taint(stmt):
            line = line_of(stripped, off + sink.start())
            if (path, line) not in seen:
                seen.add((path, line))
                if not waived(waivers, line, "taint-dataflow", findings,
                              path):
                    findings.append(Finding(
                        path, line, "taint-dataflow",
                        "unverified bytes reach a trust sink without "
                        "passing a verification mint site "
                        "(DecryptVerifiedBatch/VerifyChunkAgainstMaterial)"))
        m = ASSIGN_OR_RETURN_RE.search(stmt)
        if m:
            args, _ = extract_call(stmt, stmt.index("(", m.start()))
            parts = split_top_level_args(args)
            if len(parts) >= 2 and has_taint(",".join(parts[1:])):
                lm = _LAST_IDENT_RE.search(parts[0])
                if lm:
                    tainted.add(lm.group(1))
            continue
        m = MEMCPY_PROP_RE.search(stmt)
        if m:
            args, _ = extract_call(stmt, stmt.index("(", m.start()))
            parts = split_top_level_args(args)
            if len(parts) >= 2 and has_taint(",".join(parts[1:])):
                dm = re.search(r"[A-Za-z_]\w*", parts[0])
                if dm:
                    tainted.add(dm.group(0))
            continue
        eq = _find_top_assign(stmt)
        if eq is not None:
            lhs, rhs = stmt[:eq], stmt[eq + 1:]
            if has_taint(rhs):
                lm = _LAST_IDENT_RE.search(lhs.rstrip(" \t&*"))
                if lm:
                    tainted.add(lm.group(1))
            continue
        # Declaration-init without '=': `Type name(tainted...)`. Requires a
        # type-ish token right before the name so plain calls don't taint
        # their callee.
        dm = re.search(r"([\w>\]])\s+([A-Za-z_]\w*)\s*\(", stmt)
        if dm:
            prev = re.search(r"([A-Za-z_]\w*)$", stmt[:dm.start() + 1])
            if prev and prev.group(1) not in _CONTROL_KEYWORDS:
                args, _ = extract_call(stmt, stmt.index("(", dm.end() - 1))
                if has_taint(args):
                    tainted.add(dm.group(2))


def _dataflow_file(path, rel, stripped, waivers, findings, regions):
    """Runs the taint scan over every function region (offset pairs)."""
    if not rel.startswith(tuple(d + "/" for d in TAINT_DIRS)):
        return
    seen = set()
    for begin, end in regions:
        _scan_taint_region(path, stripped, begin, end, waivers, findings,
                           seen)


# --------------------------------------------------------------------------
# libclang engine: same checks, AST-accurate function attribution
# --------------------------------------------------------------------------

class LibclangEngine:
    name = "libclang"

    def __init__(self, root):
        import clang.cindex  # noqa: F401 — probes availability.
        self._cindex = clang.cindex
        self._index = clang.cindex.Index.create()
        self._args = ["-std=c++20", "-I", os.path.join(root, "src")]

    def _parse(self, path):
        tu = self._index.parse(path, args=self._args)
        for d in tu.diagnostics:
            if d.severity >= self._cindex.Diagnostic.Fatal:
                raise RuntimeError("libclang failed to parse %s: %s" %
                                   (path, d.spelling))
        return tu

    def _function_extents(self, tu, path):
        """(start_line, end_line, name) for every function definition in
        this file; calls are attributed to the innermost containing extent.
        Lambdas are deliberately excluded so a call inside a lambda
        attributes to the named function that owns it (matching the text
        engine and the intent of the strict-function rule)."""
        kinds = self._cindex.CursorKind
        extents = []
        for c in tu.cursor.walk_preorder():
            if c.kind not in (kinds.FUNCTION_DECL, kinds.CXX_METHOD,
                              kinds.FUNCTION_TEMPLATE, kinds.CONSTRUCTOR,
                              kinds.DESTRUCTOR):
                continue
            if not c.is_definition():
                continue
            loc = c.location
            if loc.file is None or os.path.abspath(loc.file.name) != \
                    os.path.abspath(path):
                continue
            extents.append((c.extent.start.line, c.extent.end.line,
                            c.spelling))
        return extents

    @staticmethod
    def _enclosing_function(extents, line):
        best = None
        for start, end, name in extents:
            if start <= line <= end:
                if best is None or start > best[0]:
                    best = (start, name)
        return best[1] if best else None

    def taxonomy(self, path, rel, text, stripped, waivers, findings):
        allowed = _allowlist_for(rel)
        if allowed is None:
            return
        kinds = self._cindex.CursorKind
        tu = self._parse(path)
        extents = self._function_extents(tu, path)
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != kinds.CALL_EXPR:
                continue
            if cursor.spelling not in FAILURE_CONSTRUCTORS:
                continue
            ref = cursor.referenced
            parent = ref.semantic_parent if ref is not None else None
            if parent is None or parent.spelling != "Status":
                continue
            loc = cursor.location
            if loc.file is None or os.path.abspath(loc.file.name) != \
                    os.path.abspath(path):
                continue
            func = self._enclosing_function(extents, loc.line)
            _judge_taxonomy(path, rel, loc.line, cursor.spelling, func,
                            allowed, waivers, findings)

    def memcpy(self, path, rel, text, stripped, waivers, findings):
        if not rel.startswith(tuple(d + "/" for d in MEMCPY_DIRS)):
            return
        kinds = self._cindex.CursorKind
        lines = stripped.split("\n")
        tu = self._parse(path)
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind != kinds.CALL_EXPR:
                continue
            if cursor.spelling not in ("memcpy", "memcmp", "memmove",
                                       "memset"):
                continue
            loc = cursor.location
            if loc.file is None or os.path.abspath(loc.file.name) != \
                    os.path.abspath(path):
                continue
            ext = cursor.extent
            args = text[_offset_of(text, ext.start.line, ext.start.column):
                        _offset_of(text, ext.end.line, ext.end.column)]
            paren = args.find("(")
            if paren == -1:
                continue
            _judge_memcpy(path, loc.line, args[paren + 1:-1], lines, waivers,
                          findings)

    def dataflow(self, path, rel, text, stripped, waivers, findings):
        if not rel.startswith(tuple(d + "/" for d in TAINT_DIRS)):
            return
        tu = self._parse(path)
        line_starts = [0]
        for i, ch in enumerate(stripped):
            if ch == "\n":
                line_starts.append(i + 1)
        regions = []
        for start_line, end_line, _ in self._function_extents(tu, path):
            begin = line_starts[min(start_line - 1, len(line_starts) - 1)]
            end = (line_starts[end_line] if end_line < len(line_starts)
                   else len(stripped))
            regions.append((begin, end))
        _dataflow_file(path, rel, stripped, waivers, findings, regions)


def _offset_of(text, line, column):
    off = 0
    for _ in range(line - 1):
        off = text.index("\n", off) + 1
    return off + column - 1


# --------------------------------------------------------------------------
# Whole-tree textual checks (identical under both engines)
# --------------------------------------------------------------------------

INTEGRITY_CALL_RE = re.compile(r"Status::IntegrityError\s*\(")

MUTEX_TOKEN_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable)\b")


def check_integrity_messages(files, findings):
    seen = {}  # message -> (path, line)
    for path, rel, text, stripped, waivers in files:
        if not rel.startswith(tuple(d + "/" for d in MESSAGE_DIRS)):
            continue
        for m in INTEGRITY_CALL_RE.finditer(stripped):
            open_paren = stripped.index("(", m.start())
            _, end = extract_call(stripped, open_paren)
            literal = leading_literal(text[open_paren + 1:end])
            line = line_of(stripped, m.start())
            if literal is None:
                continue  # Message assembled at runtime; class still pinned.
            if waived(waivers, line, "duplicate-integrity-message", findings,
                      path):
                continue
            if literal in seen:
                first = seen[literal]
                findings.append(Finding(
                    path, line, "duplicate-integrity-message",
                    "IntegrityError message %r already used at %s:%d — fuzz "
                    "pins become ambiguous" % (literal, first[0], first[1])))
            else:
                seen[literal] = (path, line)


def check_naked_mutex(files, findings):
    for path, rel, text, stripped, waivers in files:
        if not rel.startswith(tuple(d + "/" for d in MUTEX_DIRS)):
            continue
        if rel == MUTEX_EXEMPT:
            continue
        for m in MUTEX_TOKEN_RE.finditer(stripped):
            line = line_of(stripped, m.start())
            if waived(waivers, line, "naked-mutex", findings, path):
                continue
            findings.append(Finding(
                path, line, "naked-mutex",
                "std::%s outside thread_annotations.h — invisible to clang "
                "Thread Safety Analysis; use csxa::Mutex / csxa::MutexLock"
                % m.group(1)))


RELEASE_CALL_RE = re.compile(r"(?:\.|->)\s*ReleaseUnverified\s*\(")
BYTE_REINTERPRET_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:const\s+)?"
    r"(?:unsigned\s+char|std::uint8_t|uint8_t|char)\s*\*\s*>")


def check_taint_release(files, findings):
    for path, rel, text, stripped, waivers in files:
        if not rel.startswith(tuple(d + "/" for d in TAINT_DIRS)):
            continue
        if rel == TAINT_EXEMPT:
            continue
        for m in RELEASE_CALL_RE.finditer(stripped):
            line = line_of(stripped, m.start())
            if waived(waivers, line, "taint-release", findings, path):
                continue
            findings.append(Finding(
                path, line, "taint-release",
                "ReleaseUnverified() without a justification — the typestate "
                "escape hatch requires // csxa-lint: allow(taint-release) "
                "<reason>"))


def check_byte_reinterpret(files, findings):
    for path, rel, text, stripped, waivers in files:
        if not rel.startswith(tuple(d + "/" for d in TAINT_DIRS)):
            continue
        if rel == BYTES_EXEMPT:
            continue
        for m in BYTE_REINTERPRET_RE.finditer(stripped):
            line = line_of(stripped, m.start())
            if waived(waivers, line, "byte-reinterpret", findings, path):
                continue
            findings.append(Finding(
                path, line, "byte-reinterpret",
                "naked byte reinterpret_cast outside common/bytes.h — use "
                "common::AsBytes()/AsChars() so the length travels with the "
                "cast"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def collect_files(root):
    files = []
    dirs = sorted({d.split("/")[0] for d in
                   TAXONOMY_DIRS + MESSAGE_DIRS + MEMCPY_DIRS + MUTEX_DIRS +
                   TAINT_DIRS})
    for top in dirs:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if not name.endswith((".cc", ".h")):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                # The fixture tree is deliberate violations for --self-test;
                # scanning it in the real lint would defeat its purpose. The
                # negative-compile matrix is likewise deliberate laundering
                # that must not even compile.
                if rel.startswith(("tools/lint_fixtures/",
                                   "tests/typestate_compile_test/")):
                    continue
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                stripped = strip_comments_and_strings(text)
                files.append((path, rel, text, stripped,
                              waivers_by_line(text)))
    return files


def make_engine(kind, root):
    if kind in ("auto", "libclang"):
        try:
            return LibclangEngine(root)
        except Exception as e:  # noqa: BLE001 — any import/ABI failure.
            if kind == "libclang":
                raise SystemExit("csxa_lint: libclang engine unavailable: %s"
                                 % e)
    return TextEngine()


def run_lint(root, engine_kind, strict=False):
    files = collect_files(root)
    engine = make_engine(engine_kind, root)
    if strict and engine.name != "libclang":
        raise SystemExit("csxa_lint: --strict requires the libclang engine "
                         "(python3-clang); refusing to run text-only")
    text_engine = TextEngine()
    findings = []
    for path, rel, text, stripped, waivers in files:
        eng = engine
        try:
            eng.taxonomy(path, rel, text, stripped, waivers, findings)
            eng.memcpy(path, rel, text, stripped, waivers, findings)
            eng.dataflow(path, rel, text, stripped, waivers, findings)
        except SystemExit:
            raise
        except Exception as e:  # AST engine choked on this file.
            if eng is text_engine:
                raise
            if strict:
                # The silent per-file fallback is exactly the hole --strict
                # closes: CI must never quietly lose the AST checks.
                raise SystemExit("csxa_lint: libclang failed on %s under "
                                 "--strict: %s" % (path, e))
            text_engine.taxonomy(path, rel, text, stripped, waivers, findings)
            text_engine.memcpy(path, rel, text, stripped, waivers, findings)
            text_engine.dataflow(path, rel, text, stripped, waivers, findings)
    check_integrity_messages(files, findings)
    check_naked_mutex(files, findings)
    check_taint_release(files, findings)
    check_byte_reinterpret(files, findings)
    return findings, engine.name


# --------------------------------------------------------------------------
# Self-test against the committed fixtures
# --------------------------------------------------------------------------

# (relative path, line, check) triples the fixture tree must produce —
# exactly these, no more. Lines are pinned so a drifting engine fails
# loudly rather than approximately.
EXPECTED_FIXTURE_FINDINGS = {
    ("src/crypto/wire_format.cc", 9, "error-taxonomy"),
    ("src/crypto/wire_format.cc", 14, "error-taxonomy"),
    ("src/crypto/secure_store.cc", 9, "error-taxonomy"),
    ("src/crypto/secure_store.cc", 24, "duplicate-integrity-message"),
    ("src/crypto/secure_store.cc", 31, "unguarded-memcpy"),
    ("src/server/document_service.cc", 8, "error-taxonomy"),
    ("src/server/document_service.cc", 15, "naked-mutex"),
    ("src/server/document_service.cc", 16, "naked-mutex"),
    ("src/server/document_service.cc", 22, "unguarded-memcpy"),
    ("src/net/transport.cc", 10, "error-taxonomy"),
    ("src/net/transport.cc", 15, "error-taxonomy"),
    ("src/index/encoder.cc", 10, "error-taxonomy"),
    ("src/taint/laundering.cc", 37, "taint-dataflow"),
    ("src/taint/laundering.cc", 48, "taint-dataflow"),
    ("src/taint/laundering.cc", 56, "taint-dataflow"),
    ("src/taint/laundering.cc", 61, "taint-release"),
    ("src/taint/laundering.cc", 67, "taint-release"),
    ("src/taint/laundering.cc", 72, "byte-reinterpret"),
    ("src/taint/laundering.cc", 89, "taint-dataflow"),
}


def self_test(fixture_root):
    ok = True
    engines = ["text"]
    try:
        LibclangEngine(fixture_root)
        engines.append("libclang")
    except Exception:
        print("self-test: libclang unavailable, testing text engine only")
    for kind in engines:
        findings, name = run_lint(fixture_root, kind)
        got = {(os.path.relpath(f.path, fixture_root).replace(os.sep, "/"),
                f.line, f.check) for f in findings}
        missing = EXPECTED_FIXTURE_FINDINGS - got
        extra = got - EXPECTED_FIXTURE_FINDINGS
        if missing or extra:
            ok = False
            for item in sorted(missing):
                print("self-test[%s]: MISSED expected finding: %s:%d [%s]"
                      % (name, *item))
            for item in sorted(extra):
                print("self-test[%s]: UNEXPECTED finding: %s:%d [%s]"
                      % (name, *item))
        else:
            print("self-test[%s]: %d/%d seeded violations caught, no false "
                  "positives" % (name, len(got),
                                 len(EXPECTED_FIXTURE_FINDINGS)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root to lint (default: this script's repo)")
    ap.add_argument("--engine", choices=["auto", "text", "libclang"],
                    default="auto")
    ap.add_argument("--self-test", action="store_true",
                    help="lint the committed fixture tree and assert every "
                         "seeded violation is caught")
    ap.add_argument("--strict", action="store_true",
                    help="fail (instead of falling back to the text engine) "
                         "when libclang is unavailable or cannot parse a "
                         "file — what CI runs")
    args = ap.parse_args()

    if args.self_test:
        fixture_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "lint_fixtures")
        sys.exit(0 if self_test(fixture_root) else 1)

    findings, engine = run_lint(args.root, args.engine, strict=args.strict)
    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print("csxa_lint[%s]: %d finding(s)" % (engine, len(findings)))
        sys.exit(1)
    print("csxa_lint[%s]: clean" % engine)


if __name__ == "__main__":
    main()
