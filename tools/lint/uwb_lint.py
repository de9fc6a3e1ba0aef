#!/usr/bin/env python3
"""uwb_lint: project-specific static checks for the concurrent-ranging repo.

The rules encode determinism and unit-safety invariants that generic tools
cannot know about:

  no-raw-random        All randomness must flow from the seeded uwb::Rng /
                       derive_seed plumbing.  std::random_device, rand(),
                       srand() and time()-seeded generators silently break
                       the bit-identical replay contract.  src/ names no
                       <random> engine or distribution at all, Rng's own
                       files included: their sequences are
                       implementation-defined, so a draw would depend on
                       the standard library.
  no-wall-clock-in-sim Simulation code must read SimTime, never the host
                       clock.  std::chrono::{system,steady,high_resolution}
                       _clock in the simulation layers makes results depend
                       on the machine running them.
  unordered-iteration  Range-for over std::unordered_{map,set} produces
                       platform-dependent ordering; result-producing code
                       must iterate deterministic containers (or sort first).
  nodiscard-result     A function returning uwb::Status or uwb::Result<T>
                       communicates failure through its return value;
                       declarations must carry [[nodiscard]] so dropping the
                       value is a compile error at every call site.
  magic-tick-constant  The DW1000 tick (15.65e-12 s) and CIR tap spacing
                       (1.0016e-9 s) live in src/common/constants.hpp; raw
                       copies of those literals drift out of sync.
  raw-intrinsics       SIMD intrinsics (immintrin.h, _mm*/_mm256_*,
                       vld1q_*) are confined to src/simd/ where the
                       dispatch layer guards ISA availability and the
                       equivalence contract is tested; a stray intrinsic
                       elsewhere silently breaks the scalar/avx2
                       forced-dispatch CI legs.
  obs-event-literal    Flight-recorder and metrics record sites must name
                       their event with a string literal and their kind
                       with an FrKind enum constant; computed names would
                       make the recording schema ungreppable and break the
                       explain pipeline's vocabulary.
  explicit-fma         std::fma, __builtin_fma and FP_CONTRACT pragmas are
                       confined to src/simd/. Every target builds with
                       -ffp-contract=off, so an explicit fused multiply-add
                       is the one way left to change rounding.
  unordered-container  src/ declares no unordered or pointer-keyed
                       container: their iteration order, and so the order
                       of any reduction over them, depends on the platform
                       or on allocation addresses. The memos in src/ use an
                       ordered map or a list, and need no allow marker.

Implementation: when libclang is importable the checker could parse real
ASTs, but the baked toolchain ships without it, so the real path is a
structured line scanner: comments and string literals are stripped first
(so prose mentioning rand() or 15.65e-12 never fires), then per-rule
regexes run over what remains.

Suppression: append `// uwb-lint: allow(<rule>)` to the offending line, or
place it alone on the line directly above.

Exit status: 0 when no findings, 1 when any finding, 2 on usage errors.
Findings print as `file:line: [rule] message`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

import sarif

# --------------------------------------------------------------------------
# Source model: physical lines with comments/strings removed, plus the
# suppressions harvested from the comments before stripping.


@dataclass
class SourceFile:
    path: str            # path relative to the repo root, '/'-separated
    raw_lines: list      # original text, 0-indexed
    code_lines: list     # comment- and string-stripped text, 0-indexed
    suppressed: dict     # line number (1-based) -> set of rule names


_ALLOW_RE = re.compile(r"//\s*uwb-lint:\s*allow\(([a-z\-,\s]+)\)")


def _collect_suppressions(lines):
    """Map 1-based line numbers to the rules allowed on that line.

    A marker suppresses its own line; a marker on an otherwise-empty line
    also suppresses the line below it.
    """
    suppressed = {}
    for i, line in enumerate(lines, start=1):
        m = _ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        suppressed.setdefault(i, set()).update(rules)
        if line[: m.start()].strip() == "":
            suppressed.setdefault(i + 1, set()).update(rules)
    return suppressed


def _strip_comments_and_strings(text):
    """Blank out comments, string and char literals, preserving newlines
    and column positions (replaced spans become spaces)."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            blank(i, j)
            i = j
        elif c == '"':
            # Raw string literal with any encoding prefix: R"d(...)d",
            # u8R/uR/UR/LR likewise.  The prefix must not be the tail of a
            # longer identifier (FOOBAR"..." is not a raw string).
            rm = re.search(r"(u8R|uR|UR|LR|R)$", text[max(0, i - 3):i])
            if rm:
                pstart = i - len(rm.group(1))
                before = text[pstart - 1] if pstart > 0 else ""
                if not (before.isalnum() or before == "_"):
                    m = re.match(r'"([^()\\\s]*)\(', text[i:])
                    if m:
                        close = ")" + m.group(1) + '"'
                        j = text.find(close, i + m.end())
                        j = n if j == -1 else j + len(close)
                        blank(i, j)
                        i = j
                        continue
            # Ordinary string: ends at the closing quote or, failing that,
            # at the newline — a literal cannot span a raw newline, and
            # running past it would desynchronize every later line.
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 2
                elif text[j] == "\n":
                    break
                else:
                    j += 1
            if j < n and text[j] == "\n":
                blank(i, j)
                i = j
                continue
            blank(i, min(j + 1, n))
            i = j + 1
        elif c == "'":
            # Only treat as a char literal when it can't be a digit separator
            # (1'000'000) — separators sit between alphanumerics.
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() and i + 1 < n and text[i + 1].isalnum():
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 2
                elif text[j] == "\n":
                    break
                else:
                    j += 1
            if j < n and text[j] == "\n":
                blank(i, j)
                i = j
                continue
            blank(i, min(j + 1, n))
            i = j + 1
        else:
            i += 1
    return "".join(out)


def load_source(root, relpath):
    with open(os.path.join(root, relpath), encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.split("\n")
    code_lines = _strip_comments_and_strings(text).split("\n")
    return SourceFile(
        path=relpath.replace(os.sep, "/"),
        raw_lines=raw_lines,
        code_lines=code_lines,
        suppressed=_collect_suppressions(raw_lines),
    )


# --------------------------------------------------------------------------
# Findings and rule registry.


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RULES = {}


def rule(name):
    def register(fn):
        RULES[name] = fn
        return fn
    return register


def _in_dirs(path, prefixes):
    return any(path.startswith(p) for p in prefixes)


# --------------------------------------------------------------------------
# no-raw-random


_RAW_RANDOM_PATTERNS = [
    (re.compile(r"std\s*::\s*random_device"), "std::random_device is nondeterministic"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() bypass the seeded Rng"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()-derived seeds are nondeterministic"),
]

# The seed plumbing itself and the Rng wrapper are the one place entropy
# may enter; everything else derives from them.
_RAW_RANDOM_ALLOWED = ("src/runner/", "src/common/random.")

# <random>'s engines and distributions, banned everywhere in src/ with no
# exemption: std::*_distribution differs between libstdc++ and libc++, and
# uwb::Rng draws every value from its own Philox stream and formulas.
_STD_RANDOM_SCOPE = ("src/",)
_STD_RANDOM_RE = re.compile(
    r"std\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|ranlux(?:24|48)(?:_base)?|"
    r"knuth_b|\w+_engine|\w+_distribution|"
    r"generate_canonical|seed_seq)\b")

# Fault/attack injection carries a stricter contract on top: every stream
# must be owned by the injector (derive_seed from its stream base) and keyed
# by stable identifiers (node id, frame chain), never shared with a
# simulation RNG. A literal or sim-owned seed silently breaks the
# zero-probability-plans-are-byte-identical contract.
_FAULT_SCOPE = ("src/fault/",)
_FAULT_RNG_CTOR_RE = re.compile(
    r"(?<![\w:])Rng\s*(?:\w+\s*)?\(\s*(?!derive_seed\b)")


@rule("no-raw-random")
def check_no_raw_random(src):
    """All randomness must come from the seeded uwb::Rng plumbing."""
    findings = []
    entropy_allowed = _in_dirs(src.path, _RAW_RANDOM_ALLOWED)
    in_std_random_scope = _in_dirs(src.path, _STD_RANDOM_SCOPE)
    in_fault_scope = _in_dirs(src.path, _FAULT_SCOPE)
    for i, line in enumerate(src.code_lines, start=1):
        if not entropy_allowed:
            for pat, why in _RAW_RANDOM_PATTERNS:
                if pat.search(line):
                    findings.append(Finding(
                        src.path, i, "no-raw-random",
                        f"{why}; route randomness through uwb::Rng / "
                        "derive_seed"))
        if in_std_random_scope and _STD_RANDOM_RE.search(line):
            findings.append(Finding(
                src.path, i, "no-raw-random",
                "<random> engines and distributions are implementation-"
                "defined; draw through uwb::Rng, whose generator and "
                "distributions are written in src/common/random.cpp"))
        if in_fault_scope and _FAULT_RNG_CTOR_RE.search(line):
            findings.append(Finding(
                src.path, i, "no-raw-random",
                "fault/attack Rng must be constructed from an "
                "injector-owned derive_seed(...) stream, not a literal or "
                "externally-owned seed"))
    return findings


# --------------------------------------------------------------------------
# no-wall-clock-in-sim


_WALL_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\s*::\s*(system_clock|steady_clock|high_resolution_clock)")

# Simulation layers where host time must never leak in. The obs layer
# (latency spans) and the runner (wall-clock progress) legitimately read
# host clocks and sit outside these prefixes.
_SIM_SCOPE = ("src/sim/", "src/channel/", "src/dw1000/", "src/ranging/", "src/fault/")


@rule("no-wall-clock-in-sim")
def check_no_wall_clock(src):
    """Simulation code reads SimTime, never the host clock."""
    if not _in_dirs(src.path, _SIM_SCOPE):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        m = _WALL_CLOCK_RE.search(line)
        if m:
            findings.append(Finding(
                src.path, i, "no-wall-clock-in-sim",
                f"std::chrono::{m.group(1)} in simulation code; "
                "use SimTime from the event loop"))
    return findings


# --------------------------------------------------------------------------
# unordered-iteration


_UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)\s*[;{=]")
_RANGE_FOR_RE = re.compile(r"for\s*\(\s*[^;:()]*:\s*([\w.\->]+)\s*\)")


@rule("unordered-iteration")
def check_unordered_iteration(src):
    """Range-for over unordered containers yields platform-dependent order."""
    declared = set()
    for line in src.code_lines:
        for m in _UNORDERED_DECL_RE.finditer(line):
            declared.add(m.group(1))
    if not declared:
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        m = _RANGE_FOR_RE.search(line)
        if not m:
            continue
        target = m.group(1)
        leaf = re.split(r"\.|->", target)[-1]
        if leaf in declared:
            findings.append(Finding(
                src.path, i, "unordered-iteration",
                f"range-for over unordered container '{target}' has "
                "platform-dependent order; iterate a sorted copy or a "
                "deterministic container"))
    return findings


# --------------------------------------------------------------------------
# nodiscard-result


_STATUS_DECL_RE = re.compile(
    r"^\s*(?:virtual\s+|static\s+|friend\s+|constexpr\s+|inline\s+)*"
    r"(?:uwb\s*::\s*)?(Status|Result\s*<)(?=[\w\s<>:,*&]*\s[A-Za-z_]\w*\s*\()")


def _returns_status(line):
    """True when the stripped line begins a declaration returning
    Status/Result<T> (not a constructor, not a variable)."""
    m = _STATUS_DECL_RE.match(line)
    if not m:
        return False
    rest = line[m.end(1):]
    if m.group(1).startswith("Result"):
        # Skip to past the closing '>' of the template argument.
        depth, j = 1, 0
        while j < len(rest) and depth > 0:
            if rest[j] == "<":
                depth += 1
            elif rest[j] == ">":
                depth -= 1
            j += 1
        rest = rest[j:]
    # A function declaration follows: identifier then '('. Qualified names
    # (out-of-line definitions) are excluded — the attribute belongs on the
    # in-class/in-header declaration.
    m2 = re.match(r"\s*([A-Za-z_]\w*)\s*\(", rest)
    return m2 is not None and not rest.lstrip().startswith("operator")


@rule("nodiscard-result")
def check_nodiscard_result(src):
    """Header declarations returning Status/Result<T> carry [[nodiscard]]."""
    if not src.path.endswith((".hpp", ".h")):
        return []
    if src.path.endswith("common/result.hpp"):
        # The class definitions themselves (constructors, internals).
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        if not _returns_status(line):
            continue
        prev = src.code_lines[i - 2] if i >= 2 else ""
        if "[[nodiscard]]" in line or "[[nodiscard]]" in prev:
            continue
        findings.append(Finding(
            src.path, i, "nodiscard-result",
            "function returning Status/Result must be [[nodiscard]] so "
            "errors cannot be silently dropped"))
    return findings


# --------------------------------------------------------------------------
# magic-tick-constant


_MAGIC_RE = re.compile(r"(?<![\w.])(15\.65e-0?12|1\.0016e-0?9)(?![\d])")

# The single source of truth for these values, plus the unit types built
# directly on top of them.
_MAGIC_ALLOWED = ("src/common/constants.hpp", "src/common/units.hpp")


@rule("magic-tick-constant")
def check_magic_tick_constant(src):
    """Tick/tap-spacing literals belong in common/constants.hpp."""
    if src.path in _MAGIC_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        m = _MAGIC_RE.search(line)
        if m:
            name = "k::dw_tick_s" if m.group(1).startswith("15") else "k::cir_ts_s"
            findings.append(Finding(
                src.path, i, "magic-tick-constant",
                f"raw literal {m.group(1)} duplicates {name} "
                "(common/constants.hpp)"))
    return findings


# --------------------------------------------------------------------------
# raw-intrinsics


_INTRINSIC_HEADER_RE = re.compile(
    r"#\s*include\s*[<\"]"
    r"(immintrin|emmintrin|xmmintrin|pmmintrin|tmmintrin|smmintrin|"
    r"nmmintrin|wmmintrin|avxintrin|avx2intrin|x86intrin|arm_neon)\.h[>\"]")
_INTRINSIC_IDENT_RE = re.compile(
    r"(?<![\w:])(_mm_\w+|_mm256_\w+|_mm512_\w+|v(?:ld|st)[1-4]q?_\w+)")

# The vectorization layer: ISA-guarded kernel TUs plus the dispatch core.
_INTRINSICS_ALLOWED = ("src/simd/",)


@rule("raw-intrinsics")
def check_raw_intrinsics(src):
    """SIMD intrinsics and their headers are confined to src/simd/."""
    if _in_dirs(src.path, _INTRINSICS_ALLOWED):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        # Quoted includes are blanked by the string stripper, so match the
        # header name on the raw line — but only when the stripped line still
        # carries the #include (prose in comments must not fire).
        m = _INTRINSIC_HEADER_RE.search(src.raw_lines[i - 1])
        if m and re.match(r"\s*#\s*include", line):
            findings.append(Finding(
                src.path, i, "raw-intrinsics",
                f"intrinsics header <{m.group(1)}.h> outside src/simd/; "
                "add a kernel to src/simd/ and call it through the "
                "dispatch layer"))
            continue
        m = _INTRINSIC_IDENT_RE.search(line)
        if m:
            findings.append(Finding(
                src.path, i, "raw-intrinsics",
                f"raw intrinsic '{m.group(1)}' outside src/simd/; "
                "add a kernel to src/simd/ and call it through the "
                "dispatch layer"))
    return findings


# --------------------------------------------------------------------------
# obs-event-literal


_OBS_RECORD_MACRO_RE = re.compile(
    r"(?<!\w)(UWB_FR_EVENT|UWB_OBS_SPAN|UWB_OBS_COUNT|UWB_OBS_GAUGE_SET|"
    r"UWB_OBS_HISTOGRAM)\s*\(")

# The macro definitions (and the recorder's own tests of them) live here;
# inside them the arguments are forwarded parameters, not call sites.
_OBS_LITERAL_ALLOWED = ("src/obs/",)


def _collect_call(src, line_no, col):
    """Return (code_text, raw_text) of a balanced-paren argument list
    starting just past the opening '(' at (line_no 1-based, col 0-based).

    Paren depth is tracked on code_lines, where strings are blanked, so a
    ')' inside a literal never closes the call; raw_lines supply the
    parallel text (same columns) so literal checks can see the quotes.
    """
    depth = 1
    code_parts, raw_parts = [], []
    li, ci = line_no - 1, col
    while li < len(src.code_lines):
        cl, rl = src.code_lines[li], src.raw_lines[li]
        while ci < len(cl):
            ch = cl[ci]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(code_parts), "".join(raw_parts)
            code_parts.append(ch)
            raw_parts.append(rl[ci] if ci < len(rl) else ch)
            ci += 1
        code_parts.append("\n")
        raw_parts.append("\n")
        li, ci = li + 1, 0
    return "".join(code_parts), "".join(raw_parts)


_FR_KIND_ENUM_RE = re.compile(
    r"\.\s*kind\s*=\s*(?:::\s*)?(?:uwb\s*::\s*)?(?:obs\s*::\s*)?FrKind\s*::\s*k\w+")
_FR_NAME_LITERAL_RE = re.compile(r"\.\s*name\s*=\s*\"")


@rule("obs-event-literal")
def check_obs_event_literal(src):
    """Event names/kinds at record sites are literals/enum constants, so
    the event vocabulary is greppable and tools can rely on it."""
    if _in_dirs(src.path, _OBS_LITERAL_ALLOWED):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        for m in _OBS_RECORD_MACRO_RE.finditer(line):
            macro = m.group(1)
            code_text, raw_text = _collect_call(src, i, m.end())
            if macro == "UWB_FR_EVENT":
                if not _FR_KIND_ENUM_RE.search(code_text):
                    findings.append(Finding(
                        src.path, i, "obs-event-literal",
                        "UWB_FR_EVENT must set .kind to an FrKind::k* "
                        "enum constant"))
                if not _FR_NAME_LITERAL_RE.search(raw_text):
                    findings.append(Finding(
                        src.path, i, "obs-event-literal",
                        "UWB_FR_EVENT must set .name to a string literal "
                        "(the event vocabulary is part of the recording "
                        "schema)"))
            else:
                if not raw_text.lstrip().startswith('"'):
                    findings.append(Finding(
                        src.path, i, "obs-event-literal",
                        f"{macro} name must be a string literal, not an "
                        "expression (metric names are a fixed vocabulary)"))
    return findings


# --------------------------------------------------------------------------
# explicit-fma


_FMA_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*|::\s*)?fma[fl]?\s*\(|__builtin_fma[fl]?\b|"
    r"\bFP_CONTRACT\b|#\s*pragma\s+(?:clang\s+fp\s+contract|fp_contract)\b")

# The dispatch-tested kernels: the one place a fused multiply-add may be
# spelled out.
_FMA_ALLOWED = ("src/simd/",)


@rule("explicit-fma")
def check_explicit_fma(src):
    """Fused multiply-adds and contraction pragmas stay in src/simd/."""
    if _in_dirs(src.path, _FMA_ALLOWED):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        m = _FMA_RE.search(line)
        if m:
            findings.append(Finding(
                src.path, i, "explicit-fma",
                f"'{m.group(0).rstrip('(').strip()}' outside src/simd/ "
                "fuses a multiply and an add, changing result bits against "
                "the -ffp-contract=off build; keep FMA inside the "
                "dispatch-tested kernels"))
    return findings


# --------------------------------------------------------------------------
# unordered-container


_UNORDERED_TYPE_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\b")
_PTR_KEY_TYPE_RE = re.compile(
    r"std\s*::\s*(?:map|set|multimap|multiset)\s*<\s*[^,<>;]*\*\s*[,>]")
_CONTAINER_SCOPE = ("src/",)


@rule("unordered-container")
def check_unordered_container(src):
    """src/ holds no unordered or pointer-keyed container."""
    if not _in_dirs(src.path, _CONTAINER_SCOPE):
        return []
    findings = []
    for i, line in enumerate(src.code_lines, start=1):
        if _UNORDERED_TYPE_RE.search(line):
            findings.append(Finding(
                src.path, i, "unordered-container",
                "unordered container: iteration order, and any float "
                "reduction over it, differs across standard libraries; use "
                "an ordered container or a sorted vector"))
        elif _PTR_KEY_TYPE_RE.search(line):
            findings.append(Finding(
                src.path, i, "unordered-container",
                "pointer-keyed container: iteration follows allocation "
                "addresses, which differ from run to run; key it by a "
                "stable id"))
    return findings


# --------------------------------------------------------------------------
# Driver.


_DEFAULT_DIRS = ("src", "tests", "bench", "examples", "tools")
_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")


def discover_files(root, paths):
    if paths:
        rels = []
        for p in paths:
            ap = os.path.abspath(p)
            rels.append(os.path.relpath(ap, root))
        return sorted(rels)
    rels = []
    for d in _DEFAULT_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(dn for dn in dirnames if dn != "fixtures")
            for fn in sorted(filenames):
                if fn.endswith(_EXTENSIONS):
                    rels.append(os.path.relpath(os.path.join(dirpath, fn), root))
    return sorted(rels)


def rule_help():
    """Rule name -> its docstring on one line."""
    return {name: " ".join(fn.__doc__.split()) for name, fn in RULES.items()}


def lint_file(root, relpath, rules):
    src = load_source(root, relpath)
    findings = []
    for name in rules:
        for f in RULES[name](src):
            if f.rule in src.suppressed.get(f.line, set()):
                continue
            findings.append(f)
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="uwb_lint", description="Determinism and unit-safety checks.")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: src/ tests/ bench/ "
                             "examples/ tools/ under --root)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above "
                             "this script)")
    parser.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("--sarif", metavar="FILE",
                        help="also write findings as SARIF 2.1.0 to FILE")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, text in sorted(rule_help().items()):
            print(f"{name}: {text}")
        return 0

    rules = args.rules or sorted(RULES)
    unknown = [r for r in rules if r not in RULES]
    if unknown:
        print(f"uwb_lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    findings = []
    for relpath in discover_files(root, args.paths):
        findings.extend(lint_file(root, relpath, rules))

    for f in findings:
        print(f.render())
    if args.sarif:
        sarif.write_sarif(findings, rule_help(), args.sarif)
    if findings:
        print(f"uwb_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
