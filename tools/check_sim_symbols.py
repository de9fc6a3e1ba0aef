#!/usr/bin/env python3
"""check_sim_symbols: no host I/O and no raw-seeded Rng in the simulation.

Simulated behaviour must depend only on SimTime and on streams seeded
through derive_seed. This check reads what the compiler emitted rather than
the source: it runs `nm -C` over the library archives, walks the
object-level link closure of the simulation layers and fails on any
undefined reference, in any object of that closure, to

  host clock        std::chrono::*_clock::now, clock_gettime,
                    gettimeofday, time, clock
  getenv            getenv, secure_getenv
  fopen             fopen, freopen, fdopen
  fstream           std::basic_{,i,o}fstream, std::basic_filebuf
  std::filesystem   anything in std::filesystem
  raw Rng seed      uwb::Rng::Rng(std::uint64_t), the out-of-line
                    constructor that takes a seed derive_seed did not mint

The closure starts from every object of src/{sim,channel,dw1000,ranging,
fault} and adds, transitively, each library object that defines a symbol
an object in it leaves undefined: the objects a binary using the
simulation links. Macros, inline functions and templates all end up as
symbols, so a call the source hides is still seen.

ALLOWLIST names the exceptions, one (object, banned name, reason) each. An
entry that matches no undefined symbol of an object in the closure is
stale and fails the check too, so it cannot pass by matching nothing.

Usage (ctest runs it with CMAKE_NM over every library target of the build):
    check_sim_symbols.py NM libuwb_common.a libuwb_sim.a ...

Exit status: 0 clean, 1 findings or stale entries, 2 usage or nm errors.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

SIM_LAYERS = ("sim/", "channel/", "dw1000/", "ranging/", "fault/")

BANNED = {
    "host clock": re.compile(
        r"^(?:std::chrono::(?:_V2::)?\w+_clock::now\(\)|clock_gettime|"
        r"gettimeofday|time|clock)$"),
    "getenv": re.compile(r"^(?:secure_)?getenv$"),
    "fopen": re.compile(r"^(?:fopen|freopen|fdopen)(?:64)?$"),
    "fstream": re.compile(r"std::basic_(?:i|o|)fstream<|std::basic_filebuf<"),
    "std::filesystem": re.compile(r"std::(?:__cxx11::)?filesystem::"),
    "raw Rng seed": re.compile(r"^uwb::Rng::Rng\(unsigned long(?: long)?\)$"),
}

ALLOWLIST = (
    ("obs/metrics.cpp.o", "host clock",
     "span and trial latencies are wall-clock telemetry; they land in the "
     "obs_* keys and never feed back into the simulation"),
    ("obs/trace_sink.cpp.o", "fstream",
     "Chrome trace export, written by the benches after a run"),
    ("obs/flight_recorder.cpp.o", "fopen",
     "JSONL export of a recording, written by the benches after a run"),
    ("simd/simd.cpp.o", "getenv",
     "UWB_SIMD_LEVEL pins the dispatch level once at startup; an "
     "unsupported value aborts instead of diverging"),
    ("ranging/session.cpp.o", "raw Rng seed",
     "a session's root stream, seeded from ScenarioConfig::seed"),
    ("ranging/network.cpp.o", "raw Rng seed",
     "a network's root stream, seeded from its config"),
    ("ranging/dstwr.cpp.o", "raw Rng seed",
     "a DS-TWR run's root stream, seeded from its config"),
)

_HEADER_RE = re.compile(r"^(\S+\.o):$")
_SYMBOL_RE = re.compile(r"^([0-9a-fA-F]+)?\s+([A-Za-z?-])\s+(.+)$")


def parse_listing(text):
    """(defined, undefined) symbol sets of one object's `nm -C` listing."""
    defined, undefined = set(), set()
    for line in text.splitlines():
        m = _SYMBOL_RE.match(line)
        if not m:
            continue
        (undefined if m.group(1) is None else defined).add(m.group(3))
    return defined, undefined


def parse_archive(text, layer):
    """{'<layer>/<member>': (defined, undefined)} from `nm -C lib.a`."""
    chunks, name = {}, None
    for line in text.splitlines():
        m = _HEADER_RE.match(line)
        if m:
            name = f"{layer}/{m.group(1)}"
            chunks[name] = []
        elif name is not None:
            chunks[name].append(line)
    return {n: parse_listing("\n".join(lines)) for n, lines in chunks.items()}


def link_closure(objects):
    """{object: the object that pulled it in (None for a root)} over the
    simulation layers' objects and everything they link."""
    definers = {}
    for name in sorted(objects):
        for sym in objects[name][0]:
            definers.setdefault(sym, []).append(name)
    parent = {n: None for n in sorted(objects) if n.startswith(SIM_LAYERS)}
    stack = list(parent)
    while stack:
        obj = stack.pop()
        for sym in sorted(objects[obj][1]):
            for d in definers.get(sym, ()):
                if d not in parent:
                    parent[d] = obj
                    stack.append(d)
    return parent


def _chain(parent, obj):
    chain = [obj]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return " <- ".join(chain)


def check(objects, allowlist=ALLOWLIST):
    """Problems found in `objects` ({name: (defined, undefined)}): banned
    references in the closure, then stale allowlist entries."""
    parent = link_closure(objects)
    allowed = {(obj, ban) for obj, ban, _ in allowlist}
    used = set()
    problems = []
    for obj in sorted(parent):
        for sym in sorted(objects[obj][1]):
            for ban, pattern in BANNED.items():
                if not pattern.search(sym):
                    continue
                if (obj, ban) in allowed:
                    used.add((obj, ban))
                    continue
                problems.append(
                    f"{obj}: [{ban}] {sym} (in the closure: "
                    f"{_chain(parent, obj)})")
    for obj, ban, _ in allowlist:
        if (obj, ban) not in used:
            where = ("matches no undefined symbol" if obj in parent
                     else "is not in the closure")
            problems.append(f"stale allowlist entry ({obj}, {ban}): {where}")
    return problems


def read_archives(nm, archives):
    objects = {}
    for path in archives:
        base = os.path.basename(path)
        layer = re.sub(r"^lib(?:uwb_)?|\.a$", "", base)
        res = subprocess.run([nm, "-C", path], capture_output=True, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"{nm} -C {path} failed: {res.stderr.strip()}")
        objects.update(parse_archive(res.stdout, layer))
    return objects


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="check_sim_symbols",
        description="Banned host-I/O and raw-seed symbols in the link "
                    "closure of the simulation layers.")
    parser.add_argument("nm", help="the nm binary")
    parser.add_argument("archives", nargs="+",
                        help="static libraries (libuwb_<layer>.a)")
    args = parser.parse_args(argv)
    try:
        objects = read_archives(args.nm, args.archives)
    except (OSError, RuntimeError) as e:
        print(f"check_sim_symbols: {e}", file=sys.stderr)
        return 2
    problems = check(objects)
    for p in problems:
        print(p)
    if problems:
        print(f"check_sim_symbols: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    n_closure = len(link_closure(objects))
    print(f"check_sim_symbols: {n_closure} of {len(objects)} objects in the "
          f"closure, {len(ALLOWLIST)} allowlist entries, all used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
