#!/usr/bin/env python3
"""Self-tests for tools/check_sim_symbols.py.

Each fixture is the `nm -C` listing of a small translation unit compiled
with g++ 12 -O2 against src/common/random.hpp, recorded verbatim except
for local labels (.LC*); random.cpp.o keeps only the symbols used here. The
violating fixtures reach host I/O directly, through a helper and two
objects away, and seed an Rng from a literal and from an underived
parameter; the clean ones are what the check must not flag.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_sim_symbols as css  # noqa: E402

# namespace uwb { void dump() { std::ofstream f("x.csv"); (void)f; } }
DIRECT_FSTREAM = """\
0000000000000000 V DW.ref.__gxx_personality_v0
                 U _Unwind_Resume
0000000000000000 T uwb::dump()
0000000000000000 t uwb::dump() [clone .cold]
                 U std::__basic_file<char>::~__basic_file()
                 U std::basic_filebuf<char, std::char_traits<char> >::open(char const*, std::_Ios_Openmode)
                 U std::basic_filebuf<char, std::char_traits<char> >::close()
                 U std::basic_filebuf<char, std::char_traits<char> >::basic_filebuf()
                 U std::basic_filebuf<char, std::char_traits<char> >::~basic_filebuf()
                 U std::locale::~locale()
                 U std::ios_base::ios_base()
                 U std::ios_base::~ios_base()
                 U std::basic_ios<char, std::char_traits<char> >::init(std::basic_streambuf<char, std::char_traits<char> >*)
                 U std::basic_ios<char, std::char_traits<char> >::clear(std::_Ios_Iostate)
                 U VTT for std::basic_ofstream<char, std::char_traits<char> >
                 U vtable for std::basic_filebuf<char, std::char_traits<char> >
                 U vtable for std::basic_ofstream<char, std::char_traits<char> >
                 U vtable for std::basic_streambuf<char, std::char_traits<char> >
                 U vtable for std::basic_ios<char, std::char_traits<char> >
                 U __cxa_begin_catch
                 U __cxa_end_catch
                 U __gxx_personality_v0
"""

# const char* env() { return std::getenv("UWB_X"); }
ENV_HELPER = """\
0000000000000000 T uwb::env()
                 U getenv
"""

# void detect() { env(); }
ENV_USER = """\
                 U uwb::env()
0000000000000000 T uwb::detect()
"""

# double now_s() { return steady_clock::now()...count() * 1e-9; }
CLOCK_HELPER = """\
0000000000000000 T uwb::now_s()
                 U std::chrono::_V2::steady_clock::now()
"""

# double stamp() { return now_s(); }
STAMP_HELPER = """\
                 U uwb::now_s()
0000000000000000 T uwb::stamp()
"""

# double realize() { return stamp(); }
STAMP_USER = """\
                 U uwb::stamp()
0000000000000000 T uwb::realize()
"""

# void f() { Rng rng(12345); (void)rng; }
LITERAL_SEED = """\
0000000000000000 T uwb::f()
                 U uwb::Rng::Rng(unsigned long)
"""

# void f(std::uint64_t seed) { Rng rng(seed); (void)rng; }
# void entry() { f(42); }
PARAMETER_SEED = """\
0000000000000000 T uwb::f(unsigned long)
                 U uwb::Rng::Rng(unsigned long)
0000000000000020 T uwb::entry()
"""

# double f(std::uint64_t base) {
#   Rng rng(derive_seed(base, 3)); return rng.uniform(0.0, 1.0); }
DERIVED_SEED = """\
                 U uwb::derive_seed(unsigned long, unsigned long)
0000000000000000 T uwb::f(unsigned long)
                 U uwb::Rng::uniform(double, double)
"""

# double wall_s() { return steady_clock::now()...count() * 1e-9; }
RUNNER_CLOCK = """\
0000000000000000 T uwb::wall_s()
                 U std::chrono::_V2::steady_clock::now()
"""

# void step() {}
STEP = """\
0000000000000000 T uwb::step()
"""

# src/common/random.cpp: defines the raw constructor.
RANDOM = """\
0000000000000000 T uwb::derive_seed(unsigned long, unsigned long)
00000000000001f0 T uwb::Rng::uniform(double, double)
0000000000000090 T uwb::Rng::Rng(unsigned long)
0000000000000090 T uwb::Rng::Rng(unsigned long)
"""


def problems(listings, allowlist=()):
    objects = {name: css.parse_listing(text)
               for name, text in listings.items()}
    return css.check(objects, allowlist)


class ViolationTest(unittest.TestCase):
    """Each must be flagged at the object that references the symbol."""

    def assert_flagged(self, listings, obj, ban):
        found = problems(listings)
        self.assertTrue(found, "nothing flagged")
        for p in found:
            self.assertTrue(p.startswith(f"{obj}: [{ban}] "), p)

    def test_direct_fstream_in_sim(self):
        self.assert_flagged({"sim/x.cpp.o": DIRECT_FSTREAM},
                            "sim/x.cpp.o", "fstream")

    def test_getenv_through_a_common_helper(self):
        found = problems({"common/env.cpp.o": ENV_HELPER,
                          "ranging/x.cpp.o": ENV_USER})
        self.assertEqual(found, [
            "common/env.cpp.o: [getenv] getenv (in the closure: "
            "common/env.cpp.o <- ranging/x.cpp.o)"])

    def test_steady_clock_two_hops_away(self):
        found = problems({"common/clock.cpp.o": CLOCK_HELPER,
                          "common/stamp.cpp.o": STAMP_HELPER,
                          "channel/x.cpp.o": STAMP_USER})
        self.assertEqual(found, [
            "common/clock.cpp.o: [host clock] "
            "std::chrono::_V2::steady_clock::now() (in the closure: "
            "common/clock.cpp.o <- common/stamp.cpp.o <- channel/x.cpp.o)"])

    def test_literal_seed(self):
        self.assert_flagged({"sim/x.cpp.o": LITERAL_SEED,
                             "common/random.cpp.o": RANDOM},
                            "sim/x.cpp.o", "raw Rng seed")

    def test_underived_parameter_seed(self):
        self.assert_flagged({"sim/x.cpp.o": PARAMETER_SEED,
                             "common/random.cpp.o": RANDOM},
                            "sim/x.cpp.o", "raw Rng seed")


class CleanTest(unittest.TestCase):
    def test_runner_clock_outside_the_closure(self):
        self.assertEqual(problems({"runner/x.cpp.o": RUNNER_CLOCK,
                                   "sim/x.cpp.o": STEP}), [])

    def test_derived_seed(self):
        self.assertEqual(problems({"sim/x.cpp.o": DERIVED_SEED,
                                   "common/random.cpp.o": RANDOM}), [])


class AllowlistTest(unittest.TestCase):
    def test_entry_suppresses_its_object_and_ban_only(self):
        listings = {"ranging/session.cpp.o": LITERAL_SEED,
                    "ranging/x.cpp.o": PARAMETER_SEED,
                    "common/random.cpp.o": RANDOM}
        allow = [("ranging/session.cpp.o", "raw Rng seed", "root stream")]
        found = problems(listings, allow)
        self.assertEqual(len(found), 1)
        self.assertTrue(found[0].startswith("ranging/x.cpp.o: "), found)

    def test_entry_matching_nothing_is_stale(self):
        allow = [("sim/x.cpp.o", "getenv", "no longer true")]
        self.assertEqual(problems({"sim/x.cpp.o": STEP}, allow), [
            "stale allowlist entry (sim/x.cpp.o, getenv): matches no "
            "undefined symbol"])

    def test_entry_outside_the_closure_is_stale(self):
        allow = [("runner/x.cpp.o", "host clock", "not linked by sim")]
        self.assertEqual(
            problems({"runner/x.cpp.o": RUNNER_CLOCK, "sim/x.cpp.o": STEP},
                     allow),
            ["stale allowlist entry (runner/x.cpp.o, host clock): is not "
             "in the closure"])

    def test_every_entry_names_a_known_ban(self):
        for obj, ban, reason in css.ALLOWLIST:
            self.assertIn(ban, css.BANNED, obj)
            self.assertTrue(reason, obj)


class ParseTest(unittest.TestCase):
    def test_archive_members_get_their_layer(self):
        text = ("\nclock.cpp.o:\n" + CLOCK_HELPER +
                "\nstamp.cpp.o:\n" + STAMP_HELPER)
        objects = css.parse_archive(text, "common")
        self.assertEqual(sorted(objects), ["common/clock.cpp.o",
                                           "common/stamp.cpp.o"])
        defined, undefined = objects["common/stamp.cpp.o"]
        self.assertEqual(defined, {"uwb::stamp()"})
        self.assertEqual(undefined, {"uwb::now_s()"})


if __name__ == "__main__":
    unittest.main()
