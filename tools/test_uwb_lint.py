#!/usr/bin/env python3
"""Self-tests for tools/lint/uwb_lint.py.

Each rule gets at least one violating and one clean fixture, written into a
temporary repo-shaped tree so the path-scoping (allowlists, sim-layer
prefixes) is exercised exactly as in the real repo.  Run directly or via
`python3 -m unittest discover tools`.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint"))

import uwb_lint  # noqa: E402


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return relpath

    def lint(self, relpath, rule):
        return uwb_lint.lint_file(self.root, relpath, [rule])

    def assert_findings(self, relpath, rule, lines):
        findings = self.lint(relpath, rule)
        self.assertEqual([f.line for f in findings], lines,
                         msg=f"{rule} on {relpath}: {findings}")
        for f in findings:
            self.assertEqual(f.rule, rule)

    # -- no-raw-random ----------------------------------------------------

    def test_raw_random_violation(self):
        p = self.write("src/sim/bad_random.cpp", (
            "#include <random>\n"
            "int entropy() {\n"
            "  std::random_device rd;\n"
            "  return rd() + rand();\n"
            "}\n"))
        self.assert_findings(p, "no-raw-random", [3, 4])

    def test_raw_random_clean_and_allowlisted(self):
        clean = self.write("src/sim/good_random.cpp", (
            "#include \"common/random.hpp\"\n"
            "double draw(uwb::Rng& rng) { return rng.normal(0.0, 1.0); }\n"))
        self.assert_findings(clean, "no-raw-random", [])
        # The seed plumbing itself may touch entropy sources.
        allowed = self.write("src/runner/seed_source.cpp", (
            "unsigned fallback_seed() { std::random_device rd; return rd(); }\n"))
        self.assert_findings(allowed, "no-raw-random", [])

    def test_raw_random_in_comment_or_string_ignored(self):
        p = self.write("src/sim/docs.cpp", (
            "// Never call rand() or std::random_device here.\n"
            "const char* kMsg = \"srand(time(0)) is banned\";\n"))
        self.assert_findings(p, "no-raw-random", [])

    def test_time_seed_violation(self):
        p = self.write("src/ranging/seeded.cpp",
                       "auto s = time(NULL);\n")
        self.assert_findings(p, "no-raw-random", [1])

    def test_fault_scope_literal_seed_violation(self):
        p = self.write("src/fault/bad_attack.cpp", (
            "#include \"common/random.hpp\"\n"
            "void jam() {\n"
            "  Rng rogue(12345);\n"
            "  (void)rogue;\n"
            "}\n"))
        self.assert_findings(p, "no-raw-random", [3])

    def test_fault_scope_injector_owned_streams_clean(self):
        p = self.write("src/fault/good_attack.cpp", (
            "#include \"common/random.hpp\"\n"
            "struct NodeState {\n"
            "  Rng rng;\n"
            "  explicit NodeState(std::uint64_t seed) : rng(seed) {}\n"
            "};\n"
            "void inject(std::uint64_t base, std::uint64_t chain) {\n"
            "  Rng rng(derive_seed(base, chain));\n"
            "  const std::uint64_t seed = derive_seed(base, 7);\n"
            "  NodeState state(seed);\n"
            "  (void)rng; (void)state;\n"
            "}\n"))
        self.assert_findings(p, "no-raw-random", [])

    def test_std_random_engine_and_distribution_violation(self):
        # No exemption for Rng's own files: the entropy allowlist does not
        # cover <random>.
        p = self.write("src/common/random.cpp", (
            "#include <random>\n"
            "std::mt19937_64 engine(42);\n"
            "double draw() {\n"
            "  return std::normal_distribution<double>(0.0, 1.0)(engine);\n"
            "}\n"
            "std::ranlux48 other;\n"
            "std :: uniform_int_distribution<int> pick(0, 3);\n"))
        self.assert_findings(p, "no-raw-random", [2, 4, 6, 7])

    def test_std_random_outside_src_and_lookalikes_clean(self):
        # Tests and benches may use <random> for inputs of their own; in
        # src/, prose and project names that merely look alike are fine.
        test = self.write("tests/test_gen.cpp", (
            "std::mt19937 gen(1);\n"
            "std::uniform_real_distribution<double> dist(0.0, 1.0);\n"))
        self.assert_findings(test, "no-raw-random", [])
        src = self.write("src/common/random.cpp", (
            "// Replaces std::mt19937_64 and std::normal_distribution.\n"
            "std::uint64_t Rng::bits() { return next_word(); }\n"
            "double pulse_distribution(double x) { return x; }\n"
            "const char* kWhy = \"not std::mt19937\";\n"))
        self.assert_findings(src, "no-raw-random", [])

    # -- no-wall-clock-in-sim ---------------------------------------------

    def test_wall_clock_violation(self):
        p = self.write("src/sim/bad_clock.cpp", (
            "#include <chrono>\n"
            "auto t = std::chrono::steady_clock::now();\n"))
        self.assert_findings(p, "no-wall-clock-in-sim", [2])

    def test_wall_clock_outside_sim_scope_allowed(self):
        # The obs layer measures real latency; host clocks are its job.
        p = self.write("src/obs/spans.cpp",
                       "auto t = std::chrono::steady_clock::now();\n")
        self.assert_findings(p, "no-wall-clock-in-sim", [])

    def test_sim_time_clean(self):
        p = self.write("src/sim/good_clock.cpp",
                       "uwb::SimTime now = sim.now();\n")
        self.assert_findings(p, "no-wall-clock-in-sim", [])

    # -- unordered-iteration ----------------------------------------------

    def test_unordered_iteration_violation(self):
        p = self.write("src/ranging/bad_iter.cpp", (
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> cache;\n"
            "double total() {\n"
            "  double sum = 0.0;\n"
            "  for (const auto& kv : cache) sum += kv.second;\n"
            "  return sum;\n"
            "}\n"))
        self.assert_findings(p, "unordered-iteration", [5])

    def test_unordered_lookup_clean(self):
        p = self.write("src/ranging/good_iter.cpp", (
            "#include <map>\n"
            "#include <unordered_map>\n"
            "std::unordered_map<int, double> cache;\n"
            "std::map<int, double> ordered;\n"
            "double get(int k) { return cache.at(k); }\n"
            "double total() {\n"
            "  double sum = 0.0;\n"
            "  for (const auto& kv : ordered) sum += kv.second;\n"
            "  return sum;\n"
            "}\n"))
        self.assert_findings(p, "unordered-iteration", [])

    # -- nodiscard-result -------------------------------------------------

    def test_nodiscard_violation(self):
        p = self.write("src/ranging/bad_api.hpp", (
            "#include \"common/result.hpp\"\n"
            "namespace uwb {\n"
            "Status connect(int node);\n"
            "Result<double> measure(int node);\n"
            "}\n"))
        self.assert_findings(p, "nodiscard-result", [3, 4])

    def test_nodiscard_clean(self):
        p = self.write("src/ranging/good_api.hpp", (
            "#include \"common/result.hpp\"\n"
            "namespace uwb {\n"
            "[[nodiscard]] Status connect(int node);\n"
            "[[nodiscard]] static Result<double> measure(int node);\n"
            "[[nodiscard]] Result<std::vector<int>> peers();\n"
            "}\n"))
        self.assert_findings(p, "nodiscard-result", [])

    def test_nodiscard_on_previous_line(self):
        p = self.write("src/ranging/wrapped_api.hpp", (
            "[[nodiscard]]\n"
            "Status connect(int node);\n"))
        self.assert_findings(p, "nodiscard-result", [])

    def test_nodiscard_ignores_variables_and_cpp(self):
        # A Status variable is not a declaration; .cpp definitions need not
        # repeat the attribute.
        var = self.write("src/ranging/vars.hpp",
                         "Status last_status;\n")
        self.assert_findings(var, "nodiscard-result", [])
        impl = self.write("src/ranging/impl.cpp",
                          "Status connect(int node) { return {}; }\n")
        self.assert_findings(impl, "nodiscard-result", [])

    # -- magic-tick-constant ----------------------------------------------

    def test_magic_constant_violation(self):
        p = self.write("src/dw1000/bad_ticks.cpp", (
            "double to_s(long long t) { return t * 15.65e-12; }\n"
            "double tap_s(int i) { return i * 1.0016e-9; }\n"))
        self.assert_findings(p, "magic-tick-constant", [1, 2])

    def test_magic_constant_allowlisted_and_clean(self):
        allowed = self.write("src/common/constants.hpp",
                             "inline constexpr double dw_tick_s = 15.65e-12;\n")
        self.assert_findings(allowed, "magic-tick-constant", [])
        clean = self.write("src/dw1000/good_ticks.cpp",
                           "double to_s(long long t) { return t * k::dw_tick_s; }\n")
        self.assert_findings(clean, "magic-tick-constant", [])

    def test_magic_constant_in_comment_ignored(self):
        p = self.write("src/dw1000/doc_ticks.cpp",
                       "// One tick is 15.65e-12 s.\nint x = 0;\n")
        self.assert_findings(p, "magic-tick-constant", [])

    # -- raw-intrinsics ---------------------------------------------------

    def test_raw_intrinsics_violation(self):
        p = self.write("src/dsp/bad_simd.cpp", (
            "#include <immintrin.h>\n"
            "void f(double* d) {\n"
            "  __m256d v = _mm256_loadu_pd(d);\n"
            "  _mm256_storeu_pd(d, _mm256_add_pd(v, v));\n"
            "}\n"))
        self.assert_findings(p, "raw-intrinsics", [1, 3, 4])

    def test_raw_intrinsics_quoted_include_and_neon(self):
        p = self.write("src/ranging/bad_neon.cpp", (
            "#include \"arm_neon.h\"\n"
            "void f(float* d) { float32x4_t v = vld1q_f32(d); }\n"))
        self.assert_findings(p, "raw-intrinsics", [1, 2])

    def test_raw_intrinsics_allowed_in_simd_dir(self):
        p = self.write("src/simd/kernels_avx2.cpp", (
            "#include <immintrin.h>\n"
            "__m256d dbl(__m256d v) { return _mm256_add_pd(v, v); }\n"))
        self.assert_findings(p, "raw-intrinsics", [])

    def test_raw_intrinsics_comment_and_lookalikes_clean(self):
        p = self.write("src/dsp/good_simd.cpp", (
            "// Vectorized via _mm256_mul_pd in src/simd (see immintrin.h).\n"
            "#include \"simd/simd.hpp\"\n"
            "void f(double* d) { uwb::simd::scale(d, 2.0, 8); }\n"))
        self.assert_findings(p, "raw-intrinsics", [])

    # -- obs-event-literal ------------------------------------------------

    def test_obs_event_literal_clean_multiline(self):
        p = self.write("src/sim/good_event.cpp", (
            "void f(int rx, double amp) {\n"
            "  UWB_FR_EVENT(.kind = obs::FrKind::kChannel,\n"
            "               .name = \"delivered\", .node = rx,\n"
            "               .v0 = {\"first_path_amp\", amp});\n"
            "  UWB_OBS_COUNT(\"medium_frames_delivered\", 1);\n"
            "}\n"))
        self.assert_findings(p, "obs-event-literal", [])

    def test_obs_event_computed_name_violation(self):
        p = self.write("src/sim/bad_event.cpp", (
            "void f(const char* what) {\n"
            "  UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = what);\n"
            "}\n"))
        self.assert_findings(p, "obs-event-literal", [2])

    def test_obs_event_missing_kind_violation(self):
        p = self.write("src/sim/bad_event2.cpp", (
            "void f(uwb::obs::FrKind k) {\n"
            "  UWB_FR_EVENT(.kind = k, .name = \"delivered\");\n"
            "}\n"))
        self.assert_findings(p, "obs-event-literal", [2])

    def test_obs_metric_computed_name_violation(self):
        p = self.write("src/sim/bad_metric.cpp", (
            "void f(const std::string& name) {\n"
            "  UWB_OBS_COUNT(name.c_str(), 1);\n"
            "  UWB_OBS_HISTOGRAM(name, buckets(), 2.0);\n"
            "}\n"))
        self.assert_findings(p, "obs-event-literal", [2, 3])

    def test_obs_event_paren_in_string_arg(self):
        # A ')' inside a literal must not close the argument list early.
        p = self.write("src/sim/paren_event.cpp", (
            "void f(int rx) {\n"
            "  UWB_FR_EVENT(.kind = obs::FrKind::kRx,\n"
            "               .name = \"rx_(weird)\",\n"
            "               .node = rx);\n"
            "}\n"))
        self.assert_findings(p, "obs-event-literal", [])

    def test_obs_event_literal_allowed_in_obs_dir(self):
        # The macro definitions forward their parameters; not call sites.
        p = self.write("src/obs/flight_recorder.hpp", (
            "#define UWB_FR_EVENT(...) record(FrEvent{__VA_ARGS__})\n"
            "void self_test(const char* n) { UWB_OBS_COUNT(n, 1); }\n"))
        self.assert_findings(p, "obs-event-literal", [])

    # -- suppression ------------------------------------------------------

    def test_inline_suppression(self):
        p = self.write("src/sim/suppressed.cpp", (
            "auto t = std::chrono::steady_clock::now();"
            "  // uwb-lint: allow(no-wall-clock-in-sim)\n"))
        self.assert_findings(p, "no-wall-clock-in-sim", [])

    def test_preceding_line_suppression(self):
        p = self.write("src/sim/suppressed2.cpp", (
            "// uwb-lint: allow(no-wall-clock-in-sim)\n"
            "auto t = std::chrono::steady_clock::now();\n"))
        self.assert_findings(p, "no-wall-clock-in-sim", [])

    def test_suppression_is_rule_specific(self):
        p = self.write("src/sim/suppressed3.cpp", (
            "// uwb-lint: allow(no-raw-random)\n"
            "auto t = std::chrono::steady_clock::now();\n"))
        self.assert_findings(p, "no-wall-clock-in-sim", [2])

    # -- raw string literals ----------------------------------------------

    def test_raw_string_masking_fixed(self):
        # A quote inside a raw string used to leave the stripper inside a
        # "string" until the next quote, blanking real code after it.
        p = self.write("src/sim/raw1.cpp", (
            "const char* a = R\"(quote: \")\";\n"
            "int bad = rand();\n"))
        self.assert_findings(p, "no-raw-random", [2])

    def test_raw_string_false_positive_fixed(self):
        # ...and, symmetrically, could leave real string contents exposed
        # as if they were code.
        p = self.write("src/sim/raw2.cpp", (
            "const char* a = u8R\"(quote: \")\";\n"
            "const char* b = \"std::random_device in prose\";\n"))
        self.assert_findings(p, "no-raw-random", [])

    def test_raw_string_with_delimiter(self):
        p = self.write("src/sim/raw3.cpp", (
            "const char* a = R\"x(contains )\" and rand() text)x\";\n"
            "int ok = 0;\n"))
        self.assert_findings(p, "no-raw-random", [])

    def test_multiline_raw_string_preserves_line_numbers(self):
        p = self.write("src/sim/raw4.cpp", (
            "const char* doc = R\"(line one\n"
            "rand() inside the raw string\n"
            "last raw line)\";\n"
            "int bad = rand();\n"))
        self.assert_findings(p, "no-raw-random", [4])

    def test_identifier_ending_in_r_is_not_a_raw_string_prefix(self):
        # FOOBAR"..." is a macro-token paste or user literal, not R"...".
        p = self.write("src/sim/raw5.cpp", (
            "int x = FOOBAR\"(text\";\n"
            "int bad = rand();\n"))
        self.assert_findings(p, "no-raw-random", [2])

    def test_unterminated_string_stops_at_newline(self):
        # A lone quote (e.g. inside an #error) must not swallow the rest
        # of the file and mask later findings.
        p = self.write("src/sim/raw6.cpp", (
            "#error missing \" quote\n"
            "int bad = rand();\n"))
        self.assert_findings(p, "no-raw-random", [2])

    def test_apostrophe_in_preprocessor_text_is_not_a_char_literal(self):
        p = self.write("src/sim/raw7.cpp", (
            "#error can't happen\n"
            "int bad = rand();\n"))
        self.assert_findings(p, "no-raw-random", [2])

    # -- explicit-fma -----------------------------------------------------
    # Float ordering, FMA half.

    def test_fma_outside_simd_violation_inside_simd_clean(self):
        bad = self.write("src/dsp/x.cpp", (
            "namespace uwb {\n"
            "double mac(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
            "}\n"))
        good = self.write("src/simd/k.cpp", (
            "namespace uwb::simd {\n"
            "double mac(double a, double b, double c) {\n"
            "  return std::fma(a, b, c);\n"
            "}\n"
            "}\n"))
        self.assert_findings(bad, "explicit-fma", [3])
        self.assert_findings(good, "explicit-fma", [])

    def test_fp_contract_pragma_outside_simd_violation(self):
        p = self.write("src/dsp/x.cpp", (
            "#pragma STDC FP_CONTRACT ON\n"
            "namespace uwb { double f(double a) { return a; } }\n"))
        self.assert_findings(p, "explicit-fma", [1])

    def test_builtin_fma_and_unqualified_fma_violation(self):
        p = self.write("tests/x.cpp", (
            "double a = __builtin_fma(1.0, 2.0, 3.0);\n"
            "double b = fmaf(1.0f, 2.0f, 3.0f);\n"
            "#pragma clang fp contract(fast)\n"))
        self.assert_findings(p, "explicit-fma", [1, 2, 3])

    def test_fma_lookalikes_and_prose_clean(self):
        p = self.write("src/dsp/x.cpp", (
            "// std::fma would change the bits here\n"
            "double y = my_fma(1.0, 2.0, 3.0) + k.fma(1.0);\n"
            "const char* s = \"FP_CONTRACT\";\n"))
        self.assert_findings(p, "explicit-fma", [])

    # -- unordered-container ----------------------------------------------
    # Float ordering, reduction half: the declaration is flagged, so no
    # reduction over it can exist.

    def test_local_unordered_under_accumulate_violation(self):
        p = self.write("src/loc/x.cpp", (
            "namespace uwb {\n"
            "double total() {\n"
            "  std::unordered_map<int, double> m;\n"
            "  return std::accumulate(m.begin(), m.end(), 0.0, add);\n"
            "}\n"
            "}\n"))
        self.assert_findings(p, "unordered-container", [3])

    def test_pointer_keyed_map_violation(self):
        p = self.write("src/loc/x.cpp", (
            "namespace uwb {\n"
            "struct Node;\n"
            "double total() {\n"
            "  std::map<Node*, double> m;\n"
            "  double s = 0.0;\n"
            "  for (const auto& kv : m) s += kv.second;\n"
            "  return s;\n"
            "}\n"
            "}\n"))
        self.assert_findings(p, "unordered-container", [4])

    def test_member_unordered_declared_in_header_violation(self):
        # The reduction lives in the .cpp; the member is flagged where the
        # class declares it.
        h = self.write("src/obs/m.hpp", (
            "namespace uwb {\n"
            "class Registry {\n"
            " public:\n"
            "  double total();\n"
            " private:\n"
            "  std::unordered_map<int, double> shards_;\n"
            "};\n"
            "}\n"))
        self.assert_findings(h, "unordered-container", [6])

    def test_unordered_return_type_violation(self):
        p = self.write("src/obs/x.cpp", (
            "namespace uwb {\n"
            "std::unordered_map<int, double> snapshot() { return {}; }\n"
            "double total() {\n"
            "  return std::accumulate(snapshot().begin(), snapshot().end(),\n"
            "                         0.0, add);\n"
            "}\n"
            "}\n"))
        self.assert_findings(p, "unordered-container", [2])

    def test_ordered_containers_and_other_dirs_clean(self):
        src = self.write("src/loc/x.cpp", (
            "#include <unordered_map>\n"
            "std::map<int, double> by_id;\n"
            "std::set<std::pair<int, int>> links;\n"
            "std::map<std::uint64_t, Node*> by_key;\n"
            "double total(const std::vector<double>& v) {\n"
            "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
            "}\n"))
        test = self.write("tests/x.cpp",
                          "std::unordered_map<int, double> expected;\n")
        self.assert_findings(src, "unordered-container", [])
        self.assert_findings(test, "unordered-container", [])

    def test_memo_cache_allow_marker(self):
        p = self.write("src/dsp/x.cpp", (
            "// Lookup only: find and emplace, never iterated.\n"
            "// uwb-lint: allow(unordered-container)\n"
            "std::unordered_map<std::size_t, int> plans;\n"))
        self.assert_findings(p, "unordered-container", [])

    # -- driver behaviour -------------------------------------------------

    def test_main_exit_codes(self):
        self.write("src/sim/bad.cpp", "int x = rand();\n")
        self.assertEqual(uwb_lint.main(["--root", self.root]), 1)
        os.remove(os.path.join(self.root, "src/sim/bad.cpp"))
        self.write("src/sim/good.cpp", "int x = 0;\n")
        self.assertEqual(uwb_lint.main(["--root", self.root]), 0)

    def test_unknown_rule_is_usage_error(self):
        self.assertEqual(
            uwb_lint.main(["--root", self.root, "--rule", "no-such-rule"]), 2)


class SarifOutputTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, content):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
        return relpath

    def test_sarif_file_written_with_findings(self):
        import json
        self.write("src/sim/bad.cpp", "int x = rand();\n")
        out = os.path.join(self.root, "lint.sarif")
        rc = uwb_lint.main(["--root", self.root, "--sarif", out])
        self.assertEqual(rc, 1)
        with open(out) as f:
            log = json.load(f)
        self.assertEqual(log["version"], "2.1.0")
        results = log["runs"][0]["results"]
        self.assertEqual(len(results), 1)
        self.assertEqual(results[0]["ruleId"], "no-raw-random")
        loc = results[0]["locations"][0]["physicalLocation"]
        self.assertEqual(loc["artifactLocation"]["uri"], "src/sim/bad.cpp")
        self.assertEqual(loc["region"]["startLine"], 1)
        rule_ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
        self.assertIn("explicit-fma", rule_ids)

    def test_sarif_written_empty_on_clean_tree(self):
        import json
        self.write("src/sim/good.cpp", "int x = 0;\n")
        out = os.path.join(self.root, "lint.sarif")
        rc = uwb_lint.main(["--root", self.root, "--sarif", out])
        self.assertEqual(rc, 0)
        with open(out) as f:
            log = json.load(f)
        self.assertEqual(log["runs"][0]["results"], [])


if __name__ == "__main__":
    unittest.main()
