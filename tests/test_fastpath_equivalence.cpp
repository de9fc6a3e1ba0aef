// Equivalence tests: the native-rate + incremental fast detection path
// against the exact per-iteration recompute path that detect_with_trace
// runs (DESIGN.md Sect. 8),
// including the candidate search's worst cases and CIRs shorter than a
// template, bit-identical Monte-Carlo detection across thread counts, and
// one shared DetectorPlan per config when threads race to first use it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/pulse.hpp"
#include "ranging/search_subtract.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb::ranging {
namespace {

constexpr std::uint8_t kShapeBank[] = {0x93, 0xB5, 0xE6};

dw::CirEstimate random_cir(std::uint64_t seed, int min_arrivals,
                           int max_arrivals) {
  Rng rng(seed);
  const auto n = static_cast<int>(rng.uniform_int(min_arrivals, max_arrivals));
  std::vector<dw::CirArrival> arrivals;
  double pos = rng.uniform(40.0, 120.0);
  for (int i = 0; i < n; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = pos * k::cir_ts_s;
    a.amplitude = Complex(rng.uniform(0.1, 0.7), 0.0) * rng.random_phase();
    a.tc_pgdelay =
        kShapeBank[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    arrivals.push_back(a);
    pos += rng.uniform(6.0, 180.0);
  }
  dw::CirParams params;
  params.noise_sigma = 0.004;
  return dw::synthesize_cir(arrivals, params, rng);
}

DetectorConfig multi_shape_config() {
  DetectorConfig cfg;
  cfg.shape_registers.assign(std::begin(kShapeBank), std::end(kShapeBank));
  return cfg;
}

void expect_same_responses(const std::vector<DetectedResponse>& fast,
                           const std::vector<DetectedResponse>& exact,
                           std::uint64_t seed) {
  ASSERT_EQ(fast.size(), exact.size()) << "seed=" << seed;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].shape_index, exact[i].shape_index)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(fast[i].index_upsampled, exact[i].index_upsampled, 1e-6)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(fast[i].tau_s, exact[i].tau_s, 1e-6 * k::cir_ts_s)
        << "seed=" << seed << " i=" << i;
    EXPECT_NEAR(std::abs(fast[i].amplitude - exact[i].amplitude), 0.0, 1e-9)
        << "seed=" << seed << " i=" << i;
  }
}

// The exact path's responses: tracing always runs it.
std::vector<DetectedResponse> detect_exact(const SearchSubtractDetector& det,
                                           const dw::CirEstimate& cir,
                                           int max_responses) {
  return det.detect_with_trace(cir.taps, cir.ts_s, max_responses).responses;
}

TEST(FastPathEquivalence, MatchesExactOnRandomMultiResponderCirs) {
  const SearchSubtractDetector det{multi_shape_config()};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto cir = random_cir(seed, 2, 5);
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 6),
                          detect_exact(det, cir, 6), seed);
  }
}

TEST(FastPathEquivalence, MatchesExactWithSingleTemplateBank) {
  const SearchSubtractDetector det{DetectorConfig{}};
  for (std::uint64_t seed = 100; seed <= 106; ++seed) {
    const auto cir = random_cir(seed, 1, 4);
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 5),
                          detect_exact(det, cir, 5), seed);
  }
}

TEST(FastPathEquivalence, MatchesExactWithoutUpsampling) {
  // factor == 1 skips the upsample fusion and takes the plain copy branch.
  DetectorConfig cfg = multi_shape_config();
  cfg.upsample_factor = 1;
  const SearchSubtractDetector det{cfg};
  for (std::uint64_t seed = 200; seed <= 204; ++seed) {
    const auto cir = random_cir(seed, 2, 4);
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 5),
                          detect_exact(det, cir, 5), seed);
  }
}

TEST(FastPathEquivalence, TracedDetectEqualsExactPath) {
  // Tracing runs the exact path: its responses match the fast path's to
  // roundoff, and it records the filter output of every iteration.
  const SearchSubtractDetector det{multi_shape_config()};
  const auto cir = random_cir(7, 3, 3);
  const auto fast = det.detect(cir.taps, cir.ts_s, 4);
  const auto trace = det.detect_with_trace(cir.taps, cir.ts_s, 4);
  expect_same_responses(fast, trace.responses, 7);
  // One filter output per iteration, including the final rejected one when
  // the search stopped at the noise floor before max_responses.
  EXPECT_GE(trace.mf_outputs.size(), trace.responses.size());
  EXPECT_LE(trace.mf_outputs.size(), trace.responses.size() + 1);
}

// Two pulses of one shape: the stronger at `strong_tap` (fractional), the
// weaker at `weak_tap` with `ratio` of its amplitude.
dw::CirEstimate two_pulse_cir(std::uint8_t reg, double strong_tap,
                              double weak_tap, double ratio) {
  std::vector<dw::CirArrival> arrivals(2);
  arrivals[0].time_into_window_s = strong_tap * k::cir_ts_s;
  arrivals[0].amplitude = {0.5, 0.0};
  arrivals[1].time_into_window_s = weak_tap * k::cir_ts_s;
  arrivals[1].amplitude = Complex(0.0, 0.5 * ratio);
  for (auto& a : arrivals) a.tc_pgdelay = reg;
  Rng rng(17);
  return dw::synthesize_cir(arrivals, dw::CirParams{}, rng);
}

TEST(FastPathEquivalence, CandidatesCoverWorstSubSampleOffsets) {
  // The fast path searches the upsampled grid only within F - 1 of native
  // samples of at least 0.7 kappa_i times the native maximum. Its hardest
  // case: the stronger pulse off the native grid, where its best native
  // sample keeps as little as kappa_i of its peak power, beside a weaker
  // pulse on the grid, which keeps all of it. 64 sub-sample offsets of the
  // stronger pulse, weaker amplitude ratios 0.70-0.99. (A flat threshold
  // of half the native maximum picks the weaker pulse of 0xE6 at offset
  // 0.5, ratio 0.99.)
  for (const std::uint8_t reg : {0x93, 0xB8, 0xC8, 0xE0, 0xE6}) {
    DetectorConfig cfg;
    cfg.shape_registers = {reg};
    const SearchSubtractDetector det{cfg};
    for (int i = 0; i < 64; ++i) {
      for (const double ratio :
           {0.70, 0.75, 0.80, 0.85, 0.90, 0.93, 0.95, 0.97, 0.99}) {
        const double strong_tap = 300.0 + i / 64.0;
        const auto cir = two_pulse_cir(reg, strong_tap, 500.0, ratio);
        const auto f = det.detect(cir.taps, cir.ts_s, 1);
        const auto e = detect_exact(det, cir, 1);
        ASSERT_EQ(f.size(), 1u);
        ASSERT_EQ(e.size(), 1u);
        EXPECT_NEAR(f[0].tau_s, e[0].tau_s, 1e-6 * k::cir_ts_s)
            << "reg=0x" << std::hex << int{reg} << std::dec
            << " strong_tap=" << strong_tap << " ratio=" << ratio;
        EXPECT_NEAR(std::abs(f[0].amplitude - e[0].amplitude), 0.0, 1e-9);
      }
    }
  }
}

TEST(FastPathEquivalence, MatchesExactOnCirsShorterThanATemplate) {
  // At 1-24 taps the upsampled residual (8-192 samples) is shorter than
  // the 0xE6 template (193 samples): the native transform wraps the
  // template more than once and the wrap correction must read only the
  // residual. The 1- and 8-tap CIRs stop at their own noise floor; the
  // others detect and subtract.
  DetectorConfig cfg;
  cfg.shape_registers = {0x93, 0xE6};
  const SearchSubtractDetector det{cfg};
  for (const int taps : {1, 4, 8, 16, 24}) {
    std::vector<dw::CirArrival> arrivals(2);
    arrivals[0].time_into_window_s = 0.3 * taps * k::cir_ts_s;
    arrivals[0].amplitude = {0.5, 0.1};
    arrivals[1].time_into_window_s = 0.7 * taps * k::cir_ts_s;
    arrivals[1].amplitude = {-0.2, 0.3};
    arrivals[1].tc_pgdelay = 0xE6;
    dw::CirParams params;
    params.length = taps;
    Rng rng(static_cast<std::uint64_t>(taps));
    const auto cir = dw::synthesize_cir(arrivals, params, rng);
    ASSERT_EQ(cir.taps.size(), static_cast<std::size_t>(taps));
    const auto found = detect_exact(det, cir, 3);
    EXPECT_EQ(found.empty(), taps == 1 || taps == 8) << "taps=" << taps;
    expect_same_responses(det.detect(cir.taps, cir.ts_s, 3), found,
                          static_cast<std::uint64_t>(taps));
  }
}

TEST(FastPathEquivalence, BankCacheCountsSharedBanks) {
  // Two detectors of one config share one bank: the second resolves the
  // plan object the first built, and detects bit for bit alike. Another
  // shape set, or a CIR of another padded length, resolves its own plan.
  const auto cir = random_cir(3, 2, 2);
  const std::size_t taps = cir.taps.size();
  SearchSubtractDetector a{multi_shape_config()};
  SearchSubtractDetector b{multi_shape_config()};
  const auto found_a = a.detect(cir.taps, cir.ts_s, 2);
  const auto found_b = b.detect(cir.taps, cir.ts_s, 2);
  const DetectorPlan* shared = &a.plan(cir.ts_s, taps);
  EXPECT_EQ(&b.plan(cir.ts_s, taps), shared);
  EXPECT_NE(&SearchSubtractDetector{DetectorConfig{}}.plan(cir.ts_s, taps),
            shared);
  EXPECT_NE(&b.plan(cir.ts_s, taps / 2), shared);
  EXPECT_EQ(&b.plan(cir.ts_s, taps), shared);
  ASSERT_EQ(found_b.size(), found_a.size());
  for (std::size_t i = 0; i < found_a.size(); ++i) {
    EXPECT_EQ(found_b[i].tau_s, found_a[i].tau_s) << "i=" << i;
    EXPECT_EQ(found_b[i].index_upsampled, found_a[i].index_upsampled);
    EXPECT_EQ(found_b[i].amplitude, found_a[i].amplitude);
    EXPECT_EQ(found_b[i].shape_index, found_a[i].shape_index);
  }
}

TEST(FastPathEquivalence, McDetectionBitIdenticalAcrossThreadCounts) {
  // The fast path keeps per-thread scratch (residual spectra, correlation
  // outputs) — worker reuse across trials must never leak state between
  // trials. Full detection pipeline, 1 thread vs 4, bitwise-equal samples.
  const auto run = [](int threads) {
    runner::MonteCarlo::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 99;
    return runner::MonteCarlo(cfg).run(40, [](const runner::TrialContext& ctx,
                                              runner::TrialRecorder& rec) {
      const auto cir = random_cir(ctx.seed, 1, 4);
      SearchSubtractDetector det{multi_shape_config()};
      const auto found = det.detect(cir.taps, cir.ts_s, 5);
      rec.count("responses", static_cast<std::int64_t>(found.size()));
      for (const auto& r : found) {
        rec.sample("tau_s", r.tau_s);
        rec.sample("amp", std::abs(r.amplitude));
        rec.sample("shape", static_cast<double>(r.shape_index));
      }
    });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.counter("responses"), parallel.counter("responses"));
  ASSERT_EQ(serial.metric_names(), parallel.metric_names());
  for (const auto& name : serial.metric_names()) {
    const RVec& a = serial.samples(name);
    const RVec& b = parallel.samples(name);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_EQ(a[i], b[i]) << name << "[" << i << "]";
  }
}

// --- the shared plan ---------------------------------------------------------

TEST(DetectorPlanTest, ConcurrentFirstUseSharesOnePlan) {
  // A config no other test uses, so four threads race to build its plan:
  // the memo must hand every thread the same object, and every detection
  // must equal a one-thread run bit for bit.
  DetectorConfig cfg;
  cfg.upsample_factor = 4;
  cfg.shape_registers = {0xE6, 0x93};
  std::vector<dw::CirEstimate> cirs;
  for (std::uint64_t seed = 40; seed < 46; ++seed)
    cirs.push_back(random_cir(seed, 1, 4));
  using Responses = std::vector<std::vector<DetectedResponse>>;
  const auto detect_all = [&cirs](const SearchSubtractDetector& det) {
    Responses out;
    for (const auto& cir : cirs)
      out.push_back(det.detect(cir.taps, cir.ts_s, 5));
    return out;
  };
  const double ts_s = cirs.front().ts_s;
  const std::size_t taps = cirs.front().taps.size();

  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<const DetectorPlan*> plans(kThreads);
  std::vector<Responses> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const SearchSubtractDetector det{cfg};
      results[static_cast<std::size_t>(t)] = detect_all(det);
      plans[static_cast<std::size_t>(t)] = &det.plan(ts_s, taps);
    });
  for (auto& thread : threads) thread.join();

  const SearchSubtractDetector det{cfg};
  const Responses reference = detect_all(det);
  const DetectorPlan* shared = &det.plan(ts_s, taps);
  EXPECT_NE(shared, &SearchSubtractDetector{DetectorConfig{}}.plan(ts_s, taps));
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(plans[t], shared) << "thread " << t;
    ASSERT_EQ(results[t].size(), reference.size());
    for (std::size_t c = 0; c < reference.size(); ++c) {
      ASSERT_EQ(results[t][c].size(), reference[c].size());
      for (std::size_t i = 0; i < reference[c].size(); ++i) {
        const DetectedResponse& a = results[t][c][i];
        const DetectedResponse& b = reference[c][i];
        EXPECT_EQ(a.tau_s, b.tau_s) << "thread " << t << " cir " << c;
        EXPECT_EQ(a.index_upsampled, b.index_upsampled);
        EXPECT_EQ(a.amplitude, b.amplitude);
        EXPECT_EQ(a.shape_index, b.shape_index);
      }
    }
  }
}

}  // namespace
}  // namespace uwb::ranging
