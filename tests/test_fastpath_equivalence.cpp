// Equivalence tests: the shared-spectrum + incremental fast detection path
// against the exact per-iteration recompute path (DESIGN.md Sect. 8), the
// spectrum-reusing matched-filter entry point against the self-contained
// one, and bit-identical Monte-Carlo detection across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
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

TEST(FastPathEquivalence, MatchesExactOnRandomMultiResponderCirs) {
  SearchSubtractDetector fast{multi_shape_config()};
  DetectorConfig exact_cfg = multi_shape_config();
  exact_cfg.exact_recompute = true;
  SearchSubtractDetector exact{exact_cfg};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto cir = random_cir(seed, 2, 5);
    expect_same_responses(fast.detect(cir.taps, cir.ts_s, 6),
                          exact.detect(cir.taps, cir.ts_s, 6), seed);
  }
}

TEST(FastPathEquivalence, MatchesExactWithSingleTemplateBank) {
  SearchSubtractDetector fast{DetectorConfig{}};
  DetectorConfig exact_cfg;
  exact_cfg.exact_recompute = true;
  SearchSubtractDetector exact{exact_cfg};
  for (std::uint64_t seed = 100; seed <= 106; ++seed) {
    const auto cir = random_cir(seed, 1, 4);
    expect_same_responses(fast.detect(cir.taps, cir.ts_s, 5),
                          exact.detect(cir.taps, cir.ts_s, 5), seed);
  }
}

TEST(FastPathEquivalence, MatchesExactWithoutUpsampling) {
  // factor == 1 skips the upsample fusion and takes the plain copy branch.
  DetectorConfig cfg = multi_shape_config();
  cfg.upsample_factor = 1;
  SearchSubtractDetector fast{cfg};
  DetectorConfig exact_cfg = cfg;
  exact_cfg.exact_recompute = true;
  SearchSubtractDetector exact{exact_cfg};
  for (std::uint64_t seed = 200; seed <= 204; ++seed) {
    const auto cir = random_cir(seed, 2, 4);
    expect_same_responses(fast.detect(cir.taps, cir.ts_s, 5),
                          exact.detect(cir.taps, cir.ts_s, 5), seed);
  }
}

TEST(FastPathEquivalence, TracedDetectEqualsExactPath) {
  // Tracing always runs the exact path; its responses must match a plain
  // exact_recompute detect bit for bit (identical code path and inputs).
  DetectorConfig exact_cfg = multi_shape_config();
  exact_cfg.exact_recompute = true;
  SearchSubtractDetector exact{exact_cfg};
  SearchSubtractDetector traced{multi_shape_config()};
  const auto cir = random_cir(7, 3, 3);
  const auto plain = exact.detect(cir.taps, cir.ts_s, 4);
  const auto trace = traced.detect_with_trace(cir.taps, cir.ts_s, 4);
  ASSERT_EQ(trace.responses.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(trace.responses[i].tau_s, plain[i].tau_s);
    EXPECT_EQ(trace.responses[i].amplitude, plain[i].amplitude);
    EXPECT_EQ(trace.responses[i].shape_index, plain[i].shape_index);
  }
  // One filter output per iteration, including the final rejected one when
  // the search stopped at the noise floor before max_responses.
  EXPECT_GE(trace.mf_outputs.size(), plain.size());
  EXPECT_LE(trace.mf_outputs.size(), plain.size() + 1);
}

TEST(FastPathEquivalence, ApplySpectrumMatchesApply) {
  Rng rng(11);
  const CVec tmpl_raw = dw::sample_pulse_template(0x93, k::cir_ts_s / 8.0);
  const dsp::MatchedFilter mf(tmpl_raw);
  for (const std::size_t n : {500ul, 1024ul, 5000ul}) {
    CVec r(n);
    for (auto& v : r) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const CVec direct = mf.apply(r);
    const std::size_t padded = dsp::next_pow2(n + mf.template_length() - 1);
    CVec buf(padded, Complex{});
    std::copy(r.begin(), r.end(), buf.begin());
    dsp::plan_for(padded).transform_pow2(buf.data(), false);
    CVec out;
    mf.apply_spectrum(buf.data(), padded, n, out);
    ASSERT_EQ(out.size(), direct.size());
    double max_diff = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max_diff = std::max(max_diff, std::abs(out[i] - direct[i]));
    EXPECT_LT(max_diff, 1e-10) << "n=" << n;
  }
}

TEST(FastPathEquivalence, BankCacheCountsSharedBanks) {
  SearchSubtractDetector::clear_bank_cache();
  const auto before = SearchSubtractDetector::bank_cache_stats();
  const auto cir = random_cir(3, 2, 2);
  SearchSubtractDetector a{multi_shape_config()};
  SearchSubtractDetector b{multi_shape_config()};
  a.detect(cir.taps, cir.ts_s, 2);
  b.detect(cir.taps, cir.ts_s, 2);  // same config: bank comes from cache
  const auto after = SearchSubtractDetector::bank_cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  // The registry-backed totals move with the per-thread counters.
  const auto total = SearchSubtractDetector::bank_cache_stats_total();
  EXPECT_GE(total.hits + total.misses, 2u);
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

}  // namespace
}  // namespace uwb::ranging
