// Micro-benchmarks (google-benchmark): run-time feasibility of the Sect. IV
// detection pipeline — the paper requires the initiator to process the CIR
// *at run time*, so the detector must be fast enough for embedded use.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <complex>
#include <numbers>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/resample.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/pulse.hpp"
#include "ranging/search_subtract.hpp"
#include "ranging/threshold_detector.hpp"
#include "runner/thread_pool.hpp"
#include "simd/simd.hpp"
#include "bench_util.hpp"

namespace {

using namespace uwb;

CVec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (auto& v : x) v = rng.complex_normal(1.0);
  return x;
}

dw::CirEstimate test_cir(int responses, std::uint64_t seed) {
  std::vector<dw::CirArrival> arrivals;
  for (int i = 0; i < responses; ++i) {
    dw::CirArrival a;
    a.time_into_window_s = (80.0 + 40.0 * i) * k::cir_ts_s;
    a.amplitude = {0.4 - 0.05 * i, 0.0};
    arrivals.push_back(a);
  }
  dw::CirParams params;
  Rng rng(seed);
  return dw::synthesize_cir(arrivals, params, rng);
}

void BM_FftPow2_1024(benchmark::State& state) {
  CVec x = random_signal(1024, 1);
  for (auto _ : state) {
    CVec y = x;
    dsp::fft_pow2_inplace(y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FftPow2_1024);

void BM_FftBluestein_1016(benchmark::State& state) {
  const CVec x = random_signal(k::cir_len_prf64, 2);
  for (auto _ : state) {
    CVec y = dsp::fft(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FftBluestein_1016);

void BM_UpsampleCirBy8(benchmark::State& state) {
  const CVec x = random_signal(k::cir_len_prf64, 3);
  for (auto _ : state) {
    CVec y = dsp::upsample_fft(x, 8);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_UpsampleCirBy8);

void BM_MatchedFilterUpsampledCir(benchmark::State& state) {
  const CVec r = random_signal(8192, 4);
  dsp::MatchedFilter mf(dw::sample_pulse_template(0x93, k::cir_ts_s / 8.0));
  for (auto _ : state) {
    CVec y = mf.apply(r);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MatchedFilterUpsampledCir);

// --- unplanned references (the pre-plan implementations) ----------------
//
// Local copies of the algorithms before the FftPlan/shared-spectrum work:
// twiddles recomputed with std::polar inside the butterfly loop, Bluestein
// rebuilding its chirp and kernel per call, matched filtering running its
// own forward transform per template. Kept here as the denominator of the
// speedup the plan cache buys (DESIGN.md Sect. 8).

void reference_fft_pow2(CVec& x, bool inverse) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex w = std::polar(1.0, ang * static_cast<double>(j));
        const Complex u = x[i + j];
        const Complex v = x[i + j + len / 2] * w;
        x[i + j] = u + v;
        x[i + j + len / 2] = u - v;
      }
    }
  }
}

CVec reference_bluestein(const CVec& x) {
  const std::size_t n = x.size();
  const std::size_t m = dsp::next_pow2(2 * n - 1);
  CVec a(m, Complex{}), b(m, Complex{});
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = std::numbers::pi * static_cast<double>(k) *
                       static_cast<double>(k) / static_cast<double>(n);
    const Complex w = std::polar(1.0, ang);
    a[k] = x[k] * std::conj(w);
    b[k] = w;
    if (k != 0) b[m - k] = w;
  }
  reference_fft_pow2(a, false);
  reference_fft_pow2(b, false);
  for (std::size_t i = 0; i < m; ++i) a[i] *= b[i];
  reference_fft_pow2(a, true);
  CVec y(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = std::numbers::pi * static_cast<double>(k) *
                       static_cast<double>(k) / static_cast<double>(n);
    y[k] = a[k] * std::conj(std::polar(1.0, ang)) / static_cast<double>(m);
  }
  return y;
}

void BM_Reference_FftPow2_1024(benchmark::State& state) {
  CVec x = random_signal(1024, 1);
  for (auto _ : state) {
    CVec y = x;
    reference_fft_pow2(y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Reference_FftPow2_1024);

void BM_Reference_FftBluestein_1016(benchmark::State& state) {
  const CVec x = random_signal(k::cir_len_prf64, 2);
  for (auto _ : state) {
    CVec y = reference_bluestein(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Reference_FftBluestein_1016);

void BM_Reference_MatchedFilterUpsampledCir(benchmark::State& state) {
  // FFT correlation with per-call forward transforms of both operands and
  // no plan reuse — what MatchedFilter::apply did before FFT plans and
  // cached template spectra.
  const CVec r = random_signal(8192, 4);
  dsp::MatchedFilter mf(dw::sample_pulse_template(0x93, k::cir_ts_s / 8.0));
  const CVec& s = mf.unit_template();
  const std::size_t n = r.size();
  const std::size_t padded = dsp::next_pow2(n + s.size() - 1);
  for (auto _ : state) {
    CVec rx(padded, Complex{});
    std::copy(r.begin(), r.end(), rx.begin());
    CVec sx(padded, Complex{});
    for (std::size_t m = 0; m < s.size(); ++m)
      sx[(padded - m) % padded] = std::conj(s[m]);
    reference_fft_pow2(rx, false);
    reference_fft_pow2(sx, false);
    for (std::size_t i = 0; i < padded; ++i) rx[i] *= sx[i];
    reference_fft_pow2(rx, true);
    CVec y(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = rx[i] / static_cast<double>(padded);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Reference_MatchedFilterUpsampledCir);

void BM_SearchSubtract_SingleTemplate(benchmark::State& state) {
  const auto cir = test_cir(static_cast<int>(state.range(0)), 5);
  ranging::SearchSubtractDetector det{ranging::DetectorConfig{}};
  for (auto _ : state) {
    auto found = det.detect(cir.taps, cir.ts_s, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(found.data());
  }
}
BENCHMARK(BM_SearchSubtract_SingleTemplate)->Arg(1)->Arg(3)->Arg(8);

void BM_SearchSubtract_ThreeTemplateBank(benchmark::State& state) {
  const auto cir = test_cir(3, 6);
  ranging::DetectorConfig cfg;
  cfg.shape_registers = {0x93, 0xC8, 0xE6};
  ranging::SearchSubtractDetector det{cfg};
  for (auto _ : state) {
    auto found = det.detect(cir.taps, cir.ts_s, 3);
    benchmark::DoNotOptimize(found.data());
  }
}
BENCHMARK(BM_SearchSubtract_ThreeTemplateBank);

void BM_SearchSubtract_ExactRecompute(benchmark::State& state) {
  // The exact reference path (DetectorConfig::exact_recompute): every
  // matched filter re-run from scratch per iteration. The gap to
  // BM_SearchSubtract_ThreeTemplateBank is what the native-rate +
  // incremental fast path buys at equal output.
  const auto cir = test_cir(3, 6);
  ranging::DetectorConfig cfg;
  cfg.shape_registers = {0x93, 0xC8, 0xE6};
  cfg.exact_recompute = true;
  ranging::SearchSubtractDetector det{cfg};
  for (auto _ : state) {
    auto found = det.detect(cir.taps, cir.ts_s, 3);
    benchmark::DoNotOptimize(found.data());
  }
}
BENCHMARK(BM_SearchSubtract_ExactRecompute);

// --- SIMD dispatch-level benches (DESIGN.md §12) ------------------------
//
// Each runs one detect-path kernel at both dispatch levels (benchmark arg
// 0 = scalar, 2 = avx2); a level this machine cannot run is skipped. The
// scalar leg is the denominator of the vectorization speedup CI tracks;
// the level is restored after each bench so the rest of the suite runs at
// the startup dispatch.

struct BenchLevelGuard {
  simd::Level saved = simd::active_level();
  ~BenchLevelGuard() { simd::set_active_level(saved); }
};

bool set_bench_level(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  if (!simd::set_active_level(level)) {
    state.SkipWithError("dispatch level unsupported on this machine");
    return false;
  }
  state.SetLabel(simd::level_name(level));
  return true;
}

void BM_Simd_CmulConj_8192(benchmark::State& state) {
  BenchLevelGuard guard;
  if (!set_bench_level(state)) return;
  const CVec a = random_signal(8192, 21);
  const CVec b = random_signal(8192, 22);
  CVec out(8192);
  for (auto _ : state) {
    simd::cmul_conj(reinterpret_cast<const double*>(a.data()),
                    reinterpret_cast<const double*>(b.data()),
                    reinterpret_cast<double*>(out.data()), out.size());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Simd_CmulConj_8192)->Arg(0)->Arg(2);

void BM_Simd_FftPow2_8192(benchmark::State& state) {
  // The transform length of the fast detect path for a 1016-tap CIR
  // upsampled by 8 (next_pow2(1016) * 8).
  BenchLevelGuard guard;
  if (!set_bench_level(state)) return;
  const CVec x = random_signal(8192, 23);
  CVec y(8192);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    dsp::fft_pow2_inplace(y, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Simd_FftPow2_8192)->Arg(0)->Arg(2);

void BM_Simd_FftBluestein_1016(benchmark::State& state) {
  BenchLevelGuard guard;
  if (!set_bench_level(state)) return;
  const CVec x = random_signal(k::cir_len_prf64, 24);
  for (auto _ : state) {
    CVec y = dsp::fft(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Simd_FftBluestein_1016)->Arg(0)->Arg(2);

void BM_Simd_BankCorrelate(benchmark::State& state) {
  // The bank_correlate span body: per template of a three-shape bank, one
  // pointwise multiply of the 1024-point CIR spectrum with the template's
  // folded spectrum, one 1024-point inverse transform, and the wrap
  // correction of the last outputs against the 8192-sample residual.
  BenchLevelGuard guard;
  if (!set_bench_level(state)) return;
  constexpr std::size_t kN = 1024;
  constexpr int kFactor = 8;
  constexpr std::size_t kM = kN * kFactor;
  struct Template {
    CVec s;
    CVec folded;
  };
  std::vector<Template> bank;
  for (const std::uint8_t reg : {0x93, 0xC8, 0xE6}) {
    const dsp::MatchedFilter mf(
        dw::sample_pulse_template(reg, k::cir_ts_s / kFactor));
    CVec t(kM, Complex{});
    for (std::size_t p = 0; p < mf.template_length(); ++p)
      t[(kM - p) % kM] = std::conj(mf.unit_template()[p]);
    dsp::fft_pow2_inplace(t, false);
    CVec folded(kN);
    dsp::fold_spectrum(t.data(), kN, kFactor, folded.data());
    bank.push_back({mf.unit_template(), std::move(folded)});
  }
  const CVec spec = random_signal(kN, 25);
  const CVec r = random_signal(kM, 28);
  const auto* rd = reinterpret_cast<const double*>(r.data());
  CVec u(kN);
  for (auto _ : state) {
    for (const Template& t : bank) {
      simd::cmul(reinterpret_cast<const double*>(spec.data()),
                 reinterpret_cast<const double*>(t.folded.data()),
                 reinterpret_cast<double*>(u.data()), kN);
      dsp::fft_pow2_inplace(u, true);
      const std::size_t len = t.s.size();
      for (std::size_t q = (kM - len) / kFactor + 1; q < kN; ++q) {
        const std::size_t a = kM - kFactor * q;
        double re = 0.0, im = 0.0;
        simd::cdot_conj(rd, reinterpret_cast<const double*>(t.s.data() + a),
                        len - a, &re, &im);
        u[q] -= Complex(re, im);
      }
      benchmark::DoNotOptimize(u.data());
    }
  }
}
BENCHMARK(BM_Simd_BankCorrelate)->Arg(0)->Arg(2);

void BM_Simd_SubtractUpdate(benchmark::State& state) {
  // The subtract_update span body: the strided windowed correlation that
  // patches one template's native-rate output (every 8th sample of the
  // upsampled grid) after one subtraction.
  BenchLevelGuard guard;
  if (!set_bench_level(state)) return;
  constexpr std::ptrdiff_t kFactor = 8;
  dsp::MatchedFilter mf(dw::sample_pulse_template(0x93, k::cir_ts_s / kFactor));
  const CVec& s = mf.unit_template();
  const auto np = static_cast<std::ptrdiff_t>(s.size());
  CVec u = random_signal(1024, 26);
  const CVec delta = random_signal(static_cast<std::size_t>(np) + 1, 27);
  const std::ptrdiff_t w_lo = 4000;
  const std::ptrdiff_t w_hi = w_lo + np + 1;
  const std::ptrdiff_t q_lo = (w_lo - np + 1 + kFactor - 1) / kFactor;
  const std::ptrdiff_t q_hi = (w_hi + kFactor - 1) / kFactor;
  for (auto _ : state) {
    simd::corr_window_update(reinterpret_cast<double*>(u.data()),
                             reinterpret_cast<const double*>(delta.data()),
                             reinterpret_cast<const double*>(s.data()), q_lo,
                             q_hi, kFactor, w_lo, w_hi, np);
    benchmark::DoNotOptimize(u.data());
  }
}
BENCHMARK(BM_Simd_SubtractUpdate)->Arg(0)->Arg(2);

void BM_ThresholdDetector(benchmark::State& state) {
  const auto cir = test_cir(3, 7);
  ranging::ThresholdDetector det{ranging::DetectorConfig{}};
  for (auto _ : state) {
    auto found = det.detect(cir.taps, cir.ts_s, 3);
    benchmark::DoNotOptimize(found.data());
  }
}
BENCHMARK(BM_ThresholdDetector);

void BM_FullConcurrentRound(benchmark::State& state) {
  ranging::ScenarioConfig cfg = bench::hallway_scenario(8);
  cfg.responders = {{0, bench::hallway_at(3.0)},
                    {1, bench::hallway_at(6.0)},
                    {2, bench::hallway_at(10.0)}};
  ranging::ConcurrentRangingScenario scenario(cfg);
  for (auto _ : state) {
    auto out = scenario.run_round();
    benchmark::DoNotOptimize(&out);
  }
  // The gated detector-plus-round throughput CI requires in the JSON.
  state.counters["rounds_per_sec"] = benchmark::Counter(
      1.0, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FullConcurrentRound);

// --- runner / parallel harness micro-benchmarks -------------------------

void BM_DeriveSeed(benchmark::State& state) {
  std::uint64_t s = 0;
  for (auto _ : state) {
    s ^= derive_seed(42, s);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_DeriveSeed);

void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  runner::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int> acc{0};
    for (int i = 0; i < 256; ++i)
      pool.submit([&acc] { acc.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    benchmark::DoNotOptimize(acc.load());
  }
}
BENCHMARK(BM_ThreadPoolSubmitDrain)->Arg(1)->Arg(4);

void BM_MonteCarloRun(benchmark::State& state) {
  runner::MonteCarlo::Config cfg;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.base_seed = 9;
  const runner::MonteCarlo mc(cfg);
  for (auto _ : state) {
    auto result = mc.run(64, [](const runner::TrialContext& ctx,
                                runner::TrialRecorder& rec) {
      Rng rng(ctx.seed);
      double acc = 0.0;
      for (int i = 0; i < 1000; ++i) acc += rng.normal(0.0, 1.0);
      rec.sample("acc", acc);
    });
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_MonteCarloRun)->Arg(1)->Arg(4);

void BM_CachedPulseTemplate(benchmark::State& state) {
  dw::clear_pulse_cache();
  for (auto _ : state) {
    const CVec& t = dw::cached_pulse_template(0x93, k::cir_ts_s / 8.0);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_CachedPulseTemplate);

void BM_MonteCarloScenarioRound(benchmark::State& state) {
  // One full scenario-per-trial Monte-Carlo round trip — the unit of work
  // every ported bench schedules. Warm thread-local caches dominate.
  runner::MonteCarlo::Config cfg;
  cfg.threads = 1;
  cfg.base_seed = 11;
  const runner::MonteCarlo mc(cfg);
  for (auto _ : state) {
    auto result = mc.run(1, [](const runner::TrialContext& ctx,
                               runner::TrialRecorder& rec) {
      ranging::ScenarioConfig cfg2 = bench::hallway_scenario(ctx.seed);
      cfg2.responders = {{0, bench::hallway_at(3.0)},
                         {1, bench::hallway_at(6.0)}};
      ranging::ConcurrentRangingScenario scenario(cfg2);
      const auto out = scenario.run_round();
      rec.sample("d", out.d_twr_m);
    });
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_MonteCarloScenarioRound);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record the startup dispatch level in the JSON context so a perf run is
  // attributable to the SIMD level it exercised.
  benchmark::AddCustomContext(
      "uwb_simd_level", uwb::simd::level_name(uwb::simd::active_level()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
