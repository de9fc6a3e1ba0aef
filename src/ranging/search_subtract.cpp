#include "ranging/search_subtract.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/hash.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peaks.hpp"
#include "dsp/resample.hpp"
#include "dsp/signal.hpp"
#include "dw1000/pulse.hpp"
#include "simd/simd.hpp"

namespace uwb::ranging {

namespace detail {
CVec upsample_padded(const CVec& cir_taps, int factor) {
  // Zero-pad to a power of two before FFT interpolation: the 1016-tap CIR
  // then takes the radix-2 path throughout instead of Bluestein, which is
  // several times faster in the Monte-Carlo harnesses. The padding splices
  // zeros at the window end only, leaving interior peaks untouched.
  CVec padded(dsp::next_pow2(cir_taps.size()), Complex{});
  std::copy(cir_taps.begin(), cir_taps.end(), padded.begin());
  return dsp::upsample_fft(padded, factor);
}

}  // namespace detail

struct DetectorPlan {
  double ts_up = 0.0;
  std::size_t n = 0;                    // next_pow2(CIR taps)
  const dsp::FftPlan* fft_n = nullptr;  // the n-point transform
  const dsp::FftPlan* fft_m = nullptr;  // the M = n * F point transform
  struct Entry {
    // The template as sampled, which the exact path builds its matched
    // filters from per call; they normalise it to unit_template's bits.
    CVec sampled;
    CVec unit_template;
    // The M-point spectrum of the conj-time-reversed template, folded onto
    // n bins by dsp::fold_spectrum and scaled by 1/M: one n-point inverse
    // transform of its product with the CIR spectrum is the correlation at
    // every F-th sample of the upsampled residual.
    CVec native_spectrum;
    double raw_norm = 0.0;         // ||s|| on the upsampled grid
    double kappa = 1.0;            // native_coverage() of the template
    std::size_t centre_index = 0;  // peak sample within the template
    std::size_t length = 0;
    std::uint8_t reg = 0x93;
  };
  std::vector<Entry> entries;
};

// Per-CIR working set of the fast detection path: the CIR spectrum, the
// upsampled residual, the per-template correlation at the native positions
// and its power, the peak pick's candidate list and lag block, the
// subtracted waveform and the noise estimate's buffer. One per thread, so
// a warm thread allocates nothing.
struct SearchSubtractDetector::FastState {
  CVec spectrum;            // n-point spectrum of the padded CIR, times F
  CVec residual;            // upsampled residual r, M = n * F samples
  CVec delta;               // subtracted waveform inside the update window
  std::vector<CVec> u;      // u[i][q] = y_i[F q], one per template
  std::vector<RVec> power;  // power[i][q] = |u[i][q]|^2
  std::vector<std::size_t> hits;  // one template's candidates q, ascending
  CVec lags;  // y_i at one candidate's ×F positions, in blocks of 4 lags
  RVec noise_scratch;       // dsp::noise_sigma_estimate's buffer
};

SearchSubtractDetector::SearchSubtractDetector(DetectorConfig config)
    : config_(std::move(config)) {
  detail::validate_detector_config(config_);
}

namespace {

// The calling thread's fast-path working set, reused by every detect().
SearchSubtractDetector::FastState& fast_state() {
  thread_local SearchSubtractDetector::FastState state;
  return state;
}

// The share of a ×F peak's power that survives at the native rate, in the
// worst case: for a lone pulse whose ×F peak sits o samples off the native
// grid, the best native sample within F - 1 of the peak keeps
// max(|A[o]|^2, |A[F - o]|^2) of its power, A the unit template's
// autocorrelation on the ×F grid; this is the minimum over o.
double native_coverage(const CVec& unit_template, int factor) {
  const auto a2 = [&](std::size_t lag) {
    if (lag >= unit_template.size()) return 0.0;
    const auto* s = reinterpret_cast<const double*>(unit_template.data());
    double re = 0.0, im = 0.0;
    simd::cdot_conj(s + 2 * lag, s, unit_template.size() - lag, &re, &im);
    return re * re + im * im;
  };
  const auto f = static_cast<std::size_t>(factor);
  double kappa = 1.0;
  for (std::size_t o = 1; o < f; ++o)
    kappa = std::min(kappa, std::max(a2(o), a2(f - o)));
  return kappa;
}

// The template's spectrum at M = n * factor points (conj(s[p]) at
// (M - p) mod M, so the circular correlation index is the template start;
// a template longer than M wraps), folded onto n bins and scaled by 1/M.
CVec native_template_spectrum(const CVec& unit_template, std::size_t n,
                              int factor, const dsp::FftPlan& fft_m) {
  const std::size_t m = fft_m.size();
  CVec t(m, Complex{});
  for (std::size_t p = 0; p < unit_template.size(); ++p)
    t[(m - p % m) % m] += std::conj(unit_template[p]);
  fft_m.transform_pow2(t.data(), false);
  CVec folded(n);
  dsp::fold_spectrum(t.data(), n, factor, folded.data());
  simd::scale(reinterpret_cast<double*>(folded.data()),
              1.0 / static_cast<double>(m), n);
  return folded;
}

std::unique_ptr<const DetectorPlan> build_plan(const DetectorConfig& cfg,
                                               double ts_up, std::size_t n) {
  const int factor = cfg.upsample_factor;
  auto plan = std::make_unique<DetectorPlan>();
  plan->ts_up = ts_up;
  plan->n = n;
  plan->fft_n = &dsp::plan_for(n);
  plan->fft_m = &dsp::plan_for(n * static_cast<std::size_t>(factor));
  for (const std::uint8_t reg : cfg.shape_registers) {
    DetectorPlan::Entry entry;
    entry.sampled = dw::sample_pulse_template(reg, ts_up);
    entry.raw_norm = std::sqrt(dsp::energy(entry.sampled));
    UWB_ENSURES(entry.raw_norm > 0.0);
    entry.unit_template = dsp::normalize_energy(entry.sampled);
    // The peak pick's simd::corr_real_lags reads only the real parts; with
    // every imaginary part 0 it equals simd::cdot_conj bit for bit.
    UWB_ENSURES(std::all_of(entry.unit_template.begin(),
                            entry.unit_template.end(),
                            [](Complex v) { return v.imag() == 0.0; }));
    entry.native_spectrum = native_template_spectrum(entry.unit_template, n,
                                                     factor, *plan->fft_m);
    entry.kappa = native_coverage(entry.unit_template, factor);
    entry.centre_index = dw::template_centre_index(reg, ts_up);
    entry.length = entry.unit_template.size();
    entry.reg = reg;
    plan->entries.push_back(std::move(entry));
  }
  return plan;
}

// Everything a plan depends on.
struct PlanKey {
  std::uint64_t ts_up_bits = 0;
  std::size_t n = 0;
  int factor = 0;
  std::vector<std::uint8_t> registers;
};

// The process-wide plan memo. A run meets a handful of keys, so a list
// searched in order serves; it only ever appends, so a plan keeps its
// address until the process exits. Building under the lock builds each
// plan exactly once.
const DetectorPlan& shared_plan(const DetectorConfig& cfg, double ts_up,
                                std::size_t n) {
  static std::mutex mu;
  static std::vector<std::pair<PlanKey, std::unique_ptr<const DetectorPlan>>>
      plans;
  const std::uint64_t ts_up_bits = double_bits(ts_up);
  const std::lock_guard<std::mutex> lock(mu);
  for (const auto& [key, plan] : plans)
    if (key.ts_up_bits == ts_up_bits && key.n == n &&
        key.factor == cfg.upsample_factor &&
        key.registers == cfg.shape_registers)
      return *plan;
  plans.emplace_back(
      PlanKey{ts_up_bits, n, cfg.upsample_factor, cfg.shape_registers},
      build_plan(cfg, ts_up, n));
  return *plans.back().second;
}

}  // namespace

const DetectorPlan& SearchSubtractDetector::plan(double ts_s,
                                                 std::size_t cir_len) const {
  UWB_EXPECTS(ts_s > 0.0);
  const double ts_up = ts_s / config_.upsample_factor;
  const std::size_t n = dsp::next_pow2(cir_len);
  if (plan_ == nullptr || plan_->ts_up != ts_up || plan_->n != n)
    plan_ = &shared_plan(config_, ts_up, n);
  return *plan_;
}

CVec SearchSubtractDetector::matched_filter_output(const CVec& cir_taps,
                                                   double ts_s,
                                                   int shape_index) const {
  UWB_EXPECTS(shape_index >= 0 &&
              shape_index < static_cast<int>(config_.shape_registers.size()));
  const DetectorPlan::Entry& entry =
      plan(ts_s, cir_taps.size())
          .entries[static_cast<std::size_t>(shape_index)];
  const CVec up = dsp::upsample_fft(cir_taps, config_.upsample_factor);
  return dsp::MatchedFilter(entry.sampled).apply(up);
}

std::vector<DetectedResponse> SearchSubtractDetector::detect(
    const CVec& cir_taps, double ts_s, int max_responses) const {
  return detect_impl(cir_taps, ts_s, max_responses, nullptr);
}

SearchSubtractDetector::DetectionTrace
SearchSubtractDetector::detect_with_trace(const CVec& cir_taps, double ts_s,
                                          int max_responses) const {
  DetectionTrace trace;
  trace.ts_up = ts_s / config_.upsample_factor;
  trace.responses = detect_impl(cir_taps, ts_s, max_responses, &trace);
  return trace;
}

std::vector<DetectedResponse> SearchSubtractDetector::detect_impl(
    const CVec& cir_taps, double ts_s, int max_responses,
    DetectionTrace* trace) const {
  UWB_EXPECTS(!cir_taps.empty());
  UWB_EXPECTS(max_responses >= 1);
  const DetectorPlan& resolved = plan(ts_s, cir_taps.size());
  if (trace != nullptr)
    return detect_exact(cir_taps, resolved, max_responses, *trace);
  return detect_fast(cir_taps, resolved, max_responses);
}

namespace {

// Candidate margin of the fast path's search: a native sample is a
// candidate when its power reaches this fraction of kappa_i times the native
// maximum. kappa_i holds for a lone pulse; the margin covers overlapping
// pulses and noise. Over two seeds of each perfbench workload (43 754
// iterations) the native sample next to the ×F maximum kept at least 0.79
// of kappa_i times the native maximum; 0.8 missed one pick, 0.7 none
// (DESIGN.md Sect. 8.3).
constexpr double kCandidateMargin = 0.7;

// Peak refinement and bookkeeping shared by both detection paths.
struct PeakSelection {
  int shape = -1;
  std::size_t index = 0;
  double mag = -1.0;
};

// Parabolic interpolation of |y| around the peak at idx of an output of
// `size` samples, |y| read by y_abs(j): the fractional pulse position, and
// the refined magnitude at that position.
template <class YAbs>
void refine_peak(YAbs y_abs, std::size_t idx, std::size_t size, double mag,
                 double* frac, double* mag_refined) {
  *frac = 0.0;
  *mag_refined = mag;
  if (idx > 0 && idx + 1 < size) {
    const double ym = y_abs(idx - 1);
    const double yp = y_abs(idx + 1);
    const double denom = ym - 2.0 * mag + yp;
    if (denom < 0.0) {
      *frac = std::clamp(0.5 * (ym - yp) / denom, -0.5, 0.5);
      *mag_refined = mag - 0.25 * (ym - yp) * (*frac);
    }
  }
}

// Noise sigma of a correlation output, measured at the native rate: over
// every factor-th sample, the samples the fast path keeps.
double native_noise_sigma(const CVec& y, int factor) {
  CVec native(y.size() / static_cast<std::size_t>(factor));
  for (std::size_t q = 0; q < native.size(); ++q)
    native[q] = y[q * static_cast<std::size_t>(factor)];
  RVec scratch;
  return dsp::noise_sigma_estimate(native, scratch);
}

// y[j] = sum_m r[j + m] * conj(s[m]) on the upsampled grid by one direct
// dot product (template samples past the end of r count as zero).
Complex correlate_at(const CVec& r, const CVec& s, std::size_t j) {
  double re = 0.0, im = 0.0;
  simd::cdot_conj(reinterpret_cast<const double*>(r.data() + j),
                  reinterpret_cast<const double*>(s.data()),
                  std::min(s.size(), r.size() - j), &re, &im);
  return {re, im};
}

}  // namespace

std::vector<DetectedResponse> SearchSubtractDetector::detect_exact(
    const CVec& cir_taps, const DetectorPlan& plan, int max_responses,
    DetectionTrace& trace) const {
  const double ts_up = plan.ts_up;
  CVec residual = detail::upsample_padded(cir_taps, config_.upsample_factor);
  std::vector<dsp::MatchedFilter> filters;
  filters.reserve(plan.entries.size());
  for (const DetectorPlan::Entry& entry : plan.entries)
    filters.emplace_back(entry.sampled);

  std::vector<DetectedResponse> found;
  found.reserve(static_cast<std::size_t>(max_responses));
  double strongest = 0.0;
  for (int k = 0; k < max_responses; ++k) {
    // Step 2/3: matched filter every template, take the global maximum.
    PeakSelection best;
    CVec best_y;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      CVec y = filters[i].apply(residual);
      const std::size_t idx = dsp::argmax_abs(y);
      const double mag = std::abs(y[idx]);
      if (mag > best.mag) {
        best = {static_cast<int>(i), idx, mag};
        best_y = std::move(y);
      }
    }
    UWB_ENSURES(best.shape >= 0);

    // Stop at the noise floor of the *filter output* (upsampling correlates
    // the accumulator noise, so the matched-filter noise gain must be
    // measured, not assumed white), taken at the native rate like the fast
    // path's; never stop by absolute power bounds.
    const double noise = native_noise_sigma(best_y, config_.upsample_factor);
    const bool below_noise =
        best.mag < config_.noise_threshold_factor * noise;
    const bool below =
        below_noise || (strongest > 0.0 &&
                        best.mag < config_.relative_stop_fraction * strongest);
    if (below) {
      UWB_FR_EVENT(.kind = obs::FrKind::kDetect, .name = "peak_rejected",
                   .detail = below_noise ? "below_noise" : "relative_stop",
                   .v0 = {"mag", best.mag},
                   .v1 = {"threshold",
                          below_noise
                              ? config_.noise_threshold_factor * noise
                              : config_.relative_stop_fraction * strongest},
                   .v2 = {"shape", static_cast<double>(best.shape)});
      // The rejected final output still belongs to the trace (it is what
      // shows the residual has hit the noise floor).
      trace.mf_outputs.push_back(std::move(best_y));
      break;
    }
    strongest = std::max(strongest, best.mag);

    const auto& entry = plan.entries[static_cast<std::size_t>(best.shape)];

    // Sub-sample refinement: parabolic interpolation of |y| around the peak
    // gives the fractional pulse position; subtracting the fractionally
    // shifted template keeps the residual below the noise floor instead of
    // leaving quantisation sidelobes.
    double frac = 0.0, mag_refined = best.mag;
    refine_peak([&](std::size_t j) { return std::abs(best_y[j]); },
                best.index, best_y.size(), best.mag, &frac, &mag_refined);
    const Complex amp_at_peak =
        best_y[best.index] * (mag_refined / best.mag) / entry.raw_norm;
    // best_y is no longer needed: hand it to the trace without copying.
    trace.mf_outputs.push_back(std::move(best_y));

    DetectedResponse resp;
    resp.index_upsampled = static_cast<double>(best.index) + frac +
                           static_cast<double>(entry.centre_index);
    resp.tau_s = resp.index_upsampled * ts_up;
    // Step 4: amplitude from the filter output (template has unit energy, so
    // the physical peak amplitude is y / ||s||).
    resp.amplitude = amp_at_peak;
    resp.shape_index =
        config_.shape_registers.size() > 1 ? best.shape : -1;
    UWB_FR_EVENT(.kind = obs::FrKind::kDetect, .name = "peak_accepted",
                 .v0 = {"mag", best.mag},
                 .v1 = {"threshold", config_.noise_threshold_factor * noise},
                 .v2 = {"tau_s", resp.tau_s},
                 .v3 = {"shape", static_cast<double>(best.shape)});
    found.push_back(resp);

    // Step 5: subtract the estimated response, evaluating the analytic pulse
    // at the fractional delay.
    const auto n0 = static_cast<std::ptrdiff_t>(best.index);
    const auto len = static_cast<std::ptrdiff_t>(entry.length);
    const auto res_n = static_cast<std::ptrdiff_t>(residual.size());
    const auto centre = static_cast<double>(entry.centre_index);
    for (std::ptrdiff_t m = std::max<std::ptrdiff_t>(0, -n0);
         m < std::min(len + 1, res_n - n0); ++m) {
      const double t = (static_cast<double>(m) - centre - frac) * ts_up;
      residual[static_cast<std::size_t>(n0 + m)] -=
          amp_at_peak * dw::pulse_value(entry.reg, t);
    }
  }

  // Step 7: ascending path delay, closest responder first.
  std::sort(found.begin(), found.end(),
            [](const DetectedResponse& a, const DetectedResponse& b) {
              return a.tau_s < b.tau_s;
            });
  return found;
}

void SearchSubtractDetector::prepare_residual(const CVec& cir_taps,
                                              const DetectorPlan& plan,
                                              FastState& st) const {
  const int factor = config_.upsample_factor;
  const std::size_t n = plan.n;
  const std::size_t m = n * static_cast<std::size_t>(factor);
  UWB_OBS_SPAN("upsample");
  // Step 1: the n-point spectrum S of the zero-padded CIR, and the
  // upsampled residual r = IFFT_M(S zero-stuffed to M bins) / M. The
  // upsampling gain F is folded into S (n samples) rather than r (M).
  CVec& spectrum = st.spectrum;
  spectrum.resize(n);
  std::copy(cir_taps.begin(), cir_taps.end(), spectrum.begin());
  std::fill(spectrum.begin() + static_cast<std::ptrdiff_t>(cir_taps.size()),
            spectrum.end(), Complex{});
  CVec& residual = st.residual;
  // Without upsampling r is the padded CIR itself.
  if (factor == 1) residual.assign(spectrum.begin(), spectrum.end());
  plan.fft_n->transform_pow2(spectrum.data(), false);
  if (factor == 1) return;
  simd::scale(reinterpret_cast<double*>(spectrum.data()),
              static_cast<double>(factor), n);
  residual.resize(m);
  dsp::upsample_spectrum(spectrum.data(), n, factor, residual.data());
  plan.fft_m->transform_pow2(residual.data(), true);
  simd::scale(reinterpret_cast<double*>(residual.data()),
              1.0 / static_cast<double>(m), m);
}

// uwb-hot-path: the per-template native-rate correlation runs once per
// detect (the bank_correlate span of bench_fig4_detection). It allocates
// nothing: HotPathAllocTest.BankCorrelateAllocatesNothing pins it, and
// SearchLoopAllocatesNothing the search loop after it.
void SearchSubtractDetector::bank_correlate(const DetectorPlan& plan,
                                            FastState& st) const {
  // Step 2 (first iteration): u_i = IFFT_n(S * native_spectrum_i), the
  // circular correlation at j = F q, one n-point transform per template.
  const std::size_t n_shapes = plan.entries.size();
  const std::size_t n = plan.n;
  const auto factor = static_cast<std::ptrdiff_t>(config_.upsample_factor);
  const auto m = static_cast<std::ptrdiff_t>(st.residual.size());
  if (st.u.size() < n_shapes) st.u.resize(n_shapes);
  UWB_OBS_SPAN("bank_correlate");
  const auto* r = reinterpret_cast<const double*>(st.residual.data());
  for (std::size_t i = 0; i < n_shapes; ++i) {
    const DetectorPlan::Entry& entry = plan.entries[i];
    CVec& u = st.u[i];
    u.resize(n);
    simd::cmul(reinterpret_cast<const double*>(st.spectrum.data()),
               reinterpret_cast<const double*>(entry.native_spectrum.data()),
               reinterpret_cast<double*>(u.data()), n);
    plan.fft_n->transform_pow2(u.data(), true);
    // The circular correlation wraps the template samples that run past
    // the end of r back onto r[0 ...]; take them out, so u[q] is the
    // linear correlation y_i[F q] of the exact path.
    const auto len = static_cast<std::ptrdiff_t>(entry.length);
    const auto* s = reinterpret_cast<const double*>(entry.unit_template.data());
    for (std::ptrdiff_t q = m >= len ? (m - len) / factor + 1 : 0;
         q < static_cast<std::ptrdiff_t>(n); ++q) {
      for (std::ptrdiff_t a = m - factor * q; a < len; a += m) {
        double re = 0.0, im = 0.0;
        simd::cdot_conj(r, s + 2 * a,
                        static_cast<std::size_t>(std::min(m, len - a)), &re,
                        &im);
        u[static_cast<std::size_t>(q)] -= Complex(re, im);
      }
    }
  }
}

std::vector<DetectedResponse> SearchSubtractDetector::search_loop(
    const DetectorPlan& plan, int max_responses, FastState& st) const {
  const double ts_up = plan.ts_up;
  const std::size_t n = plan.n;
  const auto factor = static_cast<std::ptrdiff_t>(config_.upsample_factor);
  const std::size_t n_shapes = plan.entries.size();
  CVec& residual = st.residual;
  const auto m = static_cast<std::ptrdiff_t>(residual.size());
  const auto* r = reinterpret_cast<const double*>(residual.data());
  if (st.power.size() < n_shapes) st.power.resize(n_shapes);
  for (std::size_t i = 0; i < n_shapes; ++i) st.power[i].resize(n);
  st.hits.resize(n);
  // A candidate's window holds at most 2F - 1 positions.
  st.lags.resize(static_cast<std::size_t>((2 * factor - 1 + 3) / 4 * 4));

  std::vector<DetectedResponse> found;
  found.reserve(static_cast<std::size_t>(max_responses));
  double strongest = 0.0;
  std::uint64_t candidates = 0;
  std::uint64_t refined = 0;
  for (int k = 0; k < max_responses; ++k) {
    // Step 2/3: the global maximum over templates and positions of the
    // upsampled grid, searched only around the native samples that can sit
    // next to it: a native sample of template i within F - 1 of a ×F peak
    // keeps at least kappa_i of its power (for a lone pulse), so every
    // native sample of at least kCandidateMargin * kappa_i times the native
    // maximum is a candidate (simd::norms_max, then simd::indices_at_least
    // per template), and y_i is evaluated directly within F - 1 of each.
    // |y|^2 compares: same argmax, no hypot per sample. Ties go to the
    // lowest template, then the lowest position, as in a full scan.
    PeakSelection best;
    double best_norm = -1.0;
    Complex best_y;
    {
    UWB_OBS_SPAN("peak_pick");
    double native_max = 0.0;
    for (std::size_t i = 0; i < n_shapes; ++i)
      native_max = std::max(
          native_max,
          simd::norms_max(reinterpret_cast<const double*>(st.u[i].data()), n,
                          st.power[i].data()));
    const auto consider = [&](std::size_t i, std::ptrdiff_t j, Complex y) {
      ++refined;
      if (const double power = std::norm(y); power > best_norm) {
        best_norm = power;
        best = {static_cast<int>(i), static_cast<std::size_t>(j), 0.0};
        best_y = y;
      }
    };
    for (std::size_t i = 0; i < n_shapes; ++i) {
      const DetectorPlan::Entry& entry = plan.entries[i];
      const auto len = static_cast<std::ptrdiff_t>(entry.length);
      const auto* s =
          reinterpret_cast<const double*>(entry.unit_template.data());
      const double cut = kCandidateMargin * entry.kappa * native_max;
      const std::size_t hits = simd::indices_at_least(
          st.power[i].data(), n, cut, st.hits.data());
      candidates += hits;
      std::ptrdiff_t next = 0;  // first ×F position not yet evaluated
      for (std::size_t h = 0; h < hits; ++h) {
        const auto centre = factor * static_cast<std::ptrdiff_t>(st.hits[h]);
        const std::ptrdiff_t j_lo = std::max(next, centre - factor + 1);
        const std::ptrdiff_t j_hi = std::min(m, centre + factor);
        // Positions whose whole window lies inside r run as lag blocks,
        // rounded up to 4 lags while the extra windows stay inside r (their
        // sums are not used); the rest are shorter dot products.
        const std::ptrdiff_t j_full =
            std::min(j_hi, std::max(j_lo, m - len + 1));
        if (j_lo < j_full) {
          const std::ptrdiff_t lags =
              std::min((j_full - j_lo + 3) / 4 * 4, m - len + 1 - j_lo);
          simd::corr_real_lags(r + 2 * j_lo, s, entry.length,
                               static_cast<std::size_t>(lags),
                               reinterpret_cast<double*>(st.lags.data()));
          for (std::ptrdiff_t j = j_lo; j < j_full; ++j)
            consider(i, j, st.lags[static_cast<std::size_t>(j - j_lo)]);
        }
        for (std::ptrdiff_t j = j_full; j < j_hi; ++j)
          consider(i, j,
                   correlate_at(residual, entry.unit_template,
                                static_cast<std::size_t>(j)));
        next = std::max(next, j_hi);
      }
    }
    }
    UWB_ENSURES(best.shape >= 0);
    const auto& entry = plan.entries[static_cast<std::size_t>(best.shape)];
    best.mag = std::abs(best_y);

    double noise = 0.0;
    {
    UWB_OBS_SPAN("noise_estimate");
    noise = dsp::noise_sigma_estimate(
        st.u[static_cast<std::size_t>(best.shape)], st.noise_scratch);
    }
    if (best.mag < config_.noise_threshold_factor * noise) {
      UWB_FR_EVENT(.kind = obs::FrKind::kDetect, .name = "peak_rejected",
                   .detail = "below_noise", .v0 = {"mag", best.mag},
                   .v1 = {"threshold", config_.noise_threshold_factor * noise},
                   .v2 = {"shape", static_cast<double>(best.shape)});
      break;
    }
    if (strongest > 0.0 &&
        best.mag < config_.relative_stop_fraction * strongest) {
      UWB_FR_EVENT(.kind = obs::FrKind::kDetect, .name = "peak_rejected",
                   .detail = "relative_stop", .v0 = {"mag", best.mag},
                   .v1 = {"threshold",
                          config_.relative_stop_fraction * strongest},
                   .v2 = {"shape", static_cast<double>(best.shape)});
      break;
    }
    strongest = std::max(strongest, best.mag);

    double frac = 0.0, mag_refined = best.mag;
    refine_peak(
        [&](std::size_t j) {
          return std::abs(correlate_at(residual, entry.unit_template, j));
        },
        best.index, residual.size(), best.mag, &frac, &mag_refined);
    const Complex amp_at_peak =
        best_y * (mag_refined / best.mag) / entry.raw_norm;

    DetectedResponse resp;
    resp.index_upsampled = static_cast<double>(best.index) + frac +
                           static_cast<double>(entry.centre_index);
    resp.tau_s = resp.index_upsampled * ts_up;
    resp.amplitude = amp_at_peak;
    resp.shape_index =
        config_.shape_registers.size() > 1 ? best.shape : -1;
    UWB_FR_EVENT(.kind = obs::FrKind::kDetect, .name = "peak_accepted",
                 .v0 = {"mag", best.mag},
                 .v1 = {"threshold", config_.noise_threshold_factor * noise},
                 .v2 = {"tau_s", resp.tau_s},
                 .v3 = {"shape", static_cast<double>(best.shape)});
    found.push_back(resp);

    if (k + 1 == max_responses) break;  // last iteration: no update needed

    // Step 5: subtract the estimated response from the residual, capturing
    // the subtracted waveform for the incremental correlation update.
    UWB_OBS_SPAN("subtract_update");
    const auto n0 = static_cast<std::ptrdiff_t>(best.index);
    const auto len = static_cast<std::ptrdiff_t>(entry.length);
    const auto centre = static_cast<double>(entry.centre_index);
    const std::ptrdiff_t m_lo = std::max<std::ptrdiff_t>(0, -n0);
    const std::ptrdiff_t m_hi = std::min(len + 1, m - n0);
    CVec& delta = st.delta;
    delta.resize(
        static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, m_hi - m_lo)));
    for (std::ptrdiff_t mm = m_lo; mm < m_hi; ++mm) {
      const double t = (static_cast<double>(mm) - centre - frac) * ts_up;
      const Complex dv = amp_at_peak * dw::pulse_value(entry.reg, t);
      delta[static_cast<std::size_t>(mm - m_lo)] = dv;
      residual[static_cast<std::size_t>(n0 + mm)] -= dv;
    }

    // Incremental update: the subtraction only changed residual samples
    // [w_lo, w_hi), so u_i changes only at the native positions F q whose
    // template window [F q, F q + L_i) overlaps that range — a short
    // strided windowed correlation instead of K fresh correlations.
    const std::ptrdiff_t w_lo = n0 + m_lo;
    const std::ptrdiff_t w_hi = n0 + m_hi;
    const auto* dd = reinterpret_cast<const double*>(delta.data());
    for (std::size_t i = 0; i < n_shapes; ++i) {
      const auto len_i = static_cast<std::ptrdiff_t>(plan.entries[i].length);
      const auto* sd = reinterpret_cast<const double*>(
          plan.entries[i].unit_template.data());
      const std::ptrdiff_t first = w_lo - len_i + 1;  // lowest overlapping j
      const std::ptrdiff_t q_lo = first > 0 ? (first + factor - 1) / factor : 0;
      const std::ptrdiff_t q_hi = std::min(static_cast<std::ptrdiff_t>(n),
                                           (w_hi + factor - 1) / factor);
      simd::corr_window_update(reinterpret_cast<double*>(st.u[i].data()), dd,
                               sd, q_lo, q_hi, factor, w_lo, w_hi, len_i);
#ifndef NDEBUG
      // Debug contract: the incrementally maintained output equals every
      // F-th sample of a fresh correlation of the updated residual, to
      // floating-point roundoff (computed without allocating, so the
      // allocation pins hold in every build type).
      {
        double max_diff = 0.0, ref_peak = 0.0;
        for (std::size_t q = 0; q < n; ++q) {
          const Complex ref_q = correlate_at(
              residual, plan.entries[i].unit_template,
              q * static_cast<std::size_t>(factor));
          max_diff = std::max(max_diff, std::abs(ref_q - st.u[i][q]));
          ref_peak = std::max(ref_peak, std::abs(ref_q));
        }
        assert(max_diff <= 1e-6 * (1.0 + ref_peak) &&
               "incremental matched-filter update diverged from exact");
      }
#endif
    }
  }
  UWB_OBS_COUNT("detect_candidates", candidates);
  UWB_OBS_COUNT("detect_refined_samples", refined);

  std::sort(found.begin(), found.end(),
            [](const DetectedResponse& a, const DetectedResponse& b) {
              return a.tau_s < b.tau_s;
            });
  return found;
}

std::vector<DetectedResponse> SearchSubtractDetector::detect_fast(
    const CVec& cir_taps, const DetectorPlan& plan, int max_responses) const {
  FastState& st = fast_state();
  prepare_residual(cir_taps, plan, st);
  bank_correlate(plan, st);
  return search_loop(plan, max_responses, st);
}

}  // namespace uwb::ranging
