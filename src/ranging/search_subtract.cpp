#include "ranging/search_subtract.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/expects.hpp"
#include "common/hash.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
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
void validate_detector_config(const DetectorConfig& cfg);

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

struct SearchSubtractDetector::TemplateBank {
  double ts_up = 0.0;
  std::size_t max_len = 0;  // longest template in the bank
  struct Entry {
    dsp::MatchedFilter filter;
    CVec unit_template;
    double raw_norm = 0.0;         // ||s|| on the upsampled grid
    std::size_t centre_index = 0;  // peak sample within the template
    std::size_t length = 0;
    std::uint8_t reg = 0x93;
  };
  std::vector<Entry> entries;
};

// Per-CIR working set of the fast detection path: the residual, its
// spectra, the per-template correlation outputs, and the subtraction
// window. One per thread, so a warm thread allocates nothing.
struct SearchSubtractDetector::FastState {
  CVec padded_cir;
  CVec residual;
  CVec spec_m;   // spectrum of the upsampled residual at its own length M
  CVec spec_p;   // spectrum of the zero-padded residual at the bank length P
  CVec delta;    // subtracted waveform inside the update window
  std::vector<CVec> ys;  // one correlation output per template
  std::size_t kM = 0;    // upsampled residual length
  std::size_t kP = 0;    // padded bank-correlation length
};

SearchSubtractDetector::SearchSubtractDetector(DetectorConfig config)
    : config_(std::move(config)) {
  detail::validate_detector_config(config_);
}

SearchSubtractDetector::~SearchSubtractDetector() = default;
SearchSubtractDetector::SearchSubtractDetector(SearchSubtractDetector&&) noexcept =
    default;
SearchSubtractDetector& SearchSubtractDetector::operator=(
    SearchSubtractDetector&&) noexcept = default;

namespace {

// Thread-local bank cache: detectors constructed per Monte-Carlo trial with
// identical configuration share one bank (templates and matched-filter
// spectra) instead of rebuilding it every trial. Keyed by everything the
// bank depends on: the shape registers and the upsampled sample period.
struct BankCache {
  struct Key {
    std::vector<std::uint8_t> registers;
    std::uint64_t ts_up_bits = 0;
    bool operator==(const Key& other) const {
      return ts_up_bits == other.ts_up_bits && registers == other.registers;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t h = hash_mix(key.ts_up_bits);
      for (const std::uint8_t reg : key.registers) h = hash_combine(h, reg);
      return static_cast<std::size_t>(h);
    }
  };
  // Lookup only: find and emplace, never iterated.
  // uwb-lint: allow(unordered-container)
  std::unordered_map<Key, std::shared_ptr<const SearchSubtractDetector::TemplateBank>,
                     KeyHash>
      entries;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

BankCache& bank_cache() {
  thread_local BankCache cache;
  return cache;
}

// The calling thread's fast-path working set, reused by every detect().
SearchSubtractDetector::FastState& fast_state() {
  thread_local SearchSubtractDetector::FastState state;
  return state;
}

}  // namespace

const SearchSubtractDetector::TemplateBank& SearchSubtractDetector::bank_for(
    double ts_s) const {
  UWB_EXPECTS(ts_s > 0.0);
  const double ts_up = ts_s / config_.upsample_factor;
  if (bank_ && std::abs(bank_->ts_up - ts_up) < 1e-18) return *bank_;

  BankCache& cache = bank_cache();
  const BankCache::Key key{config_.shape_registers, double_bits(ts_up)};
  if (const auto it = cache.entries.find(key); it != cache.entries.end()) {
    ++cache.hits;
    UWB_OBS_COUNT("cache_bank_hits", 1);
    bank_ = it->second;
    return *bank_;
  }
  ++cache.misses;
  UWB_OBS_COUNT("cache_bank_misses", 1);

  auto bank = std::make_shared<TemplateBank>();
  bank->ts_up = ts_up;
  for (std::uint8_t reg : config_.shape_registers) {
    CVec raw = dw::cached_pulse_template(reg, ts_up);
    const double norm = std::sqrt(dsp::energy(raw));
    UWB_ENSURES(norm > 0.0);
    TemplateBank::Entry entry{dsp::MatchedFilter(std::move(raw)), {}, norm,
                              dw::template_centre_index(reg, ts_up),
                              0, reg};
    entry.unit_template = entry.filter.unit_template();
    entry.length = entry.unit_template.size();
    bank->max_len = std::max(bank->max_len, entry.length);
    bank->entries.push_back(std::move(entry));
  }
  bank_ = bank;
  cache.entries.emplace(key, std::move(bank));
  return *bank_;
}

SearchSubtractDetector::BankCacheStats
SearchSubtractDetector::bank_cache_stats() {
  const BankCache& cache = bank_cache();
  return {cache.hits, cache.misses};
}

SearchSubtractDetector::BankCacheStats
SearchSubtractDetector::bank_cache_stats_total() {
  // Registry-backed totals (obs shards sum per-thread counts).
  const auto snap = obs::MetricsRegistry::instance().aggregate();
  return {snap.counter("cache_bank_hits"), snap.counter("cache_bank_misses")};
}

void SearchSubtractDetector::clear_bank_cache() {
  bank_cache().entries.clear();
}

CVec SearchSubtractDetector::matched_filter_output(const CVec& cir_taps,
                                                   double ts_s,
                                                   int shape_index) const {
  UWB_EXPECTS(shape_index >= 0 &&
              shape_index < static_cast<int>(config_.shape_registers.size()));
  const TemplateBank& bank = bank_for(ts_s);
  const CVec up = dsp::upsample_fft(cir_taps, config_.upsample_factor);
  return bank.entries[static_cast<std::size_t>(shape_index)].filter.apply(up);
}

std::vector<DetectedResponse> SearchSubtractDetector::detect(
    const CVec& cir_taps, double ts_s, int max_responses) const {
  return detect_impl(cir_taps, ts_s, max_responses, nullptr);
}

SearchSubtractDetector::DetectionTrace SearchSubtractDetector::detect_with_trace(
    const CVec& cir_taps, double ts_s, int max_responses) const {
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
  const TemplateBank& bank = bank_for(ts_s);
  if (trace != nullptr || config_.exact_recompute)
    return detect_exact(cir_taps, bank, max_responses, trace);
  return detect_fast(cir_taps, bank, max_responses);
}

namespace {

// Peak refinement and bookkeeping shared by both detection paths.
struct PeakSelection {
  int shape = -1;
  std::size_t index = 0;
  double mag = -1.0;
};

// Parabolic interpolation of |y| around the peak: the fractional pulse
// position, and the refined magnitude at that position.
void refine_peak(const CVec& y, std::size_t idx, double mag, double* frac,
                 double* mag_refined) {
  *frac = 0.0;
  *mag_refined = mag;
  if (idx > 0 && idx + 1 < y.size()) {
    const double ym = std::abs(y[idx - 1]);
    const double yp = std::abs(y[idx + 1]);
    const double denom = ym - 2.0 * mag + yp;
    if (denom < 0.0) {
      *frac = std::clamp(0.5 * (ym - yp) / denom, -0.5, 0.5);
      *mag_refined = mag - 0.25 * (ym - yp) * (*frac);
    }
  }
}

}  // namespace

std::vector<DetectedResponse> SearchSubtractDetector::detect_exact(
    const CVec& cir_taps, const TemplateBank& bank, int max_responses,
    DetectionTrace* trace) const {
  const double ts_up = bank.ts_up;
  CVec residual = detail::upsample_padded(cir_taps, config_.upsample_factor);

  std::vector<DetectedResponse> found;
  found.reserve(static_cast<std::size_t>(max_responses));
  double strongest = 0.0;
  for (int k = 0; k < max_responses; ++k) {
    // Step 2/3: matched filter every template, take the global maximum.
    PeakSelection best;
    CVec best_y;
    for (std::size_t i = 0; i < bank.entries.size(); ++i) {
      CVec y = bank.entries[i].filter.apply(residual);
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
    // measured, not assumed white); never stop by absolute power bounds.
    const double noise = dsp::noise_sigma_estimate(best_y);
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
      if (trace) trace->mf_outputs.push_back(std::move(best_y));
      break;
    }
    strongest = std::max(strongest, best.mag);

    const auto& entry = bank.entries[static_cast<std::size_t>(best.shape)];

    // Sub-sample refinement: parabolic interpolation of |y| around the peak
    // gives the fractional pulse position; subtracting the fractionally
    // shifted template keeps the residual below the noise floor instead of
    // leaving quantisation sidelobes.
    double frac = 0.0, mag_refined = best.mag;
    refine_peak(best_y, best.index, best.mag, &frac, &mag_refined);
    const Complex amp_at_peak =
        best_y[best.index] * (mag_refined / best.mag) / entry.raw_norm;
    // best_y is no longer needed: hand it to the trace without copying.
    if (trace) trace->mf_outputs.push_back(std::move(best_y));

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
                                              const TemplateBank& bank,
                                              FastState& st) const {
  const int factor = config_.upsample_factor;
  const std::size_t n2 = dsp::next_pow2(cir_taps.size());
  const std::size_t kM = n2 * static_cast<std::size_t>(factor);
  // One padded length for the whole bank (sized by the longest template) so
  // every template correlates against the same residual spectrum.
  const std::size_t kP = dsp::next_pow2(kM + bank.max_len - 1);
  st.kM = kM;
  st.kP = kP;

  // Step 1: upsample the zero-padded CIR, keeping both the time-domain
  // residual and its length-M spectrum (the zero-stuffed CIR spectrum).
  CVec& residual = st.residual;
  CVec& spec_m = st.spec_m;
  spec_m.resize(kM);
  {
  UWB_OBS_SPAN("upsample");
  if (factor == 1) {
    residual.resize(kM);
    std::copy(cir_taps.begin(), cir_taps.end(), residual.begin());
    std::fill(residual.begin() + static_cast<std::ptrdiff_t>(cir_taps.size()),
              residual.end(), Complex{});
    std::copy(residual.begin(), residual.end(), spec_m.begin());
    dsp::plan_for(kM).transform_pow2(spec_m.data(), false);
  } else {
    CVec& padded = st.padded_cir;
    padded.resize(n2);
    std::copy(cir_taps.begin(), cir_taps.end(), padded.begin());
    std::fill(padded.begin() + static_cast<std::ptrdiff_t>(cir_taps.size()),
              padded.end(), Complex{});
    dsp::plan_for(n2).transform_pow2(padded.data(), false);
    // Fold the upsampling gain into the CIR spectrum (n2 samples) instead
    // of the stuffed spectrum (kM samples).
    simd::scale(reinterpret_cast<double*>(padded.data()),
                static_cast<double>(factor), n2);
    dsp::upsample_spectrum(padded.data(), n2, factor, spec_m.data());
    residual = spec_m;
    dsp::plan_for(kM).transform_pow2(residual.data(), true);
    const double inv_m = 1.0 / static_cast<double>(kM);
    simd::scale(reinterpret_cast<double*>(residual.data()), inv_m, kM);
  }
  }

  // Forward spectrum of the zero-padded residual at the bank length P.
  // For the common P == 2M case the transform collapses with the upsample:
  // even bins are the length-M spectrum we already hold, odd bins are one
  // length-M transform of the twiddle-modulated residual (the first
  // decimation-in-frequency stage of FFT_P run on an input whose upper half
  // is zero).
  CVec& spec_p = st.spec_p;
  spec_p.resize(kP);
  {
  UWB_OBS_SPAN("fft");
  if (kP == kM) {
    std::copy(spec_m.begin(), spec_m.end(), spec_p.begin());
  } else if (kP == 2 * kM) {
    CVec& modulated = st.padded_cir;  // padded_cir is dead past step 1
    modulated.resize(kM);
    const double* w =
        reinterpret_cast<const double*>(dsp::plan_for(kP).twiddle_half());
    const double* u = reinterpret_cast<const double*>(residual.data());
    double* t = reinterpret_cast<double*>(modulated.data());
    simd::cmul(u, w, t, kM);
    dsp::plan_for(kM).transform_pow2(modulated.data(), false);
    for (std::size_t k = 0; k < kM; ++k) {
      spec_p[2 * k] = spec_m[k];
      spec_p[2 * k + 1] = modulated[k];
    }
  } else {
    // Degenerate sizes (tiny CIR, long templates): plain padded transform.
    std::copy(residual.begin(), residual.end(), spec_p.begin());
    std::fill(spec_p.begin() + static_cast<std::ptrdiff_t>(kM), spec_p.end(),
              Complex{});
    dsp::plan_for(kP).transform_pow2(spec_p.data(), false);
  }
  }
}

// uwb-hot-path: the per-template correlation inner loop dominates detect
// latency (the bank_correlate span of bench_fig4_detection). It allocates
// nothing: HotPathAllocTest.BankCorrelateAllocatesNothing pins it.
void SearchSubtractDetector::bank_correlate(const TemplateBank& bank,
                                            FastState& st) const {
  // Step 2 (first iteration): one pointwise multiply + inverse transform
  // per template against the shared residual spectrum.
  const std::size_t n_shapes = bank.entries.size();
  if (st.ys.size() < n_shapes) st.ys.resize(n_shapes);
  UWB_OBS_SPAN("bank_correlate");
  for (std::size_t i = 0; i < n_shapes; ++i)
    bank.entries[i].filter.apply_spectrum(st.spec_p.data(), st.kP, st.kM,
                                          st.ys[i]);
}

std::vector<DetectedResponse> SearchSubtractDetector::search_loop(
    const TemplateBank& bank, int max_responses, FastState& st) const {
  const double ts_up = bank.ts_up;
  const std::size_t kM = st.kM;
  const std::size_t n_shapes = bank.entries.size();
  CVec& residual = st.residual;

  std::vector<DetectedResponse> found;
  found.reserve(static_cast<std::size_t>(max_responses));
  double strongest = 0.0;
  for (int k = 0; k < max_responses; ++k) {
    // Step 2/3: global maximum over templates and positions. |y|^2 compare:
    // same argmax, no hypot per sample.
    PeakSelection best;
    double best_norm = -1.0;
    {
    UWB_OBS_SPAN("peak_pick");
    for (std::size_t i = 0; i < n_shapes; ++i) {
      const double* y = reinterpret_cast<const double*>(st.ys[i].data());
      const std::size_t idx = simd::argmax_norm(y, kM);
      const double max_norm =
          y[2 * idx] * y[2 * idx] + y[2 * idx + 1] * y[2 * idx + 1];
      if (max_norm > best_norm) {
        best_norm = max_norm;
        best = {static_cast<int>(i), idx, 0.0};
      }
    }
    }
    UWB_ENSURES(best.shape >= 0);
    const CVec& best_y = st.ys[static_cast<std::size_t>(best.shape)];
    best.mag = std::abs(best_y[best.index]);

    double noise = 0.0;
    {
    UWB_OBS_SPAN("noise_estimate");
    noise = dsp::noise_sigma_estimate(best_y);
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

    const auto& entry = bank.entries[static_cast<std::size_t>(best.shape)];
    double frac = 0.0, mag_refined = best.mag;
    refine_peak(best_y, best.index, best.mag, &frac, &mag_refined);
    const Complex amp_at_peak =
        best_y[best.index] * (mag_refined / best.mag) / entry.raw_norm;

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
    const auto res_n = static_cast<std::ptrdiff_t>(kM);
    const auto centre = static_cast<double>(entry.centre_index);
    const std::ptrdiff_t m_lo = std::max<std::ptrdiff_t>(0, -n0);
    const std::ptrdiff_t m_hi = std::min(len + 1, res_n - n0);
    CVec& delta = st.delta;
    delta.resize(static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, m_hi - m_lo)));
    for (std::ptrdiff_t m = m_lo; m < m_hi; ++m) {
      const double t = (static_cast<double>(m) - centre - frac) * ts_up;
      const Complex dv = amp_at_peak * dw::pulse_value(entry.reg, t);
      delta[static_cast<std::size_t>(m - m_lo)] = dv;
      residual[static_cast<std::size_t>(n0 + m)] -= dv;
    }

    // Incremental update: the subtraction only changed residual samples
    // [n0+m_lo, n0+m_hi), so each template's correlation output changes
    // only where its window overlaps that range — a short windowed
    // correlation (O(K L^2) per iteration) instead of K full transforms.
    const double* dd = reinterpret_cast<const double*>(delta.data());
    for (std::size_t i = 0; i < n_shapes; ++i) {
      const auto len_i =
          static_cast<std::ptrdiff_t>(bank.entries[i].length);
      const double* sd = reinterpret_cast<const double*>(
          bank.entries[i].unit_template.data());
      double* yd = reinterpret_cast<double*>(st.ys[i].data());
      const std::ptrdiff_t j_lo =
          std::max<std::ptrdiff_t>(0, n0 + m_lo - len_i + 1);
      const std::ptrdiff_t j_hi = std::min(res_n, n0 + m_hi);
      simd::corr_window_update(yd, dd, sd, j_lo, j_hi, n0 + m_lo, n0 + m_hi,
                               len_i);
#ifndef NDEBUG
      // Debug contract: the incrementally maintained output equals a fresh
      // correlation of the updated residual to floating-point roundoff.
      {
        const CVec ref = bank.entries[i].filter.apply(residual);
        double max_diff = 0.0, ref_peak = 0.0;
        for (std::size_t j = 0; j < kM; ++j) {
          max_diff = std::max(max_diff, std::abs(ref[j] - st.ys[i][j]));
          ref_peak = std::max(ref_peak, std::abs(ref[j]));
        }
        assert(max_diff <= 1e-6 * (1.0 + ref_peak) &&
               "incremental matched-filter update diverged from exact");
      }
#endif
    }
  }

  std::sort(found.begin(), found.end(),
            [](const DetectedResponse& a, const DetectedResponse& b) {
              return a.tau_s < b.tau_s;
            });
  return found;
}

std::vector<DetectedResponse> SearchSubtractDetector::detect_fast(
    const CVec& cir_taps, const TemplateBank& bank, int max_responses) const {
  FastState& st = fast_state();
  prepare_residual(cir_taps, bank, st);
  bank_correlate(bank, st);
  return search_loop(bank, max_responses, st);
}

}  // namespace uwb::ranging
