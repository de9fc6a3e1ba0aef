// Search-and-subtract response detection (paper Sect. IV, after Falsi et al.).
//
// Per iteration: matched-filter the residual with every template of the
// bank, take the global maximum over templates and positions (that template
// is the classified pulse shape, Sect. V), estimate the amplitude from the
// filter output at the peak (the paper's low-complexity replacement for the
// least-squares solve), subtract the estimated response, and repeat until
// the requested number of responses is found or the residual hits the noise
// floor. Detection is amplitude-independent: responses are accepted by rank,
// not by absolute power bounds (open challenge IV).
//
// Two equivalent execution paths (DESIGN.md Sect. 8). The default fast path
// keeps each template's correlation with the upsampled residual only at the
// native-rate positions (every F-th sample: one n-point transform per
// template of the CIR spectrum against the template's folded spectrum),
// takes as candidates the native samples within a shape-dependent share
// of the native maximum, and evaluates the upsampled grid by direct dot
// products only within F - 1 samples of a candidate. After each
// subtraction it patches the native outputs incrementally — a subtraction
// only perturbs a ~template-length window. The exact reference path (DetectorConfig::exact_recompute, and
// always used when tracing) re-runs every matched filter over the whole
// upsampled grid per iteration and takes its global maximum; both measure
// the noise floor at the native positions, and debug builds assert the
// incremental outputs equal a fresh correlation to roundoff.
#pragma once

#include <cstddef>
#include <memory>

#include "ranging/detector.hpp"

namespace uwb::ranging {

class SearchSubtractDetector final : public ResponseDetector {
 public:
  explicit SearchSubtractDetector(DetectorConfig config);
  ~SearchSubtractDetector() override;

  SearchSubtractDetector(SearchSubtractDetector&&) noexcept;
  SearchSubtractDetector& operator=(SearchSubtractDetector&&) noexcept;

  std::vector<DetectedResponse> detect(const CVec& cir_taps, double ts_s,
                                       int max_responses) const override;

  /// Per-iteration record of the algorithm for visualisation (Fig. 4):
  /// the matched-filter output of the residual before each subtraction.
  struct DetectionTrace {
    std::vector<DetectedResponse> responses;
    /// |y| of the winning template per iteration (upsampled grid).
    std::vector<CVec> mf_outputs;
    double ts_up = 0.0;
  };

  /// Like detect(), additionally recording the intermediate filter outputs.
  /// Tracing always runs the exact full-recompute path (the trace *is* the
  /// per-iteration filter output of the paper's algorithm).
  DetectionTrace detect_with_trace(const CVec& cir_taps, double ts_s,
                                   int max_responses) const;

  /// Matched-filter output of template `shape_index` over the (upsampled)
  /// CIR — exposed for visualisation benches (paper Fig. 4b/6b).
  CVec matched_filter_output(const CVec& cir_taps, double ts_s,
                             int shape_index) const;

  const DetectorConfig& config() const { return config_; }

  /// Hit/miss counters of the calling thread's template-bank cache.
  struct BankCacheStats {
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  static BankCacheStats bank_cache_stats();

  /// Process-wide bank-cache counters aggregated over every thread (what
  /// the bench JSON reports; worker-thread caches are invisible to the
  /// main thread otherwise).
  static BankCacheStats bank_cache_stats_total();

  /// Drop the calling thread's cached banks (tests / memory pressure).
  static void clear_bank_cache();

  /// Opaque precomputed template bank (public only so the thread-local
  /// bank cache in the implementation can name it).
  struct TemplateBank;

  /// Opaque per-CIR working set of the fast path (public only so the
  /// thread-local scratch in the implementation can name it).
  struct FastState;

 private:
  const TemplateBank& bank_for(double ts_s, std::size_t cir_len) const;
  std::vector<DetectedResponse> detect_impl(const CVec& cir_taps, double ts_s,
                                            int max_responses,
                                            DetectionTrace* trace) const;
  std::vector<DetectedResponse> detect_exact(const CVec& cir_taps,
                                             const TemplateBank& bank,
                                             int max_responses,
                                             DetectionTrace* trace) const;
  std::vector<DetectedResponse> detect_fast(const CVec& cir_taps,
                                            const TemplateBank& bank,
                                            int max_responses) const;
  // Stages of the fast path, run in order by detect_fast.
  void prepare_residual(const CVec& cir_taps, const TemplateBank& bank,
                        FastState& st) const;
  void bank_correlate(const TemplateBank& bank, FastState& st) const;
  std::vector<DetectedResponse> search_loop(const TemplateBank& bank,
                                            int max_responses,
                                            FastState& st) const;

  DetectorConfig config_;
  // Handle into the thread-local template-bank cache (lazily resolved; all
  // detectors on one thread with the same shape bank and sample period
  // share one bank, so per-trial detector construction in the Monte-Carlo
  // harnesses stops rebuilding templates and filter spectra). Banks are
  // never shared across threads — a detector must only be used on the
  // thread that first called detect() on it, which was already required by
  // the lazily-built matched-filter spectra.
  mutable std::shared_ptr<const TemplateBank> bank_;
};

}  // namespace uwb::ranging
