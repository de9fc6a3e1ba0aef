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
// only perturbs a ~template-length window. The exact reference path, which
// detect_with_trace runs, re-runs every matched filter over the whole
// upsampled grid per iteration and takes its global maximum; both measure
// the noise floor at the native positions, and debug builds assert the
// incremental outputs equal a fresh correlation to roundoff. The two paths
// return the same responses to roundoff (tests/test_fastpath_equivalence).
#pragma once

#include <cstddef>

#include "ranging/detector.hpp"

namespace uwb::ranging {

/// Immutable precomputed state of the detector for one key (shape
/// registers, upsampled sample period, upsampling factor, native
/// correlation length): the template bank, its folded spectra and the FFT
/// plans. Built once per process per key and shared by every detector on
/// every thread; defined in search_subtract.cpp.
struct DetectorPlan;

class SearchSubtractDetector final : public ResponseDetector {
 public:
  explicit SearchSubtractDetector(DetectorConfig config);

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

  /// The plan for CIRs of `cir_len` taps spaced `ts_s`: the one object every
  /// detector of this config resolves, on any thread.
  const DetectorPlan& plan(double ts_s, std::size_t cir_len) const;

  /// Opaque per-CIR working set of the fast path (public only so the
  /// thread-local scratch in the implementation can name it).
  struct FastState;

 private:
  std::vector<DetectedResponse> detect_impl(const CVec& cir_taps, double ts_s,
                                            int max_responses,
                                            DetectionTrace* trace) const;
  std::vector<DetectedResponse> detect_exact(const CVec& cir_taps,
                                             const DetectorPlan& plan,
                                             int max_responses,
                                             DetectionTrace& trace) const;
  std::vector<DetectedResponse> detect_fast(const CVec& cir_taps,
                                            const DetectorPlan& plan,
                                            int max_responses) const;
  // Stages of the fast path, run in order by detect_fast.
  void prepare_residual(const CVec& cir_taps, const DetectorPlan& plan,
                        FastState& st) const;
  void bank_correlate(const DetectorPlan& plan, FastState& st) const;
  std::vector<DetectedResponse> search_loop(const DetectorPlan& plan,
                                            int max_responses,
                                            FastState& st) const;

  DetectorConfig config_;
  // The plan of the last CIR length and sample period detected, re-resolved
  // by plan() when either changes. Plans live until the process exits.
  // Resolving writes this pointer, so one detector serves one thread at a
  // time; detectors of equal config on different threads share the plan.
  mutable const DetectorPlan* plan_ = nullptr;
};

}  // namespace uwb::ranging
