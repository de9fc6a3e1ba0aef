// Response detection interface (paper Sect. IV / VI).
//
// A detector takes the superposed CIR of a concurrent-ranging round and
// extracts the responses of the individual responders: their path delays,
// amplitudes, and — when a pulse-shape bank is configured (Sect. V) — the
// index of the pulse shape each responder transmitted with.
#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "common/types.hpp"

namespace uwb::ranging {

/// One extracted responder response.
struct DetectedResponse {
  /// Peak time relative to the start of the CIR window [s].
  double tau_s = 0.0;
  /// Peak position on the upsampled grid (tau_s / (Ts / upsample_factor)).
  double index_upsampled = 0.0;
  /// Complex amplitude estimate in CIR units.
  Complex amplitude;
  /// Index into DetectorConfig::shape_registers of the best-matching pulse
  /// template; -1 when the detector does not classify shapes.
  int shape_index = -1;
};

struct DetectorConfig {
  /// FFT upsampling factor applied to the CIR (Sect. IV step 1).
  int upsample_factor = 8;
  /// Pulse template bank: TC_PGDELAY values (Sect. V). One entry = plain
  /// detection; multiple entries = joint detection + shape classification.
  std::vector<std::uint8_t> shape_registers{k::tc_pgdelay_default};
  /// Stop when the next peak falls below this multiple of the noise sigma.
  double noise_threshold_factor = 5.0;
  /// ... or below this fraction of the strongest detected peak. The
  /// amplitude-independence requirement (open challenge IV) means this must
  /// stay small; it only rejects pure noise, never weak responders.
  double relative_stop_fraction = 0.02;
  /// Threshold-baseline only: the scan threshold as a fraction of the
  /// strongest CIR tap (combined with the noise floor). This is precisely
  /// the amplitude dependence that makes the baseline fragile (challenge
  /// IV); search-and-subtract ignores it.
  double baseline_relative_threshold = 0.3;
  /// Search-and-subtract only: force the exact reference path that
  /// re-runs every matched filter over the whole upsampled grid each
  /// iteration, instead of the native-rate + incremental-update fast path.
  /// The two paths return the same responses to floating-point roundoff
  /// (tests/test_fastpath_equivalence.cpp); the flag exists as a fallback
  /// and for equivalence testing.
  bool exact_recompute = false;
};

/// Common interface so benches can swap search-and-subtract against the
/// threshold baseline on identical CIRs.
class ResponseDetector {
 public:
  virtual ~ResponseDetector() = default;

  /// Extract up to `max_responses` responses from `cir_taps` (spacing
  /// `ts_s`). Results are sorted by ascending tau (paper step 7).
  virtual std::vector<DetectedResponse> detect(const CVec& cir_taps,
                                               double ts_s,
                                               int max_responses) const = 0;
};

}  // namespace uwb::ranging
