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
};

namespace detail {
/// Throws PreconditionError on an out-of-range config (detector.cpp).
void validate_detector_config(const DetectorConfig& cfg);
/// `cir_taps` zero-padded to a power of two and FFT-upsampled by `factor`
/// (search_subtract.cpp).
CVec upsample_padded(const CVec& cir_taps, int factor);
}  // namespace detail

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
