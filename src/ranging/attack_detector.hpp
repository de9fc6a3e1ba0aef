// Attack detection for concurrent ranging (robustness extension).
//
// Cross-checks the quantities a single round already produces — the CFO
// estimate, the responder-reported reply interval, the superposed CIR, and
// the decoded slot/shape IDs — for the internal inconsistencies the
// src/fault/attack.hpp adversary model leaves behind:
//
//   check            attack caught                  physical invariant
//   ---------------  -----------------------------  ---------------------------
//   cfo_implausible  clock-skew carrier overshoot   crystals are < ~10 ppm off
//   reply_schedule   forged reply timestamp         Delta_RESP is programmed,
//                                                   off only by TX quantisation
//   ghost_tail       early ghost CIR peak           a real first path drags a
//                                                   multipath tail behind it
//   unknown_id       replayed shapes (in- and       decoded IDs come from the
//                    out-of-bank) flipping the      deployed responder set
//                    decoded ID
//
// Every verdict names the responder it indicts, the check that fired, and
// the metric-vs-threshold pair behind it, and is mirrored into the flight
// recorder (kind=verdict on the sync frame's chain) so
// tools/explain_session.py can narrate which check caught which attack.
//
// Thresholds are calibrated against the benign fault plans of
// bench_ext_fault_sweep (up to 30 % loss): a benign sweep must produce zero
// verdicts — enforced by bench_ext_adversarial's benign_false_positive_rate
// gate. Calibration data (200 benign office rounds, strong peaks only):
// tail ratios in the 3..20 ns window never fell below 0.0255; ghost taps
// at >= 20 ns effective separation sit at 0.003..0.019. Best-template
// correlations and margins, by contrast, overlap completely between benign
// and forged pulses (DW1000 TC_PGDELAY shapes are too similar under
// multipath), so there is no shape check: replay forgeries are caught by
// the unknown-ID check instead, because the forged shape flips the decoded
// (slot, shape) ID out of the deployed set.
// There is deliberately no duplicate-ID check: a multipath reflection of a
// nearby responder landing in its own slot decodes to the same ID and
// would indict an honest node.
#pragma once

#include <set>
#include <vector>

#include "common/types.hpp"
#include "dw1000/cir.hpp"
#include "ranging/protocol.hpp"

namespace uwb::ranging {

/// Which cross-check indicted the responder.
enum class AttackCheck : std::uint8_t {
  kCfoImplausible,
  kReplySchedule,
  kGhostTail,
  kUnknownId,
};

/// Stable reason-code string ("cfo_implausible", ...) — also the flight
/// recorder event detail.
const char* to_string(AttackCheck check);

/// One indictment: responder, check, and the evidence behind it.
struct AttackVerdict {
  /// Indicted responder (-1 when the response decoded to no known ID).
  int responder_id = -1;
  AttackCheck check = AttackCheck::kCfoImplausible;
  /// Observed value of the checked quantity.
  double metric = 0.0;
  /// Threshold it violated.
  double threshold = 0.0;
  /// CIR peak time of the offending response [s]; 0 for round-level checks
  /// (CFO, reply schedule).
  double tau_s = 0.0;
};

/// The thresholds of the reply-schedule, ghost-tail and unknown-ID checks
/// are constants of attack_detector.cpp.
struct AttackDetectorConfig {
  bool enabled = false;
  /// Max plausible |CFO| [ppm]. Crystal spec is +-10 ppm; two honest 1 ppm
  /// sigma crystals differ by ~1.4 ppm sigma, so 8 ppm is > 5 sigma benign.
  double cfo_max_ppm = 8.0;

  void validate() const;
};

/// Everything of one decoded round the detector looks at. All pointers are
/// non-owning and must outlive detect(). `estimates` must be the
/// uncollapsed interpret_responses() output: one entry per detection, same
/// order.
struct RoundView {
  /// Receiver CFO estimate for the sync frame [ppm].
  double cfo_ppm = 0.0;
  /// Responder-reported reply interval (t_tx_resp - t_rx_resp) [s].
  double reply_s = 0.0;
  /// Reply interval the protocol programmed for the sync responder [s]
  /// (response delay + its RPM slot offset).
  double programmed_reply_s = 0.0;
  int sync_responder_id = -1;
  const dw::CirEstimate* cir = nullptr;
  const std::vector<DetectedResponse>* detections = nullptr;
  const std::vector<ResponderEstimate>* estimates = nullptr;
  /// Deployed responder IDs (the unknown_id check's ground set).
  const std::set<int>* configured_ids = nullptr;
};

class AttackDetector {
 public:
  explicit AttackDetector(AttackDetectorConfig config);

  const AttackDetectorConfig& config() const { return config_; }

  /// Run every check against one decoded round. Emits one flight-recorder
  /// kVerdict event per verdict (call inside the sync frame's chain scope).
  std::vector<AttackVerdict> detect(const RoundView& round) const;

  /// Energy in (tau+gap .. tau+window] relative to the peak's own energy
  /// (helper, exposed for tests and threshold calibration).
  static double tail_energy_ratio(const CVec& cir_taps, double ts_s,
                                  double tau_s, double gap_s, double window_s);

 private:
  AttackDetectorConfig config_;
};

}  // namespace uwb::ranging
