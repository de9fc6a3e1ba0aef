// Concurrent-ranging protocol configuration, the combined response-position-
// modulation / pulse-shaping assignment (paper Sect. VII/VIII), and the
// interpretation of detected responses into per-responder distances.
//
// Assignment (Fig. 8): responder ID -> slot = ID % N_RPM and pulse shape
// = floor(ID / N_RPM). (The paper prints n_PS = floor(ID / N_PS), which is
// out of range for ID >= N_PS^2 and inconsistent with its own Fig. 8; the
// form used here is the unique bijection on ID < N_RPM * N_PS consistent
// with the figure — see DESIGN.md.)
#pragma once

#include <cstdint>
#include <vector>

#include "common/constants.hpp"
#include "ranging/detector.hpp"

namespace uwb::ranging {

struct ConcurrentRangingConfig {
  /// Response delay Delta_RESP (paper: 290 us, covering the 178.5 us
  /// minimum plus the <100 us RX/TX turnaround and a safety gap).
  double response_delay_s = 290e-6;
  /// Number of response-position-modulation slots N_RPM (1 = RPM off).
  int num_slots = 1;
  /// Slot separation delta [s] (ignored when num_slots == 1).
  double slot_spacing_s = 0.0;
  /// Pulse-shape bank s_i (N_PS = size). One entry = anonymous ranging.
  std::vector<std::uint8_t> shape_registers{k::tc_pgdelay_default};
  /// Detector settings (shape_registers is mirrored into the detector by
  /// detector_config()).
  DetectorConfig detector;

  int num_pulse_shapes() const { return static_cast<int>(shape_registers.size()); }
  int max_responders() const { return num_slots * num_pulse_shapes(); }
  /// `detector` with this bank's shape_registers: what the sessions detect
  /// with.
  DetectorConfig detector_config() const;
  void validate() const;
};

/// Slot + pulse shape derived from a responder ID.
struct SlotAssignment {
  int slot = 0;
  int shape_index = 0;
  std::uint8_t shape_register = k::tc_pgdelay_default;
  /// Additional response delay delta_i = slot * delta.
  double extra_delay_s = 0.0;
};

/// Assignment for `responder_id` in [0, max_responders()).
SlotAssignment assign_responder(int responder_id,
                                const ConcurrentRangingConfig& config);

/// Inverse: responder ID from a decoded slot and shape index.
int responder_id_from(int slot, int shape_index,
                      const ConcurrentRangingConfig& config);

/// One responder's interpreted measurement.
struct ResponderEstimate {
  /// Estimated distance initiator -> responder [m] (Eq. 4, slot-corrected).
  double distance_m = 0.0;
  /// Decoded RPM slot (0 when RPM is off).
  int slot = 0;
  /// Classified pulse-shape index (-1 when shaping is off).
  int shape_index = -1;
  /// Decoded responder ID (-1 when anonymous).
  int responder_id = -1;
  /// Detected amplitude magnitude.
  double amplitude = 0.0;
  /// Raw peak delay relative to the first detected response [s].
  double tau_rel_s = 0.0;
};

/// Turn detector output (ascending tau) into distances: the first response
/// belongs to the decoded (sync) responder at distance d_twr; later peaks
/// are slot-decoded relative to it and mapped through Eq. 4. `sync_slot` is
/// the slot of the decoded responder (0 in the canonical deployment).
std::vector<ResponderEstimate> interpret_responses(
    const std::vector<DetectedResponse>& detections,
    const ConcurrentRangingConfig& config, double d_twr_m, int sync_slot = 0);

/// Slot-aware selection (extension): when several interpreted responses
/// decode to the same responder ID — e.g. a multipath component of a nearby
/// responder landing in the same slot — keep only the *earliest* of the
/// strongest cluster per ID (the direct path precedes its reflections).
/// Estimates without an ID pass through unchanged. Order is preserved.
std::vector<ResponderEstimate> select_slot_responses(
    const std::vector<ResponderEstimate>& estimates,
    const ConcurrentRangingConfig& config);

}  // namespace uwb::ranging
