#include "ranging/protocol.hpp"

#include <cmath>
#include <map>

#include "common/expects.hpp"

namespace uwb::ranging {

DetectorConfig ConcurrentRangingConfig::detector_config() const {
  DetectorConfig det = detector;
  det.shape_registers = shape_registers;
  return det;
}

void ConcurrentRangingConfig::validate() const {
  UWB_EXPECTS(response_delay_s > 0.0);
  UWB_EXPECTS(num_slots >= 1);
  UWB_EXPECTS(num_slots == 1 || slot_spacing_s > 0.0);
  UWB_EXPECTS(!shape_registers.empty());
}

SlotAssignment assign_responder(int responder_id,
                                const ConcurrentRangingConfig& config) {
  config.validate();
  UWB_EXPECTS(responder_id >= 0);
  // IDs beyond max_responders() alias onto slot/shape pairs — the system
  // keeps working but such responders are no longer uniquely identifiable.
  SlotAssignment a;
  a.slot = responder_id % config.num_slots;
  a.shape_index = (responder_id / config.num_slots) % config.num_pulse_shapes();
  a.shape_register =
      config.shape_registers[static_cast<std::size_t>(a.shape_index)];
  a.extra_delay_s = config.num_slots > 1
                        ? static_cast<double>(a.slot) * config.slot_spacing_s
                        : 0.0;
  return a;
}

int responder_id_from(int slot, int shape_index,
                      const ConcurrentRangingConfig& config) {
  UWB_EXPECTS(slot >= 0 && slot < config.num_slots);
  UWB_EXPECTS(shape_index >= 0 && shape_index < config.num_pulse_shapes());
  return shape_index * config.num_slots + slot;
}

std::vector<ResponderEstimate> interpret_responses(
    const std::vector<DetectedResponse>& detections,
    const ConcurrentRangingConfig& config, double d_twr_m, int sync_slot) {
  config.validate();
  std::vector<ResponderEstimate> out;
  if (detections.empty()) return out;
  const double tau_first = detections.front().tau_s;

  for (const DetectedResponse& det : detections) {
    ResponderEstimate est;
    est.tau_rel_s = det.tau_s - tau_first;
    est.amplitude = std::abs(det.amplitude);
    est.shape_index = det.shape_index;

    // Slot decode: responses are spread by multiples of the slot spacing;
    // the nearest multiple gives the slot offset from the sync responder.
    int rel_slots = 0;
    if (config.num_slots > 1) {
      rel_slots = static_cast<int>(
          std::lround(est.tau_rel_s / config.slot_spacing_s));
    }
    est.slot = sync_slot + rel_slots;

    // Eq. 4 with the slot delay removed; CIR delay differences cover both
    // the INIT and RESP legs, so they are halved — the artificial slot
    // delay appears only once and is subtracted whole.
    const double residual_s =
        est.tau_rel_s -
        static_cast<double>(rel_slots) * config.slot_spacing_s;
    est.distance_m = d_twr_m + k::c_air * residual_s / 2.0;

    // With a single-template bank the detector reports no shape; the shape
    // index is then trivially 0 and IDs can still be decoded from slots.
    const int shape = est.shape_index >= 0
                          ? est.shape_index
                          : (config.num_pulse_shapes() == 1 ? 0 : -1);
    if (est.slot >= 0 && est.slot < config.num_slots && shape >= 0)
      est.responder_id = responder_id_from(est.slot, shape, config);
    out.push_back(est);
  }
  return out;
}

std::vector<ResponderEstimate> select_slot_responses(
    const std::vector<ResponderEstimate>& estimates,
    const ConcurrentRangingConfig& config) {
  config.validate();
  // For each decoded ID choose a representative: the earliest estimate whose
  // amplitude is within 6 dB (factor 2) of the strongest for that ID. This
  // keeps the direct path rather than a stronger-but-later reflection, and
  // rather than a weak precursor noise blip.
  std::map<int, double> strongest;
  for (const ResponderEstimate& est : estimates) {
    if (est.responder_id < 0) continue;
    auto [it, inserted] = strongest.emplace(est.responder_id, est.amplitude);
    if (!inserted) it->second = std::max(it->second, est.amplitude);
  }
  std::map<int, const ResponderEstimate*> chosen;
  for (const ResponderEstimate& est : estimates) {
    if (est.responder_id < 0) continue;
    if (est.amplitude < 0.5 * strongest.at(est.responder_id)) continue;
    chosen.emplace(est.responder_id, &est);  // first qualifying = earliest
  }
  std::vector<ResponderEstimate> out;
  for (const ResponderEstimate& est : estimates) {
    if (est.responder_id < 0) {
      out.push_back(est);
      continue;
    }
    const auto it = chosen.find(est.responder_id);
    if (it != chosen.end() && it->second == &est) out.push_back(est);
  }
  return out;
}

}  // namespace uwb::ranging
