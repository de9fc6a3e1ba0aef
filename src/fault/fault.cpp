#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace uwb::fault {

namespace {
bool is_prob(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

bool FaultPlan::active() const {
  return preamble_miss_prob > 0.0 || crc_error_prob > 0.0 ||
         late_tx_abort_prob > 0.0 || dropout_prob > 0.0 ||
         reply_jitter_sigma_s > 0.0 || drift_step_prob > 0.0 ||
         epoch_jump_prob > 0.0;
}

void FaultPlan::validate() const {
  UWB_EXPECTS(is_prob(preamble_miss_prob));
  UWB_EXPECTS(is_prob(crc_error_prob));
  UWB_EXPECTS(is_prob(late_tx_abort_prob));
  UWB_EXPECTS(is_prob(dropout_prob));
  UWB_EXPECTS(is_prob(drift_step_prob));
  UWB_EXPECTS(is_prob(epoch_jump_prob));
  UWB_EXPECTS(preamble_snr_exponent >= 0.0);
  UWB_EXPECTS(preamble_snr_ref_amp > 0.0);
  UWB_EXPECTS(reply_jitter_sigma_s >= 0.0);
  UWB_EXPECTS(dropout_rounds_min >= 1);
  UWB_EXPECTS(dropout_rounds_max >= dropout_rounds_min);
  UWB_EXPECTS(drift_step_sigma_ppm >= 0.0);
  UWB_EXPECTS(epoch_jump_max_s >= 0.0);
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t stream_seed)
    : plan_(plan), stream_base_(stream_seed) {
  plan_.validate();
  active_ = plan_.active();
}

FaultInjector::NodeState& FaultInjector::state(int node_id) {
  auto it = states_.find(node_id);
  if (it == states_.end()) {
    const StreamSeed seed = derive_seed(
        stream_base_,
        static_cast<std::uint64_t>(static_cast<std::int64_t>(node_id)));
    it = states_.emplace(node_id, NodeState(seed)).first;
  }
  return it->second;
}

void FaultInjector::begin_round() {
  if (!active_) return;
  ++round_;
  for (auto& [id, st] : states_) {
    (void)id;
    if (st.mute_rounds_left > 0) --st.mute_rounds_left;
  }
}

bool FaultInjector::miss_preamble(int rx_node_id, double first_path_amplitude,
                                  std::uint64_t chain) {
  if (!active_ || plan_.preamble_miss_prob <= 0.0) return false;
  double p = plan_.preamble_miss_prob;
  if (plan_.preamble_snr_exponent > 0.0 && first_path_amplitude > 0.0) {
    p *= std::pow(plan_.preamble_snr_ref_amp / first_path_amplitude,
                  plan_.preamble_snr_exponent);
    p = std::clamp(p, 0.0, 1.0);
  }
  if (!state(rx_node_id).rng.chance(p)) return false;
  ++counters_.preamble_miss;
  UWB_OBS_COUNT("fault_injected_preamble_miss", 1);
  UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "preamble_miss",
               .chain = chain, .node = rx_node_id,
               .v0 = {"first_path_amp", first_path_amplitude},
               .v1 = {"miss_prob", p});
  return true;
}

bool FaultInjector::corrupt_crc(int rx_node_id, std::uint64_t chain) {
  if (!active_ || plan_.crc_error_prob <= 0.0) return false;
  if (!state(rx_node_id).rng.chance(plan_.crc_error_prob)) return false;
  ++counters_.crc_error;
  UWB_OBS_COUNT("fault_injected_crc_error", 1);
  UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "crc_error",
               .chain = chain, .node = rx_node_id);
  return true;
}

bool FaultInjector::abort_delayed_tx(int tx_node_id) {
  if (!active_ || plan_.late_tx_abort_prob <= 0.0) return false;
  if (!state(tx_node_id).rng.chance(plan_.late_tx_abort_prob)) return false;
  ++counters_.late_tx_abort;
  UWB_OBS_COUNT("fault_injected_late_tx_abort", 1);
  // Chain comes from the recorder context: the session arms the delayed TX
  // inside the chain scope of the frame being answered.
  UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "late_tx_abort",
               .node = tx_node_id);
  return true;
}

bool FaultInjector::responder_muted(int node_id) {
  if (!active_ || plan_.dropout_prob <= 0.0) return false;
  NodeState& st = state(node_id);
  if (st.mute_drawn_round != round_) {
    st.mute_drawn_round = round_;
    if (st.mute_rounds_left == 0 && st.rng.chance(plan_.dropout_prob)) {
      st.mute_rounds_left = static_cast<int>(st.rng.uniform_int(
          plan_.dropout_rounds_min, plan_.dropout_rounds_max));
    }
    if (st.mute_rounds_left > 0) {
      ++counters_.dropout_rounds;
      UWB_OBS_COUNT("fault_injected_dropout_round", 1);
      UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "dropout_mute",
                   .node = node_id,
                   .v0 = {"rounds_left",
                          static_cast<double>(st.mute_rounds_left)});
    }
  }
  return st.mute_rounds_left > 0;
}

double FaultInjector::reply_jitter_s(int node_id) {
  if (!active_ || plan_.reply_jitter_sigma_s <= 0.0) return 0.0;
  const double jitter = state(node_id).rng.normal(0.0, plan_.reply_jitter_sigma_s);
  if (jitter != 0.0) {
    UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "reply_jitter",
                 .node = node_id, .v0 = {"jitter_s", jitter});
  }
  return jitter;
}

FaultInjector::ClockGlitch FaultInjector::clock_glitch(int node_id) {
  ClockGlitch g;
  if (!active_) return g;
  if (plan_.drift_step_prob > 0.0) {
    NodeState& st = state(node_id);
    if (st.rng.chance(plan_.drift_step_prob)) {
      g.drift_step_ppm = st.rng.normal(0.0, plan_.drift_step_sigma_ppm);
      ++counters_.clock_drift_step;
      UWB_OBS_COUNT("fault_injected_clock_drift_step", 1);
      UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "clock_drift_step",
                   .node = node_id, .v0 = {"step_ppm", g.drift_step_ppm});
    }
  }
  if (plan_.epoch_jump_prob > 0.0) {
    NodeState& st = state(node_id);
    if (st.rng.chance(plan_.epoch_jump_prob)) {
      g.epoch_jump_s =
          st.rng.uniform(-plan_.epoch_jump_max_s, plan_.epoch_jump_max_s);
      ++counters_.clock_epoch_jump;
      UWB_OBS_COUNT("fault_injected_clock_epoch_jump", 1);
      UWB_FR_EVENT(.kind = obs::FrKind::kFault, .name = "clock_epoch_jump",
                   .node = node_id, .v0 = {"jump_s", g.epoch_jump_s});
    }
  }
  return g;
}

}  // namespace uwb::fault
