#include "fault/attack.hpp"

#include <algorithm>
#include <set>

#include "common/expects.hpp"
#include "common/random.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace uwb::fault {

namespace {
/// Spacing of a ghost pulse train [s]: each further tap lands this much
/// later, walking back from ghost_advance_s.
constexpr double kGhostSpacingS = 1e-9;

bool is_prob(double p) { return p >= 0.0 && p <= 1.0; }

/// Stream lane of one receiver inside a frame's ghost seed space.
std::uint64_t rx_lane(int rx_node_id) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx_node_id));
}
}  // namespace

const char* to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kClockSkew: return "clock_skew";
    case AttackKind::kGhostPeak: return "ghost_peak";
    case AttackKind::kShapeReplay: return "shape_replay";
  }
  return "unknown";
}

bool AttackSpec::active() const {
  switch (kind) {
    case AttackKind::kClockSkew:
      return cfo_spoof_ppm != 0.0 || cfo_ramp_ppm_per_round != 0.0 ||
             reply_bias_s != 0.0;
    case AttackKind::kGhostPeak:
      return probability > 0.0 && ghost_rel_amplitude > 0.0 &&
             ghost_count > 0;
    case AttackKind::kShapeReplay:
      return probability > 0.0 && forged_shape_register >= 0;
  }
  return false;
}

void AttackSpec::validate() const {
  UWB_EXPECTS(attacker_id >= 0 && attacker_id <= 255);
  UWB_EXPECTS(is_prob(probability));
  UWB_EXPECTS(ghost_advance_s >= 0.0);
  UWB_EXPECTS(ghost_rel_amplitude >= 0.0);
  UWB_EXPECTS(ghost_count >= 0);
  UWB_EXPECTS(forged_shape_register >= -1 && forged_shape_register <= 255);
}

bool AttackPlan::active() const {
  return std::any_of(specs.begin(), specs.end(),
                     [](const AttackSpec& s) { return s.active(); });
}

void AttackPlan::validate() const {
  std::set<int> ids;
  for (const AttackSpec& s : specs) {
    s.validate();
    UWB_EXPECTS(ids.insert(s.attacker_id).second);  // one spec per attacker
  }
}

AttackInjector::AttackInjector(AttackPlan plan, std::uint64_t stream_seed)
    : plan_(std::move(plan)), stream_base_(stream_seed) {
  plan_.validate();
  active_ = plan_.active();
  for (std::size_t i = 0; i < plan_.specs.size(); ++i)
    if (plan_.specs[i].active())
      spec_index_.emplace(plan_.specs[i].attacker_id, i);
}

std::uint64_t AttackInjector::attacker_stream(int attacker_id) const {
  return derive_seed(stream_base_, static_cast<std::uint64_t>(
                                       static_cast<std::int64_t>(attacker_id)));
}

const AttackSpec* AttackInjector::spec(int node_id) const {
  const auto it = spec_index_.find(node_id);
  return it == spec_index_.end() ? nullptr : &plan_.specs[it->second];
}

bool AttackInjector::frame_selected(const AttackSpec& s,
                                    std::uint64_t chain) const {
  if (s.probability >= 1.0) return true;
  // Stateless per-frame decision: every hook invocation for this frame
  // (and every receiver) agrees, independent of culling and thread count.
  Rng rng(derive_seed(attacker_stream(s.attacker_id), chain));
  return rng.chance(s.probability);
}

void AttackInjector::begin_round() {
  if (!active_) return;
  ++round_;
}

double AttackInjector::cfo_spoof_ppm(int tx_node_id, std::uint64_t chain) {
  if (!active_) return 0.0;
  const AttackSpec* s = spec(tx_node_id);
  if (s == nullptr || s->kind != AttackKind::kClockSkew) return 0.0;
  const double rounds = round_ > 0 ? static_cast<double>(round_ - 1) : 0.0;
  const double spoof = s->cfo_spoof_ppm + s->cfo_ramp_ppm_per_round * rounds;
  if (spoof == 0.0) return 0.0;
  ++counters_.cfo_spoofed_frames;
  UWB_OBS_COUNT("attack_injected_cfo_spoof", 1);
  UWB_FR_EVENT(.kind = obs::FrKind::kAttack, .name = "cfo_spoof",
               .chain = chain, .node = tx_node_id,
               .v0 = {"spoof_ppm", spoof},
               .v1 = {"round", static_cast<double>(round_)});
  return spoof;
}

int AttackInjector::forged_shape_register(int tx_node_id,
                                          std::uint64_t chain) {
  if (!active_) return -1;
  const AttackSpec* s = spec(tx_node_id);
  if (s == nullptr || s->kind != AttackKind::kShapeReplay ||
      s->forged_shape_register < 0)
    return -1;
  if (!frame_selected(*s, chain)) return -1;
  ++counters_.forged_shapes;
  UWB_OBS_COUNT("attack_injected_shape_replay", 1);
  UWB_FR_EVENT(.kind = obs::FrKind::kAttack, .name = "shape_replay",
               .chain = chain, .node = tx_node_id,
               .v0 = {"forged_register",
                      static_cast<double>(s->forged_shape_register)});
  return s->forged_shape_register;
}

double AttackInjector::reply_timestamp_bias_s(int responder_id) {
  if (!active_) return 0.0;
  const AttackSpec* s = spec(responder_id);
  if (s == nullptr || s->kind != AttackKind::kClockSkew ||
      s->reply_bias_s == 0.0)
    return 0.0;
  ++counters_.biased_replies;
  UWB_OBS_COUNT("attack_injected_reply_bias", 1);
  // Chain comes from the recorder context: the session arms the reply
  // inside the chain scope of the INIT frame being answered.
  UWB_FR_EVENT(.kind = obs::FrKind::kAttack, .name = "reply_bias",
               .node = responder_id, .v0 = {"bias_s", s->reply_bias_s});
  return s->reply_bias_s;
}

void AttackInjector::ghost_taps(int tx_node_id, int rx_node_id,
                                std::uint64_t chain,
                                double first_path_delay_s,
                                double first_path_amplitude,
                                std::vector<GhostTap>& out) {
  if (!active_) return;
  const AttackSpec* s = spec(tx_node_id);
  if (s == nullptr || s->kind != AttackKind::kGhostPeak || !s->active())
    return;
  if (!frame_selected(*s, chain)) return;
  // Per-(frame, receiver) phase stream: delivery order cannot matter.
  Rng rng(derive_seed(derive_seed(attacker_stream(tx_node_id), chain),
                      rx_lane(rx_node_id)));
  const double amp = s->ghost_rel_amplitude * first_path_amplitude;
  out.reserve(out.size() + static_cast<std::size_t>(s->ghost_count));
  for (int i = 0; i < s->ghost_count; ++i) {
    GhostTap tap;
    tap.delay_s = std::max(
        0.0, first_path_delay_s - s->ghost_advance_s +
                 static_cast<double>(i) * kGhostSpacingS);
    tap.amplitude = amp * rng.random_phase();
    out.push_back(tap);
    ++counters_.ghost_taps;
  }
  UWB_OBS_COUNT("attack_injected_ghost_taps",
                static_cast<std::uint64_t>(s->ghost_count));
  UWB_FR_EVENT(.kind = obs::FrKind::kAttack, .name = "ghost_taps",
               .chain = chain, .node = tx_node_id, .peer = rx_node_id,
               .v0 = {"advance_s", s->ghost_advance_s},
               .v1 = {"rel_amplitude", s->ghost_rel_amplitude},
               .v2 = {"count", static_cast<double>(s->ghost_count)});
}

}  // namespace uwb::fault
