#include "sim/medium.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "sim/node.hpp"

namespace uwb::sim {

namespace {

/// Stream index of one directed link inside a frame's seed space: the two
/// node ids packed into disjoint 32-bit lanes.
std::uint64_t link_stream(int tx_node_id, int rx_node_id) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx_node_id))
          << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx_node_id));
}

}  // namespace

Medium::Medium(Simulator& simulator, channel::ChannelModel model,
               MediumParams params, Rng rng)
    : sim_(simulator), model_(std::move(model)), params_(params) {
  UWB_EXPECTS(params.detection_threshold_amp >= 0.0);
  // One draw anchors the whole per-(link, frame) seed hierarchy; the Rng
  // itself is not kept, so no shared mutable stream survives construction.
  channel_stream_base_ = rng.engine()();
  interference_radius_m_ =
      model_
          .max_detectable_range(params_.detection_threshold_amp,
                                params_.range_margin_db)
          .value();
}

bool Medium::culling_active() const {
  return params_.culling_enabled && std::isfinite(interference_radius_m_) &&
         interference_radius_m_ > 0.0;
}

void Medium::register_node(Node& node) {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), node.id(),
      [](const Node* n, int id) { return n->id() < id; });
  UWB_EXPECTS(it == nodes_.end() || (*it)->id() != node.id());  // unique ids
  nodes_.insert(it, &node);
  spatial_dirty_ = true;
}

void Medium::ensure_spatial_index() {
  if (!spatial_dirty_) return;
  spatial_dirty_ = false;
  if (!culling_active()) {
    grid_ = geom::UniformGrid{};
    return;
  }
  std::vector<geom::Vec2> positions;
  positions.reserve(nodes_.size());
  for (const Node* n : nodes_) positions.push_back(n->position());
  grid_ = geom::UniformGrid(positions, interference_radius_m_);
}

const geom::UniformGrid& Medium::spatial_index() {
  ensure_spatial_index();
  return grid_;
}

CellTraffic& Medium::cell_traffic_entry(geom::CellKey key) {
  auto it = std::lower_bound(
      cell_traffic_.begin(), cell_traffic_.end(), key,
      [](const CellTraffic& c, geom::CellKey k) { return c.key < k; });
  if (it == cell_traffic_.end() || it->key != key) {
    it = cell_traffic_.insert(it, CellTraffic{key, 0, 0});
  }
  return *it;
}

// uwb-hot-path: runs once per (tx, rx) pair within the interference radius
// per frame — the medium's fan-out loop is the scale bottleneck
// (bench_ext_scale).
Medium::DeliverOutcome Medium::deliver(
    Node& rx, int tx_node_id, geom::Vec2 tx_pos, std::uint64_t frame_seed,
    const dw::MacFrame& frame, std::uint8_t tc_pgdelay, SimTime preamble_start,
    SimTime shr_sim, SimTime frame_sim, double tx_drift_ppm,
    fault::FaultInjector* injector, fault::AttackInjector* attack) {
  // Independent stream per (link, frame): the draw sequence of this link
  // cannot depend on which other receivers were realized before it.
  Rng link_rng(derive_seed(frame_seed, link_stream(tx_node_id, rx.id())));
  channel::SpecularStage stage =
      model_.realize_specular(tx_pos, rx.position(), link_rng);
  ++stats_.channels_realized;

  // Eq. 1 detectability: the preamble detector locks to a deterministic
  // component, so the specular taps alone decide whether the frame is out
  // of range — before the diffuse tail is drawn — and where it locks: the
  // earliest tap strong enough, the first in image-source order on a tie.
  double strongest_amp = 0.0;
  const channel::Tap* first = nullptr;
  for (const channel::Tap& tap : stage.channel.taps) {
    const double amp = std::abs(tap.amplitude);
    strongest_amp = std::max(strongest_amp, amp);
    if (amp >= params_.detection_threshold_amp &&
        (first == nullptr || tap.delay_s < first->delay_s))
      first = &tap;
  }
  if (first == nullptr) {
    ++stats_.below_threshold;
    UWB_FR_EVENT(.kind = obs::FrKind::kChannel, .name = "below_threshold",
                 .chain = frame_seed, .t_ps = preamble_start.ps(),
                 .node = rx.id(), .peer = tx_node_id,
                 .v0 = {"strongest_amp", strongest_amp},
                 .v1 = {"threshold_amp", params_.detection_threshold_amp});
    return DeliverOutcome::kBelowThreshold;
  }

  AirFrame af;
  af.tx_node_id = tx_node_id;
  af.chain = frame_seed;
  af.frame = frame;
  af.tc_pgdelay = tc_pgdelay;
  af.tx_drift_ppm = tx_drift_ppm;
  af.first_detectable_delay = Seconds(first->delay_s);
  af.first_path_amplitude = std::abs(first->amplitude);
  af.preamble_start_arrival =
      preamble_start + SimTime::from_seconds(first->delay_s);
  af.rmarker_arrival = af.preamble_start_arrival + shr_sim;
  af.frame_end_arrival = af.preamble_start_arrival + frame_sim;
  // The frame carries the rest of its channel to the receiver: the
  // specular stage and the link stream where that stage left it.
  af.taps = std::move(stage.channel.taps);
  af.los_delay_s = stage.channel.los_delay_s;
  af.diffuse_ref_amp = stage.diffuse_ref_amp;
  af.link_rng.emplace(std::move(link_rng));
  if (injector != nullptr)
    af.preamble_missed =
        injector->miss_preamble(rx.id(), af.first_path_amplitude, frame_seed);

  // Ghost-peak attack: adversarial taps ahead of the legitimate first path,
  // drawn after the detectability decision on purpose — ghosts corrupt the
  // rendered CIR (where first-path search happens) without changing which
  // frames are deliverable, so a zero-strength plan stays byte-identical.
  if (attack != nullptr)
    attack->ghost_taps(tx_node_id, rx.id(), frame_seed,
                       af.first_detectable_delay.value(),
                       af.first_path_amplitude, af.ghost_taps);

  UWB_FR_EVENT(.kind = obs::FrKind::kChannel, .name = "delivered",
               .chain = frame_seed, .t_ps = preamble_start.ps(),
               .node = rx.id(), .peer = tx_node_id,
               .v0 = {"first_path_amp", af.first_path_amplitude},
               .v1 = {"delay_s", af.first_detectable_delay.value()});

  if (delivery_probe_) {
    // The probe sees the frame as a receiver would superpose it; the copy
    // of the link stream leaves the scheduled frame's draws untouched.
    AirFrame seen = af;
    complete_channel(seen);
    delivery_probe_(rx.id(), seen);
  }

  Node* target = &rx;
  sim_.at(af.preamble_start_arrival, [target, af = std::move(af)]() mutable {
    target->on_air_frame(std::move(af));
  });
  ++stats_.frames_delivered;
  return DeliverOutcome::kDelivered;
}

void Medium::complete_channel(AirFrame& af) const {
  UWB_EXPECTS(af.link_rng.has_value());
  channel::ChannelRealization ch = model_.complete_diffuse(
      channel::SpecularStage{{std::move(af.taps), af.los_delay_s},
                             af.diffuse_ref_amp},
      *af.link_rng);
  af.link_rng.reset();
  ch.taps.reserve(ch.taps.size() + af.ghost_taps.size());
  for (const fault::GhostTap& g : af.ghost_taps)
    ch.taps.push_back(channel::Tap{g.delay_s, g.amplitude, false, 0});
  af.taps = std::move(ch.taps);
}

void Medium::transmit(int tx_node_id, const dw::MacFrame& frame,
                      std::uint8_t tc_pgdelay, SimTime preamble_start,
                      Seconds shr_duration, Seconds frame_duration,
                      double tx_drift_ppm) {
  const auto tx_it = std::lower_bound(
      nodes_.begin(), nodes_.end(), tx_node_id,
      [](const Node* n, int id) { return n->id() < id; });
  UWB_EXPECTS(tx_it != nodes_.end() && (*tx_it)->id() == tx_node_id);
  const geom::Vec2 tx_pos = (*tx_it)->position();

  // Advance the frame stream unconditionally so culled and unculled runs
  // agree on every frame's seed.
  const std::uint64_t frame_seed =
      derive_seed(channel_stream_base_, frame_seq_++);
  ++stats_.frames_transmitted;

  // Root of this frame's causal chain: every downstream event (channel
  // decision, RX, fault, detect, status) carries frame_seed as its chain id.
  UWB_FR_EVENT(.kind = obs::FrKind::kTx, .name = "frame_tx",
               .chain = frame_seed, .t_ps = preamble_start.ps(),
               .node = tx_node_id,
               .v0 = {"frame_seq", static_cast<double>(frame_seq_ - 1)},
               .v1 = {"frame_duration_s", frame_duration.value()});

  // Loop-invariant across receivers: time conversions and the injectors.
  const SimTime shr_sim = to_sim_time(shr_duration);
  const SimTime frame_sim = to_sim_time(frame_duration);
  fault::FaultInjector* const injector = fault_;
  fault::AttackInjector* const attack = attack_;

  // Transmit-side manipulations apply once per frame, after the chain-root
  // frame_tx event so downstream attack events trace back to it: a
  // compromised transmitter overstates its carrier (biasing the victim's
  // CFO estimate) or swaps in a replayed pulse-shape register.
  double effective_drift_ppm = tx_drift_ppm;
  std::uint8_t effective_pgdelay = tc_pgdelay;
  if (attack != nullptr) {
    effective_drift_ppm += attack->cfo_spoof_ppm(tx_node_id, frame_seed);
    const int forged = attack->forged_shape_register(tx_node_id, frame_seed);
    if (forged >= 0) effective_pgdelay = static_cast<std::uint8_t>(forged);
  }

  std::uint64_t delivered = 0;
  std::uint64_t culled = 0;

  // The fan-out to the end of the frame: every receiver's gates, specular
  // stage and schedule. Not in deliver, which must not reach the span's
  // bookkeeping (uwb-hot-path).
  UWB_OBS_SPAN("medium_fanout");
  ensure_spatial_index();
  if (culling_active()) {
    candidates_.clear();
    grid_.neighborhood(tx_pos, candidates_);
    for (const std::int32_t idx : candidates_) {
      Node& rx = *nodes_[static_cast<std::size_t>(idx)];
      if (rx.id() == tx_node_id) continue;
      CellTraffic& traffic = cell_traffic_entry(grid_.key_of(rx.position()));
      // Radius gate: the neighborhood reaches up to 2*sqrt(2) radii out;
      // nothing beyond one radius can hold a detectable specular tap.
      const double distance_m = geom::distance(tx_pos, rx.position());
      if (distance_m > interference_radius_m_) {
        ++culled;
        ++traffic.culled;
        UWB_FR_EVENT(.kind = obs::FrKind::kChannel, .name = "culled",
                     .chain = frame_seed, .t_ps = preamble_start.ps(),
                     .node = rx.id(), .peer = tx_node_id,
                     .v0 = {"distance_m", distance_m},
                     .v1 = {"radius_m", interference_radius_m_});
        continue;
      }
      if (deliver(rx, tx_node_id, tx_pos, frame_seed, frame,
                  effective_pgdelay, preamble_start, shr_sim, frame_sim,
                  effective_drift_ppm, injector,
                  attack) == DeliverOutcome::kDelivered) {
        ++delivered;
        ++traffic.delivered;
      } else {
        ++traffic.below_threshold;
      }
    }
    // Everything outside the 3x3 neighborhood is skipped wholesale —
    // account it per cell (cells, not nodes, so this stays O(occupied
    // cells) per frame).
    for (const geom::UniformGrid::Cell& cell : grid_.cells()) {
      if (grid_.in_neighborhood(tx_pos, cell.key)) continue;
      const auto n = static_cast<std::uint64_t>(cell.indices.size());
      culled += n;
      cell_traffic_entry(cell.key).culled += n;
      if (UWB_FR_ACTIVE()) {
        for (const std::int32_t idx : cell.indices) {
          const Node& rx = *nodes_[static_cast<std::size_t>(idx)];
          UWB_FR_EVENT(.kind = obs::FrKind::kChannel, .name = "culled",
                       .chain = frame_seed, .t_ps = preamble_start.ps(),
                       .node = rx.id(), .peer = tx_node_id,
                       .v0 = {"distance_m",
                              geom::distance(tx_pos, rx.position())},
                       .v1 = {"radius_m", interference_radius_m_});
        }
      }
    }
    stats_.receivers_culled += culled;
  } else {
    for (Node* rx : nodes_) {
      if (rx->id() == tx_node_id) continue;
      if (deliver(*rx, tx_node_id, tx_pos, frame_seed, frame,
                  effective_pgdelay, preamble_start, shr_sim, frame_sim,
                  effective_drift_ppm, injector,
                  attack) == DeliverOutcome::kDelivered) {
        ++delivered;
      }
    }
  }

  UWB_OBS_COUNT("medium_frames_delivered", delivered);
  UWB_OBS_COUNT("medium_receivers_culled", culled);
  UWB_OBS_HISTOGRAM("medium_frame_fanout", ::uwb::obs::fanout_buckets(),
                    delivered);
}

}  // namespace uwb::sim
