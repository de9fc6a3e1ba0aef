// Shared radio medium with spatial interference culling (DESIGN.md Sect. 13).
//
// Propagates every transmission through the channel model (drawing a fresh
// channel realisation per link per frame) and delivers an AirFrame to each
// receiver that can detect it. Receivers superpose overlapping AirFrames
// into one CIR — the physical mechanism behind concurrent ranging.
//
// Each link is decided from cheap evidence before its channel is paid for:
//
// * Radius gate. A conservative interference radius is derived from the
//   channel model (the maximum range at which a specular tap can still
//   reach `detection_threshold_amp`), nodes are bucketed into a uniform
//   grid of cells with that side length, and `transmit` visits only the
//   3x3 cell neighborhood of the transmitter — O(local density) instead of
//   O(N) per frame — culling every candidate farther than the radius with
//   an exact Euclidean check: no path lookup, no draw.
// * Specular gate. Following the paper's Eq. 1, h = sum_k alpha_k
//   delta(t - tau_k) + nu(t), the deterministic taps alpha_k alone decide
//   whether the receiver's preamble detector can lock, and where (the
//   earliest specular tap at or above the threshold).
//
// The transmitter decides; the reader completes. A detectable frame
// travels with its specular stage and its link stream, and the diffuse
// tail nu(t) and the tap sort are drawn by complete_channel() only where
// something reads them: at the receiver (Node::finalize_batch) when the
// frame shares its batch with others, whose SIR check sums every frame's
// power, and for a frame alone in its batch only when a consumer renders
// the CIR (BatchCapture::render). A frame that reaches a radio that is off,
// arrives late for a batch, is abandoned, or sits alone in a capture no one
// renders never pays for its tail.
//
// Channel randomness comes from a per-(link, frame) stream seeded by
// derive_seed (the same pattern src/fault uses for per-node fault streams),
// and the diffuse completion continues the link's own stream, so neither
// the gates nor the deferral perturb the draws of the links that remain:
// culled and unculled runs are bit-identical for every delivered frame,
// and every completed frame carries exactly ChannelModel::realize() on its
// link stream, at any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "channel/channel_model.hpp"
#include "common/random.hpp"
#include "common/units.hpp"
#include "dw1000/frame.hpp"
#include "dw1000/phy_config.hpp"
#include "fault/attack.hpp"
#include "fault/fault.hpp"
#include "geom/grid.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {

class Node;

/// A frame as observed at one receiver: payload, per-path taps, and the
/// arrival instants of the relevant frame landmarks.
struct AirFrame {
  int tx_node_id = -1;
  /// Causal chain id of the transmission this frame belongs to: the frame's
  /// channel seed, minted once per transmit() and shared by every receiver's
  /// copy. Flight-recorder events along this frame's life carry it.
  std::uint64_t chain = 0;
  dw::MacFrame frame;
  std::uint8_t tc_pgdelay = 0x93;
  /// TX crystal drift (ground truth, used for the receiver's carrier
  /// frequency offset estimate).
  double tx_drift_ppm = 0.0;
  /// Channel taps (absolute propagation delays TX->RX). In flight, the
  /// specular stage only, in image-source order; Medium::complete_channel
  /// replaces them with the full realization (sorted by delay, diffuse tail
  /// included) followed by the ghost taps.
  std::vector<channel::Tap> taps;
  /// Geometric direct-path delay [s] and diffuse reference amplitude of the
  /// specular stage (see channel::SpecularStage): the tail's anchor.
  double los_delay_s = 0.0;
  double diffuse_ref_amp = 0.0;
  /// Adversarial taps, appended after the completed channel.
  std::vector<fault::GhostTap> ghost_taps;
  /// The link's channel stream where the specular stage left it; the
  /// diffuse tail continues it. Empty once the channel is complete.
  std::optional<Rng> link_rng;
  /// Delay of the first path strong enough for the receiver to detect.
  Seconds first_detectable_delay{};
  /// Amplitude magnitude of that first detectable path.
  double first_path_amplitude = 0.0;
  /// Global time the preamble's first detectable copy starts arriving.
  SimTime preamble_start_arrival;
  /// Global time that copy's preamble+SFD ends (RMARKER arrival).
  SimTime rmarker_arrival;
  /// Global time the whole frame has arrived.
  SimTime frame_end_arrival;
  /// Injected fault: the receiver's preamble detector fails on this frame.
  /// The frame cannot lead or sync a batch; its energy still superposes
  /// into the CIR when another frame holds the lock.
  bool preamble_missed = false;
};

/// Fading headroom used when deriving the interference radius from
/// ChannelModel::max_detectable_range [dB]: covers the specular fading
/// draw (16 dB = 16 sigma at the default 1 dB fading).
inline constexpr double kRangeMarginDb = 16.0;

struct MediumParams {
  /// Minimum specular tap amplitude for the receiver's preamble detector to
  /// lock.
  double detection_threshold_amp = 0.02;
  /// Skip receivers outside the 3x3 grid neighborhood of the transmitter,
  /// and receivers inside it farther than the interference radius, without
  /// a path lookup or a draw. Bit-identical to the unculled medium for every
  /// delivered frame (no receiver beyond the radius can have a detectable
  /// specular tap). Off: every receiver's channel is realized, which keeps
  /// an honest reference for the identity tests.
  bool culling_enabled = true;
};

/// Cumulative frame-traffic totals since construction. Per frame, every
/// receiver lands in exactly one of delivered, below_threshold and culled:
/// channels_realized + receivers_culled == nodes - 1, and
/// channels_realized == frames_delivered + below_threshold.
struct MediumStats {
  std::uint64_t frames_transmitted = 0;
  /// AirFrames scheduled for delivery (a specular tap at or above the
  /// detection threshold). Of these, only the frames of multi-frame batches
  /// and the lone frames of rendered captures draw their diffuse tail (the
  /// `channel_diffuse` span count).
  std::uint64_t frames_delivered = 0;
  /// Receivers skipped without a path lookup or a draw: outside the
  /// transmitter's 3x3 grid neighborhood, or inside it but farther than
  /// the interference radius. Always 0 when culling is inactive.
  std::uint64_t receivers_culled = 0;
  /// Links whose specular stage was drawn (the delivered and the
  /// below-threshold ones).
  std::uint64_t channels_realized = 0;
  /// Realized links whose specular taps all fell below the detection
  /// threshold; their diffuse tail is never drawn.
  std::uint64_t below_threshold = 0;
};

/// Delivered/culled traffic attributed to one grid cell (keyed by the
/// receiver's cell). Keys are geographic, so counts survive index rebuilds
/// when nodes register or move.
struct CellTraffic {
  geom::CellKey key = 0;
  std::uint64_t delivered = 0;
  /// Receivers culled by the neighborhood or the radius gate (see
  /// MediumStats::receivers_culled).
  std::uint64_t culled = 0;
  /// Receivers whose channel was realized but had no detectable path.
  /// With delivered and culled this closes the per-frame accounting:
  /// delivered + culled + below_threshold sums to (nodes - 1) per frame
  /// when culling is active.
  std::uint64_t below_threshold = 0;
};

class Medium {
 public:
  Medium(Simulator& simulator, channel::ChannelModel model, MediumParams params,
         Rng rng);

  /// Nodes register themselves on construction.
  void register_node(Node& node);

  /// Called by a transmitting node at the instant its preamble starts.
  /// The duration arguments are already rescaled to global time by the
  /// transmitter's clock model.
  void transmit(int tx_node_id, const dw::MacFrame& frame,
                std::uint8_t tc_pgdelay, SimTime preamble_start,
                Seconds shr_duration, Seconds frame_duration,
                double tx_drift_ppm);

  const channel::ChannelModel& channel_model() const { return model_; }
  Simulator& simulator() { return sim_; }

  /// Install a fault injector (non-owning; nullptr = no faults). Reception
  /// faults are decided here; nodes reach the injector through
  /// fault_injector() for TX/decode faults.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }
  fault::FaultInjector* fault_injector() const { return fault_; }

  /// Install an attack injector (non-owning; nullptr = no adversary).
  /// Transmit-side manipulations (carrier overshoot, forged pulse shape)
  /// and per-link ghost CIR taps are applied here; sessions reach the
  /// injector directly for reply-timestamp bias.
  void set_attack_injector(fault::AttackInjector* injector) {
    attack_ = injector;
  }
  fault::AttackInjector* attack_injector() const { return attack_; }

  /// Interference radius derived from the channel model [m]; +infinity
  /// when the channel model admits no finite bound.
  double interference_radius_m() const { return interference_radius_m_; }

  /// True when transmissions actually go through the spatial index
  /// (culling enabled and a finite radius exists).
  bool culling_active() const;

  /// Mark the spatial index stale (a node moved). Rebuilt lazily on the
  /// next transmit.
  void invalidate_spatial_index() { spatial_dirty_ = true; }

  /// The spatial index over current node positions (rebuilt if stale).
  /// Empty when culling is inactive.
  const geom::UniformGrid& spatial_index();

  const MediumStats& stats() const { return stats_; }
  /// Per-cell delivered/culled/below-threshold counts, ascending by cell
  /// key. Empty when culling is inactive.
  const std::vector<CellTraffic>& cell_traffic() const { return cell_traffic_; }

  /// Draw the rest of a delivered frame's channel: the diffuse tail on the
  /// frame's link stream, the tap sort, then the ghost taps. The receiver
  /// calls it on each frame of a multi-frame batch; BatchCapture::render
  /// and the delivery probe call it on copies, so a frame's own stream is
  /// spent at most once.
  void complete_channel(AirFrame& af) const;

  /// Test hook: observe every AirFrame at the instant it is scheduled
  /// (before delivery), its channel completed on a copy of the link stream
  /// while the scheduled frame stays incomplete. Used by the
  /// culling-identity tests.
  void set_delivery_probe(
      std::function<void(int rx_node_id, const AirFrame&)> probe) {
    delivery_probe_ = std::move(probe);
  }

 private:
  enum class DeliverOutcome { kDelivered, kBelowThreshold };

  void ensure_spatial_index();
  /// Realize the link's specular taps; if one is detectable, schedule the
  /// AirFrame carrying them and the link stream.
  DeliverOutcome deliver(Node& rx, int tx_node_id, geom::Vec2 tx_pos,
                         std::uint64_t frame_seed, const dw::MacFrame& frame,
                         std::uint8_t tc_pgdelay, SimTime preamble_start,
                         SimTime shr_sim, SimTime frame_sim,
                         double tx_drift_ppm, fault::FaultInjector* injector,
                         fault::AttackInjector* attack);
  CellTraffic& cell_traffic_entry(geom::CellKey key);

  Simulator& sim_;
  channel::ChannelModel model_;
  MediumParams params_;
  fault::FaultInjector* fault_ = nullptr;
  fault::AttackInjector* attack_ = nullptr;

  /// Base of the per-(link, frame) channel seed hierarchy: one word of the
  /// Rng the medium was constructed with (a session seeds it by
  /// derive_seed from its scenario seed).
  std::uint64_t channel_stream_base_ = 0;
  /// Frames transmitted so far — the per-frame stream index. Identical
  /// between culled and unculled runs because culling never changes which
  /// frames get sent.
  std::uint64_t frame_seq_ = 0;

  /// Registry sorted by node id: deterministic iteration, binary-search
  /// lookup, contiguous walk in the per-frame hot path.
  std::vector<Node*> nodes_;

  double interference_radius_m_ = 0.0;
  bool spatial_dirty_ = true;
  geom::UniformGrid grid_;
  /// Scratch for neighborhood queries (avoids per-frame allocation).
  std::vector<std::int32_t> candidates_;

  MediumStats stats_;
  std::vector<CellTraffic> cell_traffic_;
  std::function<void(int, const AirFrame&)> delivery_probe_;
};

}  // namespace uwb::sim
