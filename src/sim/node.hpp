// A simulated UWB node: DW1000 radio model + free-running clock + position.
//
// Exposes the firmware-level API the ranging protocols program against:
// enter/exit RX, immediate TX, delayed TX (with the hardware truncation),
// and an RX-complete callback delivering the decoded frame, the RX
// timestamp, and the captured CIR accumulator.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/random.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/clock.hpp"
#include "dw1000/energy.hpp"
#include "dw1000/frame.hpp"
#include "dw1000/phy_config.hpp"
#include "geom/vec2.hpp"
#include "sim/medium.hpp"
#include "sim/simulator.hpp"

namespace uwb::sim {

/// Tap index where the receiver anchors the sync frame's first path in the
/// CIR window.
inline constexpr int kCirAnchorTaps = 64;

struct NodeConfig {
  int id = 0;
  geom::Vec2 position;
  /// Clock epoch offset: where this node's 40-bit counter happens to be.
  SimTime clock_epoch_offset;
  /// Crystal drift [ppm]; DW1000-class crystals are trimmed to a few ppm.
  double drift_ppm = 0.0;
  dw::PhyConfig phy;
  dw::CirParams cir;
  /// Model the hardware delayed-TX truncation (low 9 bits ignored). Turning
  /// this off is an ablation: ideal sub-tick transmit timing.
  bool delayed_tx_truncation = true;
  /// Physical antenna delay: the signal leaves/reaches the antenna this
  /// long after/before the digital timestamp reference. Uncalibrated
  /// devices carry ~515 ns (DW1000 default); ranging code must subtract the
  /// calibrated value (APS014) or every TWR distance is biased by
  /// c * (sum of delays) / 2. Zero by default so paper-reproduction
  /// experiments measure the algorithms, not the commissioning procedure.
  Seconds antenna_delay{};
};

/// The accumulator of one receive batch as the radio captured it: the key
/// of its noise, drawn at RX, and the batch's frames, superposed and
/// overlaid with the noise only by render() (DESIGN.md Sect. 17).
///
/// A batch of several frames has its channels completed at RX, because the
/// SIR decode check reads each frame's full power; their arrivals are
/// captured. Nothing at RX reads a lone frame's channel, so the capture
/// keeps that frame as delivered (specular taps, ghost taps, link stream)
/// with no arrivals, and render() completes a copy of it. Rendering twice
/// gives the same taps; a capture dropped unrendered never draws the tail.
/// The Medium must outlive the render.
class BatchCapture : private dw::CirCapture {
 public:
  BatchCapture() = default;
  BatchCapture(dw::CirCapture accumulator, std::optional<AirFrame> lone_frame,
               double window_start_s, const Medium& medium);

  /// The completed frames' arrivals (empty for a lone frame) and the key
  /// and sigma of the accumulator noise.
  using dw::CirCapture::arrivals;
  using dw::CirCapture::noise_key;
  using dw::CirCapture::noise_sigma;

  /// Complete the lone frame's channel on a copy of its link stream (one
  /// `channel_diffuse` span), then superpose every arrival and draw the
  /// noise. Leaves the capture unchanged.
  dw::CirEstimate render() const;

 private:
  std::optional<AirFrame> lone_frame_;
  /// Global time [s] of the CIR window's first tap.
  double window_start_s_ = 0.0;
  const Medium* medium_ = nullptr;
};

/// Outcome of one receive operation (one frame, or one concurrent batch).
struct RxResult {
  /// Decoded payload of the frame the radio synchronised on; nullopt when
  /// the payload could not be decoded (CIR and timestamp remain valid).
  std::optional<dw::MacFrame> frame;
  /// Noisy device time of the sync frame's RMARKER arrival.
  dw::DwTimestamp rx_timestamp;
  /// The accumulator over all concurrent frames, captured but not rendered:
  /// call cir.render() for the taps. A lone frame's diffuse tail is drawn
  /// only there.
  BatchCapture cir;
  /// Estimated remote-minus-local clock drift [ppm] (noisy).
  double carrier_offset_ppm = 0.0;
  /// Number of frames superposed in this batch.
  int frames_in_batch = 0;
  /// Node id of the sync (decoded) transmitter.
  int sync_tx_node_id = -1;
  /// Causal chain id of the sync frame (see AirFrame::chain); 0 when the
  /// flight recorder never tagged it. Sessions propagate it into the
  /// detect/twr/status events of the round.
  std::uint64_t sync_chain = 0;
  /// A sync payload existed but failed its frame check sequence (SIR too
  /// low against a colliding frame, or an injected CRC fault). `frame` is
  /// nullopt in that case; CIR and timestamp remain valid.
  bool crc_error = false;
  /// Transmitter node ids of every frame superposed in this batch (in
  /// arrival order) — lets sessions attribute per-responder outcomes.
  std::vector<int> batch_tx_node_ids;
  SimTime completed_at;
};

/// Seed of the stream a scene seeded `scene_seed` hands its Medium.
inline StreamSeed medium_seed(std::uint64_t scene_seed) {
  return derive_seed(scene_seed, 0x6D656469756Du);  // "medium"
}

/// Seed of the stream of node `id` in a scene seeded `scene_seed`. Keyed by
/// the id alone, so a node draws the same whatever nodes were built before
/// it.
inline StreamSeed node_seed(std::uint64_t scene_seed, int id) {
  return derive_seed(derive_seed(scene_seed, 0x6E6F646573u),  // "nodes"
                     static_cast<std::uint32_t>(id));
}

class Node {
 public:
  Node(Simulator& simulator, Medium& medium, NodeConfig config, Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // --- protocol-facing API -------------------------------------------------

  /// Start listening now. The radio stays in RX until a frame (batch)
  /// completes or exit_rx() is called.
  void enter_rx();
  void exit_rx();
  bool in_rx() const { return rx_enabled_; }

  /// Transmit immediately (preamble starts now). Returns the exact device
  /// time of the TX RMARKER (the radio knows its own transmit time).
  dw::DwTimestamp transmit_now(const dw::MacFrame& frame);

  /// Delayed transmission: RMARKER at device time `rmarker_target`, subject
  /// to the hardware truncation (low 9 bits ignored). Returns the actual
  /// (quantised) RMARKER device time, which the caller may embed in the
  /// frame payload before it is sent.
  dw::DwTimestamp delayed_tx_time(dw::DwTimestamp rmarker_target) const;

  /// Schedule the (already quantised) delayed transmission. The frame is
  /// taken by value so the caller can embed `delayed_tx_time()` first.
  /// Returns false — and transmits nothing — when the radio aborts the
  /// delayed TX: the target already lies in the past (the DW1000 HPDWARN
  /// half-period warning; recoverable at run time, e.g. after a clock
  /// glitch) or an injected late-TX fault fires.
  [[nodiscard]] bool schedule_delayed_tx(dw::MacFrame frame,
                                         dw::DwTimestamp quantized_rmarker);

  /// The handler receives the result as an rvalue: a consumer may keep it
  /// by moving from it instead of copying the CIR capture.
  void set_rx_handler(std::function<void(RxResult&&)> handler) {
    rx_handler_ = std::move(handler);
  }

  /// Current device time.
  dw::DwTimestamp device_now() const;

  /// Apply a clock anomaly: a crystal drift step [ppm] and/or a counter
  /// epoch jump [s] (fault injection, DESIGN.md Sect. 10). Takes effect for
  /// all subsequent timestamps.
  void apply_clock_glitch(double drift_step_ppm, double epoch_jump_s);

  // --- used by the Medium --------------------------------------------------

  void on_air_frame(AirFrame af);

  // --- accessors -----------------------------------------------------------

  int id() const { return config_.id; }
  geom::Vec2 position() const { return config_.position; }
  void set_position(geom::Vec2 p) {
    config_.position = p;
    medium_.invalidate_spatial_index();
  }
  const dw::PhyConfig& phy() const { return config_.phy; }
  void set_tc_pgdelay(std::uint8_t reg) { config_.phy.tc_pgdelay = reg; }
  const dw::ClockModel& clock() const { return clock_; }
  dw::EnergyMeter& energy() { return energy_; }
  const dw::EnergyMeter& energy() const { return energy_; }
  const NodeConfig& config() const { return config_; }

 private:
  /// Convert a duration measured on this node's clock to global time.
  SimTime local_duration(Seconds local) const;

  void transmit_at(const dw::MacFrame& frame, SimTime preamble_start_global);
  void finalize_batch();

  Simulator& sim_;
  Medium& medium_;
  NodeConfig config_;
  dw::ClockModel clock_;
  Rng rng_;
  dw::EnergyMeter energy_;

  bool rx_enabled_ = false;
  SimTime rx_since_;
  std::vector<AirFrame> pending_;
  std::function<void(RxResult&&)> rx_handler_;
};

}  // namespace uwb::sim
