#include "sim/node.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/expects.hpp"
#include "common/units.hpp"
#include "dw1000/timestamping.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace uwb::sim {

namespace {
/// Processing margin after the last sample of a frame before the receiver
/// reports the result.
const SimTime kFinalizeMargin = SimTime::from_micros(2.0);

/// Noise (1 sigma, ppm) of the carrier-frequency-offset estimate the
/// receiver reports for drift compensation.
constexpr double kCfoNoisePpm = 0.05;
/// Minimum SIR [dB] of the sync frame against the strongest other
/// concurrent frame for its payload to decode. Preamble-locked
/// demodulation is robust well below 0 dB — the feasibility study decoded
/// payloads from equal-power concurrent responders.
constexpr double kDecodeMinSirDb = -10.0;
/// A concurrent frame this much stronger than the earliest one captures
/// synchronisation (amplitude ratio). High on purpose: the receiver locks
/// to the earliest detectable preamble of the aggregate (the CIR window
/// and RMARKER anchor there); only gross power imbalance steals the lock.
constexpr double kCaptureAmplitudeRatio = 10.0;

/// Append every tap of a completed frame as a pulse arrival, timed into the
/// CIR window that starts at `window_start_s` (global time).
void append_arrivals(const AirFrame& af, double window_start_s,
                     std::vector<dw::CirArrival>& arrivals) {
  const double tx_ref_s =
      af.preamble_start_arrival.seconds() - af.first_detectable_delay.value();
  // A no-op when the caller reserved the whole batch.
  arrivals.reserve(arrivals.size() + af.taps.size());
  for (const channel::Tap& tap : af.taps) {
    dw::CirArrival a;
    a.time_into_window_s = tx_ref_s + tap.delay_s - window_start_s;
    a.amplitude = tap.amplitude;
    a.tc_pgdelay = af.tc_pgdelay;
    arrivals.push_back(a);
  }
}
}  // namespace

BatchCapture::BatchCapture(dw::CirCapture accumulator,
                           std::optional<AirFrame> lone_frame,
                           double window_start_s, const Medium& medium)
    : dw::CirCapture(std::move(accumulator)),
      lone_frame_(std::move(lone_frame)),
      window_start_s_(window_start_s),
      medium_(&medium) {}

dw::CirEstimate BatchCapture::render() const {
  if (!lone_frame_) return dw::CirCapture::render();
  // The copy carries a copy of the link stream: the capture keeps the
  // frame as delivered, so every render draws the same tail.
  AirFrame af = *lone_frame_;
  {
    UWB_OBS_SPAN("channel_diffuse");
    medium_->complete_channel(af);
  }
  dw::CirCapture full = *this;
  append_arrivals(af, window_start_s_, full.arrivals);
  return full.render();
}

Node::Node(Simulator& simulator, Medium& medium, NodeConfig config, Rng rng)
    : sim_(simulator), medium_(medium), config_(config),
      clock_(config.clock_epoch_offset, config.drift_ppm), rng_(std::move(rng)) {
  config_.phy.validate();
  UWB_EXPECTS(kCirAnchorTaps < config_.cir.length);
  medium_.register_node(*this);
}

SimTime Node::local_duration(Seconds local) const {
  return SimTime::from_seconds(local.value() / (1.0 + config_.drift_ppm * 1e-6));
}

dw::DwTimestamp Node::device_now() const { return clock_.device_time(sim_.now()); }

void Node::enter_rx() {
  UWB_EXPECTS(!rx_enabled_);
  rx_enabled_ = true;
  rx_since_ = sim_.now();
  pending_.clear();
}

void Node::exit_rx() {
  if (!rx_enabled_) return;
  energy_.add_rx((sim_.now() - rx_since_).seconds());
  rx_enabled_ = false;
  if (UWB_FR_ACTIVE()) {
    // Frames still pending when the protocol turns the radio off never
    // finalize — record where each chain died.
    for (const AirFrame& af : pending_) {
      UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_abandoned",
                   .chain = af.chain, .node = config_.id,
                   .peer = af.tx_node_id);
    }
  }
  pending_.clear();
}

void Node::transmit_at(const dw::MacFrame& frame, SimTime preamble_start_global) {
  const Seconds shr_global =
      to_seconds(local_duration(Seconds(config_.phy.shr_duration_s())));
  const Seconds frame_global = to_seconds(local_duration(
      Seconds(config_.phy.frame_duration_s(frame.payload_bytes()))));
  // The wave leaves the antenna half the antenna delay after the digital
  // timestamp reference (the other half applies on reception).
  const SimTime radiated =
      preamble_start_global + to_sim_time(config_.antenna_delay / 2.0);
  medium_.transmit(config_.id, frame, config_.phy.tc_pgdelay, radiated,
                   shr_global, frame_global, config_.drift_ppm);
  energy_.add_tx(frame_global.value());
}

dw::DwTimestamp Node::transmit_now(const dw::MacFrame& frame) {
  UWB_EXPECTS(!rx_enabled_);
  const SimTime preamble_start = sim_.now();
  transmit_at(frame, preamble_start);
  const SimTime rmarker =
      preamble_start + local_duration(Seconds(config_.phy.shr_duration_s()));
  return clock_.device_time(rmarker);
}

dw::DwTimestamp Node::delayed_tx_time(dw::DwTimestamp rmarker_target) const {
  if (!config_.delayed_tx_truncation) return rmarker_target;
  return dw::quantize_delayed_tx(rmarker_target);
}

void Node::apply_clock_glitch(double drift_step_ppm, double epoch_jump_s) {
  clock_ = dw::ClockModel(
      clock_.epoch_offset() + SimTime::from_seconds(epoch_jump_s),
      clock_.drift_ppm() + drift_step_ppm);
  // local_duration() and the medium's CFO ground truth read config_, which
  // must stay consistent with the clock model.
  config_.drift_ppm = clock_.drift_ppm();
}

bool Node::schedule_delayed_tx(dw::MacFrame frame,
                               dw::DwTimestamp quantized_rmarker) {
  UWB_EXPECTS(quantized_rmarker == delayed_tx_time(quantized_rmarker));
  const SimTime rmarker_global =
      clock_.global_time_of(quantized_rmarker, sim_.now());
  const SimTime preamble_start =
      rmarker_global - local_duration(Seconds(config_.phy.shr_duration_s()));
  // The target (minus the preamble lead-in) is already in the past: the
  // hardware raises HPDWARN and the firmware aborts the transmission — a
  // runtime condition, not a precondition violation.
  if (preamble_start < sim_.now()) {
    UWB_FR_EVENT(.kind = obs::FrKind::kTx, .name = "delayed_tx_abort",
                 .node = config_.id, .detail = "target_in_past");
    return false;
  }
  fault::FaultInjector* injector = medium_.fault_injector();
  if (injector != nullptr && injector->abort_delayed_tx(config_.id))
    return false;
  sim_.at(preamble_start, [this, frame = std::move(frame), preamble_start]() {
    transmit_at(frame, preamble_start);
  });
  return true;
}

void Node::on_air_frame(AirFrame af) {
  if (!rx_enabled_ || sim_.now() < rx_since_) {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_radio_off",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id);
    return;
  }
  if (pending_.empty()) {
    // An injected preamble miss on a would-be leader means the receiver
    // never locks: the frame is lost outright (its energy superposes only
    // when another frame already holds the lock). The injector already
    // recorded the fault event for this chain.
    if (af.preamble_missed) return;
    // Batch leader: the receiver locks on and reports once the frame ends.
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_lead",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id,
                 .v0 = {"first_path_amp", af.first_path_amplitude});
    sim_.at(af.frame_end_arrival + kFinalizeMargin, [this]() { finalize_batch(); });
    // clear() keeps capacity, so pending_ reallocates only while ramping
    // to the largest batch seen; steady state is allocation-free.
    pending_.push_back(std::move(af));
    return;
  }
  // Later frames join the batch only if their preamble overlaps the
  // leader's synchronisation header; otherwise the radio is busy and the
  // frame is lost.
  if (af.preamble_start_arrival <= pending_.front().rmarker_arrival) {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_join",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id,
                 .v0 = {"batch_size", static_cast<double>(pending_.size() + 1)});
    // Same steady-state-capacity argument as the batch-leader push above.
    pending_.push_back(std::move(af));
  } else {
    UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_late_for_batch",
                 .chain = af.chain, .node = config_.id, .peer = af.tx_node_id);
  }
}

void Node::finalize_batch() {
  if (!rx_enabled_ || pending_.empty()) return;

  // Sync selection: earliest detectable preamble wins unless a much
  // stronger overlapping frame captures the correlator. Frames whose
  // preamble detection was faulted out can never take the lock (the leader
  // is guaranteed un-missed by on_air_frame).
  const AirFrame* sync = &pending_.front();
  for (const AirFrame& af : pending_) {
    if (af.preamble_missed) continue;
    if (af.first_path_amplitude >
        sync->first_path_amplitude * kCaptureAmplitudeRatio)
      sync = &af;
  }

  // Every tap of every batch frame arrives in the CIR window anchored
  // kCirAnchorTaps before the sync frame's first path.
  const double window_start_s =
      sync->preamble_start_arrival.seconds() -
      static_cast<double>(kCirAnchorTaps) * config_.cir.ts_s;

  // Eq. 1's diffuse tail is drawn, on each frame's own link stream, where
  // it is first read (DESIGN.md Sect. 13.2): here when the batch holds
  // several frames, because the SIR check below sums each frame's power;
  // for a lone frame, only if a consumer renders the capture.
  const bool lone = pending_.size() == 1;
  std::vector<dw::CirArrival> arrivals;
  if (!lone) {
    for (AirFrame& af : pending_) {
      UWB_OBS_SPAN("channel_diffuse");
      medium_.complete_channel(af);
    }
    std::size_t n_taps = 0;
    for (const AirFrame& af : pending_) n_taps += af.taps.size();
    arrivals.reserve(n_taps);
    for (const AirFrame& af : pending_)
      append_arrivals(af, window_start_s, arrivals);
  }

  // Capture only: the key of the accumulator noise is drawn here, before
  // the timestamp and CFO draws, but the pulses and the noise are rendered
  // only by a consumer that reads the taps (responders never do).
  dw::CirCapture accumulator;
  {
    UWB_OBS_SPAN("cir_synthesis");
    accumulator = dw::capture_cir(std::move(arrivals), config_.cir, rng_);
  }
  accumulator.first_path_index = static_cast<double>(kCirAnchorTaps);
  RxResult result;
  result.rx_timestamp =
      dw::noisy_rx_timestamp(sync->tc_pgdelay,
                             clock_.device_time(sync->rmarker_arrival), rng_)
          .plus_seconds(config_.antenna_delay / 2.0);
  result.carrier_offset_ppm = sync->tx_drift_ppm - config_.drift_ppm +
                              rng_.normal(0.0, kCfoNoisePpm);
  result.frames_in_batch = static_cast<int>(pending_.size());
  result.sync_tx_node_id = sync->tx_node_id;
  result.sync_chain = sync->chain;
  result.batch_tx_node_ids.reserve(pending_.size());
  for (const AirFrame& af : pending_)
    result.batch_tx_node_ids.push_back(af.tx_node_id);
  result.completed_at = sim_.now();

  // Payload decode: the sync frame survives if its full power clears the
  // configured SIR against the strongest other frame. (Concurrent RESP
  // payloads are chip-offset copies, so corruption is dominated by the
  // strongest colliding frame rather than the incoherent sum — consistent
  // with the paper's observation that one payload stays decodable even with
  // several equal-power responders.) A lone frame has no interference.
  bool decodable = true;
  if (!lone) {
    const auto frame_power = [](const AirFrame& af) {
      UWB_EXPECTS(!af.link_rng.has_value());  // completed above
      double p = 0.0;
      for (const channel::Tap& tap : af.taps) p += std::norm(tap.amplitude);
      return p;
    };
    double interference = 0.0;
    for (const AirFrame& af : pending_) {
      if (&af == sync) continue;
      interference = std::max(interference, frame_power(af));
    }
    if (interference != 0.0) {
      const double sir_db = linear_to_db(frame_power(*sync) / interference);
      decodable = sir_db >= kDecodeMinSirDb;
      if (!decodable) {
        UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_decode_failed",
                     .chain = sync->chain, .node = config_.id,
                     .peer = sync->tx_node_id, .detail = "low_sir",
                     .v0 = {"sir_db", sir_db},
                     .v1 = {"min_sir_db", kDecodeMinSirDb});
      }
    }
  }
  // Injected CRC fault: the payload demodulates but its FCS fails, so the
  // MAC discards it. Either failure path surfaces as crc_error.
  fault::FaultInjector* injector = medium_.fault_injector();
  if (decodable && injector != nullptr &&
      injector->corrupt_crc(config_.id, sync->chain))
    decodable = false;
  if (decodable)
    result.frame = sync->frame;
  else
    result.crc_error = true;

  UWB_FR_EVENT(.kind = obs::FrKind::kRx, .name = "rx_batch_complete",
               .chain = sync->chain, .node = config_.id,
               .peer = sync->tx_node_id,
               .detail = decodable ? "decoded" : "crc_error",
               .v0 = {"frames_in_batch",
                      static_cast<double>(result.frames_in_batch)});

  // The lone frame moves into the capture last: `sync` points at it.
  result.cir = BatchCapture(
      std::move(accumulator),
      lone ? std::optional<AirFrame>(std::move(pending_.front()))
           : std::nullopt,
      window_start_s, medium_);

  energy_.add_rx((sim_.now() - rx_since_).seconds());
  rx_enabled_ = false;
  pending_.clear();

  if (rx_handler_) {
    // Events recorded while the protocol reacts to this reception (delayed
    // TX arming, fault decisions, detection) inherit the sync chain.
    UWB_FR_CHAIN_SCOPE(result.sync_chain);
    rx_handler_(std::move(result));
  }
}

}  // namespace uwb::sim
