// Deterministic fault-injection subsystem (DESIGN.md Sect. 10).
//
// A FaultPlan declares which radio/clock faults exist and how likely they
// are; a FaultInjector turns the plan into concrete per-event decisions. The
// sim layer (Medium/Node) and the ranging sessions query the injector at
// well-defined points: preamble detection, payload decode, delayed-TX
// arming, responder round start.
//
// Determinism contract: every decision is drawn from a per-node RNG stream
// seeded as derive_seed(stream_seed, node_id), where the session derives
// stream_seed from the scenario seed — the same splitmix64 scheme the
// Monte-Carlo runner uses for trials — and the simulator dispatches events
// in a bit-reproducible order, so an identical (plan, scenario seed) pair
// injects the identical fault sequence on every run, at any worker-thread
// count. The injector owns its RNG streams outright: it never draws from
// (or reorders draws of) the simulation RNGs, so a plan with every
// probability at zero is *byte-identical* to running without the subsystem.
//
// Each fault maps to a documented DW1000 failure mode (Sect. 10 has the
// datasheet references): preamble-detection failure on weak concurrent
// responses, RX CRC (FCS) errors, the HPDWARN late delayed-TX abort,
// responder dropout, reply-latency jitter, and crystal anomalies (drift
// steps / counter epoch jumps).
//
// Faults model *benign* degradation: every plan here corresponds to
// something a healthy-but-unlucky deployment does to itself. Deliberate
// manipulation — clock-spoofing responders, ghost CIR taps injected ahead
// of the true first path, replayed pulse shapes — lives in the sibling
// adversary model (attack.hpp: AttackPlan / AttackInjector), which shares
// this subsystem's determinism contract (per-attacker streams derived via
// derive_seed, inert plans byte-identical to no-adversary runs) and is
// policed by ranging::AttackDetector. Compose a FaultPlan with an
// AttackPlan to study detection under realistic loss: the detector must
// stay silent on a lossy-but-honest channel (see BenignFalsePositiveTest
// and the benign_l30 bench cell) while indicting the attacks.
#pragma once

#include <cstdint>
#include <map>

#include "common/random.hpp"

namespace uwb::fault {

/// Declarative description of the faults to inject. The default-constructed
/// plan (and any plan with every probability at zero) is inert: the session
/// then builds no injector, and every hook is a null pointer check.
struct FaultPlan {
  // --- (a) reception faults (sim::Medium / sim::Node) ----------------------
  /// Base probability that a receiver's preamble detector fails to lock on
  /// an otherwise detectable frame.
  double preamble_miss_prob = 0.0;
  /// SNR dependence: the effective miss probability is
  ///   min(1, preamble_miss_prob * (preamble_snr_ref_amp / amplitude)^exp)
  /// so weak first paths (amplitude below the reference) are missed more
  /// often, as observed for weak concurrent responses. 0 = amplitude
  /// independent.
  double preamble_snr_exponent = 0.0;
  /// Reference first-path amplitude for the SNR scaling above.
  double preamble_snr_ref_amp = 0.05;
  /// Probability that a decodable payload is delivered with a bad FCS
  /// (frame discarded by the MAC; timestamp and CIR remain valid).
  double crc_error_prob = 0.0;

  // --- (b) delayed-transmission faults (sim::Node) -------------------------
  /// Probability that an armed delayed TX hits the HPDWARN half-period
  /// warning and is aborted by the firmware.
  double late_tx_abort_prob = 0.0;

  // --- (c) responder behaviour (ranging sessions) --------------------------
  /// Per-responder per-round probability of entering a mute window (radio
  /// off: no RX, no replies) lasting dropout_rounds_min..max rounds.
  double dropout_prob = 0.0;
  int dropout_rounds_min = 1;
  int dropout_rounds_max = 3;
  /// 1-sigma extra latency [s] added to the programmed reply delay before
  /// the hardware quantisation (scheduling jitter in the responder's MCU).
  double reply_jitter_sigma_s = 0.0;

  // --- (d) clock anomalies (applied at round boundaries) -------------------
  /// Per-node per-round probability of a crystal drift step of
  /// N(0, drift_step_sigma_ppm) ppm.
  double drift_step_prob = 0.0;
  double drift_step_sigma_ppm = 0.0;
  /// Per-node per-round probability of the 40-bit counter jumping by
  /// uniform(-epoch_jump_max_s, epoch_jump_max_s).
  double epoch_jump_prob = 0.0;
  double epoch_jump_max_s = 0.0;

  /// True when at least one probability is positive.
  bool active() const;
  /// Throws PreconditionError on out-of-range values.
  void validate() const;
};

/// Tally of injected events, by fault kind. Plain integers filled by the
/// single-threaded simulation — deterministic under the same contract as
/// the decisions themselves.
struct FaultCounters {
  std::uint64_t preamble_miss = 0;
  std::uint64_t crc_error = 0;
  std::uint64_t late_tx_abort = 0;
  std::uint64_t dropout_rounds = 0;
  std::uint64_t clock_drift_step = 0;
  std::uint64_t clock_epoch_jump = 0;

  std::uint64_t total() const {
    return preamble_miss + crc_error + late_tx_abort + dropout_rounds +
           clock_drift_step + clock_epoch_jump;
  }
};

/// Turns a FaultPlan into per-event decisions. One injector serves one
/// scenario (one simulator); all methods are single-threaded like the
/// simulation itself.
class FaultInjector {
 public:
  /// `stream_seed` seeds the RNG streams (sessions pass
  /// derive_seed(scenario_seed, kFaultSeedStream), so per-trial scenarios
  /// get per-trial fault streams).
  FaultInjector(FaultPlan plan, std::uint64_t stream_seed);

  /// False when the plan can never inject anything; every hook is a no-op
  /// (and draws no randomness) in that case.
  bool active() const { return active_; }

  /// Advance per-round state (mute windows). Sessions call this at the
  /// start of every protocol attempt.
  void begin_round();

  /// Should `rx_node_id`'s preamble detector miss a frame whose first
  /// detectable path has `first_path_amplitude`? `chain` tags the injected
  /// miss with the causal chain id of the frame it killed (flight recorder).
  bool miss_preamble(int rx_node_id, double first_path_amplitude,
                     std::uint64_t chain = 0);

  /// Should `rx_node_id` deliver the just-decoded payload with a bad FCS?
  /// `chain` tags the injected error with the frame it corrupted.
  bool corrupt_crc(int rx_node_id, std::uint64_t chain = 0);

  /// Should `tx_node_id`'s armed delayed TX abort with HPDWARN?
  bool abort_delayed_tx(int tx_node_id);

  /// Is `node_id` inside a mute window this round? (Draws the window start
  /// on first query of a round; repeated queries in one round are stable.)
  bool responder_muted(int node_id);

  /// Extra reply latency [s] for this response (0 when jitter is off).
  double reply_jitter_s(int node_id);

  /// Clock anomaly for `node_id` this round; both fields 0 when none fires.
  struct ClockGlitch {
    double drift_step_ppm = 0.0;
    double epoch_jump_s = 0.0;
  };
  ClockGlitch clock_glitch(int node_id);

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counters_; }

 private:
  struct NodeState {
    Rng rng;
    /// Mute rounds remaining (including the current one).
    int mute_rounds_left = 0;
    /// Round number responder_muted() last drew for.
    std::uint64_t mute_drawn_round = 0;
    explicit NodeState(StreamSeed seed) : rng(seed) {}
  };

  NodeState& state(int node_id);

  FaultPlan plan_;
  bool active_ = false;
  std::uint64_t stream_base_ = 0;
  std::uint64_t round_ = 0;
  std::map<int, NodeState> states_;
  FaultCounters counters_;
};

}  // namespace uwb::fault
