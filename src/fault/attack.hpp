// Deterministic adversary model (DESIGN.md Sect. 15) — the malicious
// counterpart of the benign FaultPlan in fault.hpp.
//
// An AttackPlan declares which responders are compromised and what each one
// does; an AttackInjector turns the plan into concrete per-frame
// manipulations at the same well-defined hook points the fault injector
// uses: frame transmission (carrier overshoot, forged pulse shape), per-link
// delivery (ghost CIR taps), and reply arming (biased TX timestamps).
//
// The three attack kinds map to published UWB attack classes:
//   kClockSkew   — attacker-controlled crystal drift/overshoot ("Time for
//                  Change: How Clocks Break UWB Secure Ranging"): the
//                  compromised responder's carrier overshoots its timestamp
//                  clock (spoofing the initiator's CFO estimate and thereby
//                  Eq. 2's drift correction) and/or its reported RESP TX
//                  timestamp is biased to inflate the reply interval —
//                  both shrink the measured distance.
//   kGhostPeak   — Cicada-style early-pulse injection: adversarial taps are
//                  appended to the victim's CIR ahead of the legitimate
//                  first path, so CIR-based first-path estimates (paper
//                  Sect. IV) move closer without touching any timestamp.
//   kShapeReplay — replayed/forged responder pulse shapes (TC_PGDELAY): the
//                  attacker transmits another shape register to defeat
//                  pulse-shape responder identification (paper Sect. V) and
//                  the XcorrIdentifier baseline.
//
// Determinism contract (identical to FaultInjector): every decision is
// drawn from per-attacker streams derived with derive_seed — keyed by
// (attacker, frame chain[, receiver]) so culled and unculled runs, and any
// Monte-Carlo worker-thread count, produce bit-identical attack sequences.
// The injector owns its streams outright and never draws from (or reorders
// draws of) the simulation RNGs: a plan whose every strength is zero is
// *byte-identical* to running without the subsystem.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"

namespace uwb::fault {

enum class AttackKind : std::uint8_t {
  kClockSkew,    ///< carrier overshoot / biased reply timestamps
  kGhostPeak,    ///< early adversarial CIR taps
  kShapeReplay,  ///< forged TC_PGDELAY pulse shape
};

const char* to_string(AttackKind kind);

/// What one compromised responder does. Strengths default to zero / inert;
/// a spec only participates when active().
struct AttackSpec {
  /// Node id of the compromised responder.
  int attacker_id = 0;
  AttackKind kind = AttackKind::kClockSkew;
  /// Per-frame probability the attacker manipulates a given frame
  /// (kGhostPeak / kShapeReplay; kClockSkew is continuous by nature).
  double probability = 1.0;

  // --- kClockSkew -----------------------------------------------------------
  /// Carrier overshoot [ppm] added to the attacker's true crystal drift as
  /// seen by receivers' CFO estimators. Negative values make the attacker
  /// look slower than its timestamp clock, shrinking the drift-corrected
  /// SS-TWR distance by ~c * |spoof| * 1e-6 * t_reply / 2.
  double cfo_spoof_ppm = 0.0;
  /// Overshoot ramp [ppm per round] on top of cfo_spoof_ppm — the gradual
  /// drift attack that stays under a static plausibility bound until it
  /// doesn't.
  double cfo_ramp_ppm_per_round = 0.0;
  /// Bias [s] added to the RESP TX timestamp the attacker reports in its
  /// payload (the actual transmission is unchanged). Positive bias inflates
  /// the reply interval and shrinks the measured distance by c * bias / 2.
  double reply_bias_s = 0.0;

  // --- kGhostPeak -----------------------------------------------------------
  /// How far ahead of the legitimate first path the ghost tap lands [s].
  /// Physically capped at the attacker's one-way propagation delay: a CIR
  /// tap cannot precede the frame's transmission instant, so larger
  /// advances clamp to channel delay 0 (the injector enforces this). The
  /// attacker can thus at best pretend to be colocated with the receiver.
  double ghost_advance_s = 0.0;
  /// Ghost tap amplitude relative to the legitimate first-path amplitude.
  double ghost_rel_amplitude = 1.0;
  /// Number of ghost taps per manipulated frame (a pulse train), spaced
  /// 1 ns apart walking back from ghost_advance_s (attack.cpp).
  int ghost_count = 1;

  // --- kShapeReplay ---------------------------------------------------------
  /// TC_PGDELAY register transmitted instead of the assigned one
  /// (-1 = none). Typically another responder's register, or one outside
  /// the session's bank.
  int forged_shape_register = -1;

  /// True when the spec can manipulate anything.
  bool active() const;
  /// Throws PreconditionError on out-of-range values.
  void validate() const;
};

/// Declarative adversary description. Default-constructed (and any plan
/// whose specs are all inert) injects nothing and perturbs nothing: the
/// session then builds no injector, and every hook is a null pointer check.
struct AttackPlan {
  std::vector<AttackSpec> specs;

  /// True when at least one spec is active.
  bool active() const;
  /// Throws PreconditionError on invalid specs or duplicate attacker ids.
  void validate() const;
};

/// Tally of injected manipulations, by attack kind. Deterministic under the
/// same contract as the decisions themselves.
struct AttackCounters {
  std::uint64_t cfo_spoofed_frames = 0;
  std::uint64_t biased_replies = 0;
  std::uint64_t ghost_taps = 0;
  std::uint64_t forged_shapes = 0;

  std::uint64_t total() const {
    return cfo_spoofed_frames + biased_replies + ghost_taps + forged_shapes;
  }
};

/// One adversarial CIR tap, in the Medium's tap coordinates (absolute
/// TX->RX propagation delay). Kept free of sim-layer types so uwb_fault
/// stays below uwb_sim in the dependency order.
struct GhostTap {
  double delay_s = 0.0;
  Complex amplitude;
};

/// Turns an AttackPlan into per-frame manipulations. One injector serves
/// one scenario; all methods are single-threaded like the simulation.
class AttackInjector {
 public:
  /// `stream_seed` seeds the RNG streams (sessions pass
  /// derive_seed(scenario_seed, kAttackSeedStream)).
  AttackInjector(AttackPlan plan, std::uint64_t stream_seed);

  /// False when the plan can never manipulate anything; every hook is a
  /// no-op (and draws no randomness) in that case.
  bool active() const { return active_; }

  /// Advance per-round state (the overshoot ramp). Sessions call this at
  /// the start of every protocol attempt, next to FaultInjector::begin_round.
  void begin_round();

  /// Carrier overshoot [ppm] the attacker's radio applies on top of its
  /// crystal's true drift for the frame with causal chain id `chain`
  /// (sim::Medium::transmit hook). 0 for honest transmitters.
  double cfo_spoof_ppm(int tx_node_id, std::uint64_t chain);

  /// Forged TC_PGDELAY register for this frame, or -1 to transmit the
  /// assigned shape (sim::Medium::transmit hook).
  int forged_shape_register(int tx_node_id, std::uint64_t chain);

  /// Bias [s] the responder adds to the TX timestamp it reports in its
  /// RESP payload (ranging session hook). 0 for honest responders.
  double reply_timestamp_bias_s(int responder_id);

  /// Adversarial taps to append to the frame `chain` from `tx_node_id` as
  /// received by `rx_node_id`, given the legitimate first detectable path
  /// (sim::Medium::deliver hook). Appends to `out` (not cleared). The
  /// fire/skip decision is drawn per frame (all receivers agree — the ghost
  /// pulse is on the air); phases are drawn per (frame, receiver). Both
  /// streams are keyed by the frame chain, so culling and delivery order
  /// cannot perturb them.
  void ghost_taps(int tx_node_id, int rx_node_id, std::uint64_t chain,
                  double first_path_delay_s, double first_path_amplitude,
                  std::vector<GhostTap>& out);

  const AttackPlan& plan() const { return plan_; }
  const AttackCounters& counters() const { return counters_; }

 private:
  /// Per-attacker stream base: derive_seed(stream_base_, attacker_id).
  std::uint64_t attacker_stream(int attacker_id) const;
  /// The active spec for a node, or nullptr (honest node fast path).
  const AttackSpec* spec(int node_id) const;
  /// Per-frame manipulation decision for probabilistic kinds.
  bool frame_selected(const AttackSpec& s, std::uint64_t chain) const;

  AttackPlan plan_;
  bool active_ = false;
  std::uint64_t stream_base_ = 0;
  std::uint64_t round_ = 0;
  /// attacker id -> index into plan_.specs (sorted map: deterministic).
  std::map<int, std::size_t> spec_index_;
  AttackCounters counters_;
};

}  // namespace uwb::fault
