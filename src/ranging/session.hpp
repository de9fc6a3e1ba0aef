// High-level concurrent-ranging scenario runner — the library's main entry
// point. Owns the simulator, medium, and nodes; each run_round() performs
// one full concurrent-ranging round (INIT broadcast, simultaneous RESPs,
// CIR detection, slot/shape decoding, Eq. 2/4 distance computation) and
// returns everything a caller or experiment harness needs.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include <set>

#include "channel/channel_model.hpp"
#include "common/result.hpp"
#include "dw1000/cir.hpp"
#include "dw1000/phy_config.hpp"
#include "fault/attack.hpp"
#include "fault/fault.hpp"
#include "geom/room.hpp"
#include "ranging/attack_detector.hpp"
#include "ranging/protocol.hpp"
#include "ranging/search_subtract.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::ranging {

/// Per-responder outcome of a round, from the session's orchestration view
/// (DESIGN.md Sect. 10 maps each variant to its DW1000 failure mode).
enum class RangingStatus {
  /// The responder's RESP reached the initiator's batch and the round's
  /// sync payload decoded.
  kOk,
  /// A preamble detector failed to lock: the responder missed the INIT, or
  /// its RESP was lost at the initiator.
  kNoPreamble,
  /// The RESP arrived but the round's sync payload failed its FCS, so no
  /// d_TWR anchor exists to place any distance.
  kCrcError,
  /// The responder's delayed TX aborted (DW1000 HPDWARN half-period
  /// warning, or an injected late-TX fault).
  kLateTxAbort,
  /// The initiator's RX window expired without attributing this responder
  /// (muted responder, or no RESP batch formed at all).
  kTimedOut,
  /// The exchange completed but the AttackDetector indicted this responder
  /// (see RoundOutcome::verdicts for the check and evidence). Overrides kOk
  /// only: a responder that failed outright keeps its failure status.
  kSuspect,
};

const char* to_string(RangingStatus status);

/// One responder's report for one round (final attempt).
struct ResponderReport {
  int id = -1;
  RangingStatus status = RangingStatus::kTimedOut;
};

/// Retry/timeout policy of the resilient session. Defaults reproduce the
/// historical single-attempt behaviour bit for bit.
struct ResilienceConfig {
  /// Additional protocol attempts after a failed round (0 = no retry). A
  /// round fails when its sync payload did not decode.
  int max_retries = 0;
  /// Simulated-time backoff before retry k (1-based):
  /// retry_backoff * backoff_factor^(k-1). Deterministic — no randomness.
  Seconds retry_backoff{500e-6};
  double backoff_factor = 2.0;

  void validate() const;
};

/// Aggregate resilience bookkeeping over a scenario's lifetime.
struct SessionStats {
  std::uint64_t rounds = 0;
  std::uint64_t retry_attempts = 0;
  /// Rounds whose sync payload decoded but with >= 1 responder not kOk.
  std::uint64_t degraded_rounds = 0;
  /// Rounds that still had no decoded payload after all retries.
  std::uint64_t failed_rounds = 0;
  /// Per-responder kSuspect reports issued (sum over rounds).
  std::uint64_t suspect_reports = 0;
  /// Rounds with >= 1 kSuspect report.
  std::uint64_t suspect_rounds = 0;
};

/// A responder taking part in the scenario. The ID determines its RPM slot
/// and pulse shape via assign_responder().
struct ResponderSpec {
  int id = 0;
  geom::Vec2 position;
};

struct ScenarioConfig {
  geom::Room room = geom::Room::rectangular(20.0, 10.0);
  channel::ChannelModelParams channel;
  sim::MediumParams medium;
  geom::Vec2 initiator_position{1.0, 5.0};
  std::vector<ResponderSpec> responders;
  ConcurrentRangingConfig ranging;
  dw::PhyConfig phy;
  dw::CirParams cir;
  /// Per-node crystal drift is drawn from N(0, sigma) [ppm].
  double clock_drift_sigma_ppm = 1.0;
  /// Responses the detector extracts per round; 0 = number of responders
  /// (the paper's "N-1 known" assumption). NLOS studies raise it so a
  /// weak responder outranked by multipath is still surfaced.
  int detect_max_responses = 0;
  /// Slot-aware selection (extension): collapse multiple detections that
  /// decode to the same responder ID into the best representative. Pairs
  /// well with a raised detect_max_responses.
  bool slot_aware_selection = false;
  /// Hardware delayed-TX truncation (ablation switch).
  bool delayed_tx_truncation = true;
  /// Apply the receiver's carrier-frequency-offset estimate to Eq. 2
  /// (ablation switch: off shows SS-TWR's raw drift sensitivity).
  bool cfo_correction = true;
  /// Physical per-device antenna delay applied to every node (0 =
  /// calibrated-out, the default for algorithm experiments). A symmetric
  /// delay inflates every SS-TWR distance by c * delay.
  Seconds antenna_delay{};
  /// Fault-injection plan (inert by default; see src/fault/fault.hpp). An
  /// all-zero plan leaves every RNG stream untouched, so results are
  /// byte-identical to a build without the subsystem.
  fault::FaultPlan fault;
  /// Adversary model (inert by default; see src/fault/attack.hpp). Same
  /// determinism contract as `fault`: an inactive plan is byte-identical to
  /// a build without the subsystem, including every CIR tap.
  fault::AttackPlan attack;
  /// Attack cross-checks (off by default; see ranging/attack_detector.hpp).
  /// Indicted responders report RangingStatus::kSuspect instead of kOk.
  AttackDetectorConfig attack_detector;
  /// Retry/timeout/degradation policy.
  ResilienceConfig resilience;
  std::uint64_t seed = 1;
};

/// Ground truth recorded per responder per round (for evaluation only —
/// nothing in the protocol path reads this).
struct ResponderTruth {
  int id = -1;
  double true_distance_m = 0.0;
  /// Global time this responder's RESP RMARKER left the antenna.
  SimTime resp_tx_rmarker;
  /// Global arrival time of its direct path at the initiator.
  SimTime resp_arrival;
};

struct RoundOutcome {
  /// The initiator's receiver produced a result at all.
  bool completed = false;
  /// The sync frame's payload decoded (prerequisite for d_twr).
  bool payload_decoded = false;
  /// Node id of the responder whose payload was decoded.
  int sync_responder_id = -1;
  /// SS-TWR distance to the sync responder [m] (Eq. 2, drift-corrected).
  double d_twr_m = 0.0;
  /// Raw detector output (ascending tau).
  std::vector<DetectedResponse> detections;
  /// Interpreted per-response estimates (distance, slot, shape, ID).
  std::vector<ResponderEstimate> estimates;
  /// The superposed CIR of the round.
  dw::CirEstimate cir;
  int frames_in_batch = 0;
  /// Ground truth per responder (keyed by arrival, ascending).
  std::vector<ResponderTruth> truths;
  /// Per-responder status of the final attempt, ascending responder id —
  /// one entry per configured responder, always populated. A round that
  /// loses k of N responders still carries the survivors' estimates; the
  /// casualties are reported here instead of aborting the round.
  std::vector<ResponderReport> responder_reports;
  /// AttackDetector indictments of the final attempt (empty when the
  /// detector is off or every check passed).
  std::vector<AttackVerdict> verdicts;
  /// Protocol attempts consumed (1 = no retry needed).
  int attempts = 1;
  /// Sync payload decoded but at least one responder is not kOk.
  bool degraded = false;
  /// The final attempt's sync payload failed its frame check sequence.
  bool crc_error = false;
};

class ConcurrentRangingScenario {
 public:
  /// Precondition: validate_config(config).ok(). Prefer create() when the
  /// configuration comes from user input.
  explicit ConcurrentRangingScenario(ScenarioConfig config);
  ~ConcurrentRangingScenario();

  ConcurrentRangingScenario(const ConcurrentRangingScenario&) = delete;
  ConcurrentRangingScenario& operator=(const ConcurrentRangingScenario&) =
      delete;

  /// Check a configuration for runtime-recoverable errors (user input):
  /// returns kInvalidConfig with a human-readable message instead of
  /// aborting. The constructor keeps UWB_EXPECTS for the same conditions as
  /// programmer-error preconditions.
  [[nodiscard]] static Status validate_config(const ScenarioConfig& config);

  /// Validating factory: the Status-path alternative to the throwing
  /// constructor.
  [[nodiscard]] static Result<std::unique_ptr<ConcurrentRangingScenario>>
  create(ScenarioConfig config);

  /// Run one concurrent-ranging round: up to 1 + max_retries protocol
  /// attempts with deterministic backoff, per-responder status reporting,
  /// and graceful degradation (survivors keep their estimates when some
  /// responders fail). Can be called repeatedly; simulated time advances
  /// monotonically and channels are redrawn per round.
  RoundOutcome run_round();

  /// Geometric initiator-responder distance.
  Meters true_distance(int responder_id) const;

  /// Move the initiator (e.g. a mobile tag between fixes).
  void set_initiator_position(geom::Vec2 position);

  sim::Node& initiator_node() { return *initiator_; }
  sim::Node& responder_node(int responder_id);
  sim::Simulator& simulator() { return sim_; }
  sim::Medium& medium() { return *medium_; }
  const sim::Medium& medium() const { return *medium_; }
  const ScenarioConfig& config() const { return config_; }
  const SearchSubtractDetector& detector() const { return detector_; }

  /// Fault injector (nullptr when the plan is inert).
  const fault::FaultInjector* fault_injector() const { return injector_.get(); }
  /// Attack injector (nullptr when the adversary plan is inert).
  const fault::AttackInjector* attack_injector() const {
    return attacker_.get();
  }
  /// Resilience bookkeeping since construction.
  const SessionStats& stats() const { return stats_; }

 private:
  void arm_responder(int responder_id);
  /// One protocol attempt (the historical run_round body).
  RoundOutcome run_attempt();
  /// Derive the per-responder reports / degraded flag of a finished attempt.
  void fill_reports(RoundOutcome& out) const;

  ScenarioConfig config_;
  Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Medium> medium_;
  std::unique_ptr<sim::Node> initiator_;
  std::map<int, std::unique_ptr<sim::Node>> responders_;
  SearchSubtractDetector detector_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::AttackInjector> attacker_;
  std::unique_ptr<AttackDetector> attack_detector_;
  /// Deployed responder IDs (the attack detector's unknown_id ground set).
  std::set<int> configured_ids_;
  SessionStats stats_;

  // Per-attempt state filled by the node callbacks.
  std::optional<sim::RxResult> initiator_result_;
  dw::DwTimestamp t_tx_init_;
  std::vector<ResponderTruth> truths_;
  std::set<int> muted_;
  std::set<int> late_aborted_;
};

}  // namespace uwb::ranging
