#include "ranging/session.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ranging/twr.hpp"

namespace uwb::ranging {

namespace {
constexpr int kInitiatorId = -1;
/// derive_seed stream tag separating the fault injector's RNG streams from
/// every simulation stream (sim::medium_seed, sim::node_seed and the
/// session's own Rng(config.seed)).
constexpr std::uint64_t kFaultSeedStream = 0xFA170001u;
/// Stream tag of the attack injector: disjoint from the fault and
/// simulation streams so an attack plan perturbs neither.
constexpr std::uint64_t kAttackSeedStream = 0xA77AC001u;
/// Extra listen time after the last RPM slot before the initiator's RX
/// window times out.
constexpr Seconds kRxExtraListen{5000e-6};
}  // namespace

const char* to_string(RangingStatus status) {
  switch (status) {
    case RangingStatus::kOk: return "ok";
    case RangingStatus::kNoPreamble: return "no_preamble";
    case RangingStatus::kCrcError: return "crc_error";
    case RangingStatus::kLateTxAbort: return "late_tx_abort";
    case RangingStatus::kTimedOut: return "timed_out";
    case RangingStatus::kSuspect: return "suspect";
  }
  return "unknown";
}

void ResilienceConfig::validate() const {
  UWB_EXPECTS(max_retries >= 0);
  UWB_EXPECTS(retry_backoff > Seconds(0.0));
  UWB_EXPECTS(backoff_factor >= 1.0);
}

Status ConcurrentRangingScenario::validate_config(
    const ScenarioConfig& config) {
  const auto invalid = [](std::string message) {
    return Status::error(ErrorCode::kInvalidConfig, std::move(message));
  };
  try {
    config.ranging.validate();
    config.resilience.validate();
    config.fault.validate();
    config.attack.validate();
    config.attack_detector.validate();
  } catch (const PreconditionError& e) {
    return invalid(e.what());
  }
  if (config.responders.empty()) return invalid("no responders configured");
  std::set<int> ids;
  for (const ResponderSpec& spec : config.responders) {
    if (spec.id < 0 || spec.id > 255)
      return invalid("responder id " + std::to_string(spec.id) +
                     " outside [0, 255]");
    if (spec.id >= config.ranging.max_responders())
      return invalid("responder id " + std::to_string(spec.id) +
                     " exceeds the " +
                     std::to_string(config.ranging.max_responders()) +
                     " addressable ids of " +
                     std::to_string(config.ranging.num_slots) + " slots x " +
                     std::to_string(config.ranging.num_pulse_shapes()) +
                     " pulse shapes");
    if (!ids.insert(spec.id).second)
      return invalid("duplicate responder id " + std::to_string(spec.id));
  }
  // A compromised node must exist to be compromised: every attacker id has
  // to name a configured responder.
  for (const fault::AttackSpec& spec : config.attack.specs)
    if (ids.count(spec.attacker_id) == 0)
      return invalid("attacker id " + std::to_string(spec.attacker_id) +
                     " is not a configured responder");
  return Status::success();
}

Result<std::unique_ptr<ConcurrentRangingScenario>>
ConcurrentRangingScenario::create(ScenarioConfig config) {
  Status status = validate_config(config);
  if (!status.ok()) return status;
  return std::make_unique<ConcurrentRangingScenario>(std::move(config));
}

ConcurrentRangingScenario::ConcurrentRangingScenario(ScenarioConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      detector_(config_.ranging.detector_config()) {
  config_.ranging.validate();
  config_.resilience.validate();
  UWB_EXPECTS(!config_.responders.empty());

  medium_ = std::make_unique<sim::Medium>(
      sim_, channel::ChannelModel(config_.room, config_.channel),
      config_.medium, Rng(sim::medium_seed(config_.seed)));

  // The injector never touches rng_: its streams derive from the scenario
  // seed through an independent splitmix64 stream, so an inert plan leaves
  // every simulation draw — and therefore every result — byte-identical.
  if (config_.fault.active()) {
    injector_ = std::make_unique<fault::FaultInjector>(
        config_.fault, derive_seed(config_.seed, kFaultSeedStream));
    medium_->set_fault_injector(injector_.get());
  }

  // Same contract as the fault injector: attack streams derive from the
  // scenario seed through a disjoint tag, so an inert plan (and the inert
  // default) stays byte-identical — including every CIR tap.
  if (config_.attack.active()) {
    attacker_ = std::make_unique<fault::AttackInjector>(
        config_.attack, derive_seed(config_.seed, kAttackSeedStream));
    medium_->set_attack_injector(attacker_.get());
  }
  if (config_.attack_detector.enabled)
    attack_detector_ =
        std::make_unique<AttackDetector>(config_.attack_detector);
  for (const ResponderSpec& spec : config_.responders)
    configured_ids_.insert(spec.id);

  const auto make_node_config = [&](int id, geom::Vec2 pos) {
    sim::NodeConfig nc;
    nc.id = id;
    nc.position = pos;
    nc.clock_epoch_offset =
        SimTime::from_seconds(rng_.uniform(0.0, 17.0));
    nc.drift_ppm = rng_.normal(0.0, config_.clock_drift_sigma_ppm);
    nc.phy = config_.phy;
    nc.cir = config_.cir;
    nc.delayed_tx_truncation = config_.delayed_tx_truncation;
    nc.antenna_delay = config_.antenna_delay;
    return nc;
  };

  initiator_ = std::make_unique<sim::Node>(
      sim_, *medium_,
      make_node_config(kInitiatorId, config_.initiator_position),
      Rng(sim::node_seed(config_.seed, kInitiatorId)));
  initiator_->set_rx_handler(
      [this](sim::RxResult&& r) { initiator_result_ = std::move(r); });

  for (const ResponderSpec& spec : config_.responders) {
    UWB_EXPECTS(spec.id >= 0 && spec.id <= 255);
    auto nc = make_node_config(spec.id, spec.position);
    nc.phy.tc_pgdelay =
        assign_responder(spec.id, config_.ranging).shape_register;
    auto node = std::make_unique<sim::Node>(
        sim_, *medium_, nc, Rng(sim::node_seed(config_.seed, spec.id)));
    const auto [it, inserted] = responders_.emplace(spec.id, std::move(node));
    UWB_EXPECTS(inserted);
    (void)it;
    arm_responder(spec.id);
  }
}

ConcurrentRangingScenario::~ConcurrentRangingScenario() = default;

sim::Node& ConcurrentRangingScenario::responder_node(int responder_id) {
  const auto it = responders_.find(responder_id);
  UWB_EXPECTS(it != responders_.end());
  return *it->second;
}

Meters ConcurrentRangingScenario::true_distance(int responder_id) const {
  const auto it = responders_.find(responder_id);
  UWB_EXPECTS(it != responders_.end());
  return Meters(
      geom::distance(config_.initiator_position, it->second->position()));
}

void ConcurrentRangingScenario::set_initiator_position(geom::Vec2 position) {
  config_.initiator_position = position;
  initiator_->set_position(position);
}

void ConcurrentRangingScenario::arm_responder(int responder_id) {
  sim::Node& node = *responders_.at(responder_id);
  node.set_rx_handler([this, responder_id, &node](const sim::RxResult& r) {
    if (!r.frame || r.frame->type != dw::FrameType::Init) return;
    const SlotAssignment a =
        assign_responder(responder_id, config_.ranging);
    // Injected MCU scheduling jitter perturbs the programmed reply delay
    // before the hardware quantisation, like a slow interrupt handler would.
    const double jitter_s =
        injector_ != nullptr ? injector_->reply_jitter_s(responder_id) : 0.0;
    const dw::DwTimestamp target = r.rx_timestamp.plus_seconds(Seconds(
        config_.ranging.response_delay_s + a.extra_delay_s + jitter_s));
    const dw::DwTimestamp actual = node.delayed_tx_time(target);

    dw::MacFrame resp;
    resp.type = dw::FrameType::Resp;
    resp.src = static_cast<std::uint16_t>(responder_id);
    resp.responder_id = static_cast<std::uint8_t>(responder_id);
    resp.rx_timestamp = r.rx_timestamp;
    resp.tx_timestamp = actual;
    if (attacker_ != nullptr) {
      // Clock-skew attack: a compromised responder reports a forged TX
      // timestamp. Only the *payload* lies — the frame still leaves the
      // antenna at `actual`, so truths and arrivals are untouched.
      const double bias_s = attacker_->reply_timestamp_bias_s(responder_id);
      if (bias_s != 0.0)
        resp.tx_timestamp = actual.plus_seconds(Seconds(bias_s));
    }
    if (!node.schedule_delayed_tx(resp, actual)) {
      // HPDWARN late abort (natural or injected): no frame leaves the
      // antenna; the round degrades instead of the run aborting.
      late_aborted_.insert(responder_id);
      return;
    }

    ResponderTruth truth;
    truth.id = responder_id;
    truth.true_distance_m = true_distance(responder_id).value();
    truth.resp_tx_rmarker = node.clock().global_time_of(actual, sim_.now());
    truth.resp_arrival =
        truth.resp_tx_rmarker +
        to_sim_time(tof_from_distance(Meters(truth.true_distance_m)));
    truths_.push_back(truth);
  });
}

RoundOutcome ConcurrentRangingScenario::run_round() {
  UWB_OBS_SPAN("session_round");
  // Every event recorded while this round runs carries (scenario seed,
  // round index); the context clock starts at the current simulated time
  // and follows the simulator's dispatch loop from there.
  UWB_FR_SESSION_SCOPE(config_.seed, static_cast<std::uint32_t>(stats_.rounds));
  UWB_FR_SET_TIME(sim_.now());
  const int max_attempts = 1 + config_.resilience.max_retries;
  RoundOutcome out;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic exponential backoff in simulated time before the
      // next attempt: backoff * factor^(k-1) for retry k.
      const Seconds backoff =
          config_.resilience.retry_backoff *
          std::pow(config_.resilience.backoff_factor, attempt - 2);
      sim_.run_until(sim_.now() + to_sim_time(backoff));
      ++stats_.retry_attempts;
      UWB_OBS_COUNT("session_retry_attempts", 1);
    }
    UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "attempt_begin",
                 .node = kInitiatorId,
                 .v0 = {"attempt", static_cast<double>(attempt)});
    out = run_attempt();
    out.attempts = attempt;
    if (out.payload_decoded) break;
  }

  fill_reports(out);
  if (UWB_FR_ACTIVE()) {
    // Terminal event of every responder's chain this round: the status the
    // caller sees. explain_session.py anchors its narratives here.
    for (const ResponderReport& rep : out.responder_reports) {
      UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "responder_status",
                   .node = rep.id, .peer = kInitiatorId,
                   .detail = to_string(rep.status),
                   .v0 = {"attempts", static_cast<double>(out.attempts)});
    }
    UWB_FR_EVENT(.kind = obs::FrKind::kStatus, .name = "round_summary",
                 .chain = initiator_result_ ? initiator_result_->sync_chain
                                            : std::uint64_t{0},
                 .node = kInitiatorId,
                 .peer = out.payload_decoded ? out.sync_responder_id
                                             : obs::kFrNoNode,
                 .detail = out.payload_decoded  ? "decoded"
                           : out.completed      ? "no_payload"
                                                : "no_batch",
                 .v0 = {"d_twr_m", out.d_twr_m},
                 .v1 = {"frames_in_batch",
                        static_cast<double>(out.frames_in_batch)},
                 .v2 = {"attempts", static_cast<double>(out.attempts)});
  }
  ++stats_.rounds;
  const auto suspects = static_cast<std::uint64_t>(
      std::count_if(out.responder_reports.begin(), out.responder_reports.end(),
                    [](const ResponderReport& r) {
                      return r.status == RangingStatus::kSuspect;
                    }));
  if (suspects > 0) {
    stats_.suspect_reports += suspects;
    ++stats_.suspect_rounds;
    UWB_OBS_COUNT("session_suspect_reports", suspects);
  }
  if (out.degraded) {
    ++stats_.degraded_rounds;
    UWB_OBS_COUNT("session_degraded_rounds", 1);
  }
  if (!out.payload_decoded) {
    ++stats_.failed_rounds;
    UWB_OBS_COUNT("session_failed_rounds", 1);
  }
  return out;
}

RoundOutcome ConcurrentRangingScenario::run_attempt() {
  initiator_result_.reset();
  truths_.clear();
  muted_.clear();
  late_aborted_.clear();

  if (attacker_ != nullptr) attacker_->begin_round();
  if (injector_ != nullptr) {
    injector_->begin_round();
    // Clock anomalies strike at round boundaries: drift steps perturb the
    // CFO/Eq. 2 correction, epoch jumps exercise the wrap-aware timestamp
    // arithmetic. Initiator first, then responders in ascending id order
    // (deterministic draw order).
    const auto apply_glitch = [this](int id, sim::Node& node) {
      const fault::FaultInjector::ClockGlitch g = injector_->clock_glitch(id);
      if (g.drift_step_ppm != 0.0 || g.epoch_jump_s != 0.0)
        node.apply_clock_glitch(g.drift_step_ppm, g.epoch_jump_s);
    };
    apply_glitch(kInitiatorId, *initiator_);
    for (auto& [id, node] : responders_) {
      apply_glitch(id, *node);
      if (injector_->responder_muted(id)) muted_.insert(id);
    }
  }

  const SimTime t0 = sim_.now() + SimTime::from_micros(50.0);
  for (auto& [id, node] : responders_) {
    sim::Node* n = node.get();
    if (muted_.count(id) != 0) {
      // Mute window: the radio is off for the whole round.
      sim_.at(t0, [n]() {
        if (n->in_rx()) n->exit_rx();
      });
      continue;
    }
    sim_.at(t0, [n]() {
      if (!n->in_rx()) n->enter_rx();
    });
  }

  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  const double init_airtime =
      config_.phy.frame_duration_s(init.payload_bytes());

  const SimTime t_tx = t0 + SimTime::from_micros(20.0);
  sim_.at(t_tx, [this, init]() {
    initiator_->exit_rx();
    t_tx_init_ = initiator_->transmit_now(init);
  });
  sim_.at(
      t_tx + SimTime::from_seconds(init_airtime) + SimTime::from_micros(5.0),
      [this]() { initiator_->enter_rx(); });

  const double max_extra =
      config_.ranging.num_slots > 1
          ? (config_.ranging.num_slots - 1) * config_.ranging.slot_spacing_s
          : 0.0;
  // Kept as a separate SimTime conversion (not folded into the double sum):
  // this reproduces the historical deadline bit for bit, so zero-fault runs
  // stay byte-identical.
  const SimTime deadline =
      t_tx + SimTime::from_seconds(config_.ranging.response_delay_s +
                                   max_extra) +
      to_sim_time(kRxExtraListen);
  sim_.run_until(deadline);

  RoundOutcome out;
  std::sort(truths_.begin(), truths_.end(),
            [](const ResponderTruth& a, const ResponderTruth& b) {
              return a.resp_arrival < b.resp_arrival;
            });
  out.truths = truths_;

  if (!initiator_result_) {
    initiator_->exit_rx();
    return out;
  }
  sim::RxResult& r = *initiator_result_;
  out.completed = true;
  {
    // The initiator is the round's only CIR consumer: responders timestamp
    // the INIT and never render theirs. The capture is spent once rendered,
    // so the round keeps the taps alone. A lone RESP's diffuse tail is
    // drawn by this render (sim::BatchCapture).
    UWB_OBS_SPAN("cir_render");
    out.cir = std::exchange(r.cir, {}).render();
  }
  out.frames_in_batch = r.frames_in_batch;
  out.crc_error = r.crc_error;

  if (!r.frame || r.frame->type != dw::FrameType::Resp) return out;
  out.payload_decoded = true;
  out.sync_responder_id = r.frame->responder_id;

  // TWR math and CIR detection below are consequences of the sync frame's
  // reception — their events belong to its chain.
  UWB_FR_CHAIN_SCOPE(r.sync_chain);

  TwrTimestamps ts;
  ts.t_tx_init = t_tx_init_;
  ts.t_rx_resp = r.frame->rx_timestamp;
  ts.t_tx_resp = r.frame->tx_timestamp;
  ts.t_rx_init = r.rx_timestamp;
  out.d_twr_m = ss_twr_distance(
                    ts, config_.cfo_correction ? r.carrier_offset_ppm : 0.0)
                    .value();

  const int max_responses = config_.detect_max_responses > 0
                                ? config_.detect_max_responses
                                : static_cast<int>(responders_.size());
  {
    UWB_OBS_SPAN("detect");
    out.detections =
        detector_.detect(out.cir.taps, out.cir.ts_s, max_responses);
  }
  const int sync_slot =
      assign_responder(out.sync_responder_id, config_.ranging).slot;
  {
    UWB_OBS_SPAN("interpret_responses");
    out.estimates = interpret_responses(out.detections, config_.ranging,
                                        out.d_twr_m, sync_slot);
  }
  if (attack_detector_ != nullptr) {
    // Cross-check the round before slot-aware selection collapses the
    // estimates: the detector needs the uncollapsed 1:1 detection/estimate
    // pairing. Runs inside the sync chain scope, so verdict events land on
    // the chain explain_session.py walks for this round.
    UWB_OBS_SPAN("attack_detect");
    RoundView view;
    view.cfo_ppm = r.carrier_offset_ppm;
    view.reply_s = ts.t_tx_resp.diff_seconds(ts.t_rx_resp).value();
    view.programmed_reply_s =
        config_.ranging.response_delay_s +
        assign_responder(out.sync_responder_id, config_.ranging).extra_delay_s;
    view.sync_responder_id = out.sync_responder_id;
    view.cir = &out.cir;
    view.detections = &out.detections;
    view.estimates = &out.estimates;
    view.configured_ids = &configured_ids_;
    out.verdicts = attack_detector_->detect(view);
  }
  if (config_.slot_aware_selection)
    out.estimates = select_slot_responses(out.estimates, config_.ranging);
  return out;
}

void ConcurrentRangingScenario::fill_reports(RoundOutcome& out) const {
  out.responder_reports.clear();
  out.responder_reports.reserve(responders_.size());

  const auto transmitted = [&out](int id) {
    return std::any_of(out.truths.begin(), out.truths.end(),
                       [id](const ResponderTruth& t) { return t.id == id; });
  };
  const auto in_batch = [this](int id) {
    if (!initiator_result_) return false;
    const auto& ids = initiator_result_->batch_tx_node_ids;
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  };

  for (const auto& [id, node] : responders_) {
    (void)node;
    ResponderReport rep;
    rep.id = id;
    if (muted_.count(id) != 0) {
      rep.status = RangingStatus::kTimedOut;  // radio off: silence, timeout
    } else if (late_aborted_.count(id) != 0) {
      rep.status = RangingStatus::kLateTxAbort;
    } else if (!transmitted(id)) {
      rep.status = RangingStatus::kNoPreamble;  // missed the INIT preamble
    } else if (!out.completed) {
      rep.status = RangingStatus::kTimedOut;  // initiator RX window expired
    } else if (!in_batch(id)) {
      rep.status = RangingStatus::kNoPreamble;  // RESP lost at the initiator
    } else if (!out.payload_decoded) {
      rep.status = RangingStatus::kCrcError;  // sync payload corrupted
    } else if (std::any_of(out.verdicts.begin(), out.verdicts.end(),
                           [id = id](const AttackVerdict& v) {
                             return v.responder_id == id;
                           })) {
      rep.status = RangingStatus::kSuspect;  // indicted by a detector check
    } else {
      rep.status = RangingStatus::kOk;
    }
    out.responder_reports.push_back(rep);
  }

  out.degraded =
      out.payload_decoded &&
      std::any_of(out.responder_reports.begin(), out.responder_reports.end(),
                  [](const ResponderReport& r) {
                    return r.status != RangingStatus::kOk;
                  });
}

}  // namespace uwb::ranging
