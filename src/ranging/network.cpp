#include "ranging/network.hpp"

#include <algorithm>
#include <utility>

#include "common/expects.hpp"
#include "obs/obs.hpp"
#include "ranging/twr.hpp"

namespace uwb::ranging {

NetworkRangingSession::NetworkRangingSession(NetworkConfig config)
    : config_(std::move(config)), rng_(config_.seed),
      detector_(config_.ranging.detector_config()) {
  config_.ranging.validate();
  UWB_EXPECTS(config_.node_positions.size() >= 2);
  UWB_EXPECTS(static_cast<int>(config_.node_positions.size()) - 1 <=
              config_.ranging.max_responders());

  medium_ = std::make_unique<sim::Medium>(
      sim_, channel::ChannelModel(config_.room, config_.channel),
      config_.medium, Rng(sim::medium_seed(config_.seed)));

  for (std::size_t i = 0; i < config_.node_positions.size(); ++i) {
    sim::NodeConfig nc;
    nc.id = static_cast<int>(i);
    nc.position = config_.node_positions[i];
    nc.clock_epoch_offset = SimTime::from_seconds(rng_.uniform(0.0, 17.0));
    nc.drift_ppm = rng_.normal(0.0, config_.clock_drift_sigma_ppm);
    nc.phy = config_.phy;
    nc.cir = config_.cir;
    nc.delayed_tx_truncation = config_.delayed_tx_truncation;
    nodes_.push_back(std::make_unique<sim::Node>(
        sim_, *medium_, nc, Rng(sim::node_seed(config_.seed, nc.id))));
  }
}

NetworkRangingSession::~NetworkRangingSession() = default;

sim::Node& NetworkRangingSession::node(int index) {
  UWB_EXPECTS(index >= 0 && index < node_count());
  return *nodes_[static_cast<std::size_t>(index)];
}

Meters NetworkRangingSession::true_distance(int i, int j) const {
  UWB_EXPECTS(i >= 0 && i < static_cast<int>(config_.node_positions.size()));
  UWB_EXPECTS(j >= 0 && j < static_cast<int>(config_.node_positions.size()));
  return Meters(
      geom::distance(config_.node_positions[static_cast<std::size_t>(i)],
                     config_.node_positions[static_cast<std::size_t>(j)]));
}

int NetworkRangingSession::responder_id_of(int node_index,
                                           int initiator_index) const {
  UWB_EXPECTS(node_index != initiator_index);
  return node_index < initiator_index ? node_index : node_index - 1;
}

int NetworkRangingSession::node_of_responder(int responder_id,
                                             int initiator_index) const {
  return responder_id < initiator_index ? responder_id : responder_id + 1;
}

NetworkRound NetworkRangingSession::run_round(int initiator_index) {
  UWB_EXPECTS(initiator_index >= 0 && initiator_index < node_count());
  current_initiator_ = initiator_index;
  initiator_result_.reset();

  sim::Node& initiator = *nodes_[static_cast<std::size_t>(initiator_index)];
  initiator.set_rx_handler(
      [this](sim::RxResult&& r) { initiator_result_ = std::move(r); });

  // Arm every other node as a responder with its per-round identity.
  for (int i = 0; i < node_count(); ++i) {
    if (i == initiator_index) continue;
    sim::Node* responder = nodes_[static_cast<std::size_t>(i)].get();
    const int rid = responder_id_of(i, initiator_index);
    const SlotAssignment a = assign_responder(rid, config_.ranging);
    responder->set_tc_pgdelay(a.shape_register);
    responder->set_rx_handler([this, responder, rid,
                               a](const sim::RxResult& r) {
      if (!r.frame || r.frame->type != dw::FrameType::Init) return;
      const dw::DwTimestamp target = r.rx_timestamp.plus_seconds(
          Seconds(config_.ranging.response_delay_s + a.extra_delay_s));
      const dw::DwTimestamp actual = responder->delayed_tx_time(target);
      dw::MacFrame resp;
      resp.type = dw::FrameType::Resp;
      resp.src = static_cast<std::uint16_t>(responder->id());
      resp.responder_id = static_cast<std::uint8_t>(rid);
      resp.rx_timestamp = r.rx_timestamp;
      resp.tx_timestamp = actual;
      if (!responder->schedule_delayed_tx(resp, actual)) return;
    });
  }

  const SimTime t0 = sim_.now() + SimTime::from_micros(50.0);
  for (int i = 0; i < node_count(); ++i) {
    if (i == initiator_index) continue;
    sim::Node* n = nodes_[static_cast<std::size_t>(i)].get();
    sim_.at(t0, [n]() {
      if (!n->in_rx()) n->enter_rx();
    });
  }

  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  init.src = static_cast<std::uint16_t>(initiator_index);
  const double init_airtime =
      config_.phy.frame_duration_s(init.payload_bytes());
  const SimTime t_tx = t0 + SimTime::from_micros(20.0);
  sim_.at(t_tx, [this, &initiator, init]() {
    initiator.exit_rx();
    t_tx_init_ = initiator.transmit_now(init);
  });
  sim_.at(
      t_tx + SimTime::from_seconds(init_airtime) + SimTime::from_micros(5.0),
      [&initiator]() { initiator.enter_rx(); });

  const double max_extra =
      config_.ranging.num_slots > 1
          ? (config_.ranging.num_slots - 1) * config_.ranging.slot_spacing_s
          : 0.0;
  sim_.run_until(t_tx +
                 SimTime::from_seconds(config_.ranging.response_delay_s +
                                       max_extra) +
                 SimTime::from_micros(5000.0));

  NetworkRound round;
  round.initiator = initiator_index;
  round.distances.assign(static_cast<std::size_t>(node_count()), std::nullopt);

  // Leave every responder idle for the next round.
  for (int i = 0; i < node_count(); ++i)
    if (i != initiator_index) nodes_[static_cast<std::size_t>(i)]->exit_rx();

  if (!initiator_result_) {
    initiator.exit_rx();
    return round;
  }
  sim::RxResult& r = *initiator_result_;
  round.frames_in_batch = r.frames_in_batch;
  if (!r.frame || r.frame->type != dw::FrameType::Resp) return round;
  round.completed = true;

  TwrTimestamps ts;
  ts.t_tx_init = t_tx_init_;
  ts.t_rx_resp = r.frame->rx_timestamp;
  ts.t_tx_resp = r.frame->tx_timestamp;
  ts.t_rx_init = r.rx_timestamp;
  const double d_twr = ss_twr_distance(ts, r.carrier_offset_ppm).value();

  const int max_responses = std::max(
      node_count() - 1,
      config_.slot_aware_selection ? 2 * (node_count() - 1) : 0);
  dw::CirEstimate cir;
  {
    // The round's only render; it completes a lone RESP's channel.
    UWB_OBS_SPAN("cir_render");
    cir = std::exchange(r.cir, {}).render();
  }
  const auto detections = detector_.detect(cir.taps, cir.ts_s, max_responses);
  const int sync_slot =
      assign_responder(r.frame->responder_id, config_.ranging).slot;
  auto estimates =
      interpret_responses(detections, config_.ranging, d_twr, sync_slot);
  if (config_.slot_aware_selection)
    estimates = select_slot_responses(estimates, config_.ranging);

  for (const ResponderEstimate& est : estimates) {
    if (est.responder_id < 0 || est.responder_id >= node_count() - 1) continue;
    const int node_index = node_of_responder(est.responder_id, initiator_index);
    auto& slot = round.distances[static_cast<std::size_t>(node_index)];
    if (!slot.has_value()) slot = est.distance_m;
  }
  return round;
}

NetworkSweep NetworkRangingSession::run_full_sweep() {
  NetworkSweep sweep;
  const double start_s = sim_.now().seconds();
  const auto count = static_cast<std::size_t>(node_count());
  sweep.matrix.assign(count, std::vector<std::optional<double>>(count));
  for (int i = 0; i < node_count(); ++i) {
    const NetworkRound round = run_round(i);
    if (round.completed) ++sweep.completed_rounds;
    sweep.matrix[static_cast<std::size_t>(i)] = round.distances;
  }
  sweep.duration_s = sim_.now().seconds() - start_s;
  for (const auto& n : nodes_) sweep.total_energy_j += n->energy().energy_j();
  return sweep;
}

}  // namespace uwb::ranging
