#include "ranging/dstwr.hpp"

#include "common/expects.hpp"

namespace uwb::ranging {

namespace {
/// Reply delay of both the RESP and the FINAL after the frame they answer.
constexpr Seconds kResponseDelay{290e-6};
}  // namespace

Seconds ds_twr_tof(const DsTwrTimestamps& ts) {
  const double ra = ts.t_rx_resp.diff_seconds(ts.t_tx_poll).value();
  const double da = ts.t_tx_final.diff_seconds(ts.t_rx_resp).value();
  const double rb = ts.t_rx_final.diff_seconds(ts.t_tx_resp).value();
  const double db = ts.t_tx_resp.diff_seconds(ts.t_rx_poll).value();
  UWB_EXPECTS(ra > 0.0 && da > 0.0 && rb > 0.0 && db > 0.0);
  // The products of intervals are not themselves durations, so this formula
  // runs on raw values and re-enters the unit system at the end.
  return Seconds((ra * rb - da * db) / (ra + rb + da + db));
}

Meters ds_twr_distance(const DsTwrTimestamps& ts) {
  return distance_from_tof(ds_twr_tof(ts));
}

Seconds ds_twr_asymmetry_residual_s(const DsTwrTimestamps& ts) {
  const double ra = ts.t_rx_resp.diff_seconds(ts.t_tx_poll).value();
  const double da = ts.t_tx_final.diff_seconds(ts.t_rx_resp).value();
  const double rb = ts.t_rx_final.diff_seconds(ts.t_tx_resp).value();
  const double db = ts.t_tx_resp.diff_seconds(ts.t_rx_poll).value();
  return Seconds((ra - db) / 2.0 - (rb - da) / 2.0);
}

DsTwrSession::DsTwrSession(DsTwrSessionConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  medium_ = std::make_unique<sim::Medium>(
      sim_, channel::ChannelModel(config_.room, config_.channel),
      config_.medium, Rng(sim::medium_seed(config_.seed)));

  const auto make_node = [&](int id, geom::Vec2 pos) {
    sim::NodeConfig nc;
    nc.id = id;
    nc.position = pos;
    nc.clock_epoch_offset = SimTime::from_seconds(rng_.uniform(0.0, 17.0));
    nc.drift_ppm = rng_.normal(0.0, config_.clock_drift_sigma_ppm);
    nc.phy = config_.phy;
    nc.cir = config_.cir;
    nc.delayed_tx_truncation = config_.delayed_tx_truncation;
    return std::make_unique<sim::Node>(sim_, *medium_, nc,
                                       Rng(sim::node_seed(config_.seed, id)));
  };
  initiator_ = make_node(0, config_.initiator_position);
  responder_ = make_node(1, config_.responder_position);

  // Responder: answer POLL with a delayed RESP, then listen for FINAL and
  // close the exchange.
  responder_->set_rx_handler([this](const sim::RxResult& r) {
    if (!r.frame) return;
    if (r.frame->type == dw::FrameType::Init) {
      ts_.t_rx_poll = r.rx_timestamp;
      const dw::DwTimestamp target =
          r.rx_timestamp.plus_seconds(kResponseDelay);
      const dw::DwTimestamp actual = responder_->delayed_tx_time(target);
      ts_.t_tx_resp = actual;
      dw::MacFrame resp;
      resp.type = dw::FrameType::Resp;
      resp.src = 1;
      resp.rx_timestamp = ts_.t_rx_poll;
      resp.tx_timestamp = actual;
      if (!responder_->schedule_delayed_tx(resp, actual)) return;
      // Re-enter RX once the RESP is fully transmitted, in time for the
      // FINAL. The RMARKER sits after the SHR, so the frame ends RMARKER +
      // (PHR + payload) later.
      const SimTime resp_end =
          responder_->clock().global_time_of(actual, sim_.now()) +
          SimTime::from_seconds(
              config_.phy.frame_duration_s(resp.payload_bytes()) -
              config_.phy.shr_duration_s());
      sim_.at(resp_end + SimTime::from_micros(5.0), [this]() {
        if (!responder_->in_rx()) responder_->enter_rx();
      });
      return;
    }
    if (r.frame->type == dw::FrameType::Final) {
      ts_.t_rx_final = r.rx_timestamp;
      ts_.t_rx_resp = r.frame->rx_timestamp;
      ts_.t_tx_final = r.frame->tx_timestamp;
      ts_.t_tx_poll = r.frame->aux_timestamp;
      final_received_ = true;
    }
  });

  // Initiator: on RESP, send the FINAL with all initiator-side timestamps.
  initiator_->set_rx_handler([this](const sim::RxResult& r) {
    if (!r.frame || r.frame->type != dw::FrameType::Resp) return;
    const dw::DwTimestamp t_rx_resp = r.rx_timestamp;
    const dw::DwTimestamp target = t_rx_resp.plus_seconds(kResponseDelay);
    const dw::DwTimestamp actual = initiator_->delayed_tx_time(target);
    dw::MacFrame fin;
    fin.type = dw::FrameType::Final;
    fin.src = 0;
    fin.rx_timestamp = t_rx_resp;
    fin.tx_timestamp = actual;
    fin.aux_timestamp = ts_.t_tx_poll;
    if (!initiator_->schedule_delayed_tx(fin, actual)) return;
  });
}

DsTwrSession::~DsTwrSession() = default;

double DsTwrSession::true_distance() const {
  return geom::distance(config_.initiator_position, config_.responder_position);
}

DsTwrResult DsTwrSession::run_round() {
  final_received_ = false;
  ts_ = DsTwrTimestamps{};

  const SimTime t0 = sim_.now() + SimTime::from_micros(50.0);
  sim_.at(t0, [this]() {
    if (!responder_->in_rx()) responder_->enter_rx();
  });

  dw::MacFrame poll;
  poll.type = dw::FrameType::Init;
  const double poll_airtime =
      config_.phy.frame_duration_s(poll.payload_bytes());
  sim_.at(t0 + SimTime::from_micros(20.0), [this, poll]() {
    initiator_->exit_rx();
    ts_.t_tx_poll = initiator_->transmit_now(poll);
  });
  sim_.at(t0 + SimTime::from_micros(20.0) + SimTime::from_seconds(poll_airtime) +
              SimTime::from_micros(5.0),
          [this]() { initiator_->enter_rx(); });

  // POLL + RESP + FINAL: two response delays plus three frame airtimes.
  const SimTime deadline =
      t0 + to_sim_time(kResponseDelay * 2.0) + SimTime::from_micros(2000.0);
  sim_.run_until(deadline);

  DsTwrResult result;
  initiator_->exit_rx();
  responder_->exit_rx();
  if (!final_received_) return result;
  result.ok = true;
  result.timestamps = ts_;
  result.distance_m = ds_twr_distance(ts_).value();
  return result;
}

}  // namespace uwb::ranging
