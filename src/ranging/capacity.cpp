#include "ranging/capacity.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "dw1000/frame.hpp"

namespace uwb::ranging {

namespace {

double init_airtime_s(const dw::PhyConfig& phy) {
  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  return phy.frame_duration_s(init.payload_bytes());
}

double resp_airtime_s(const dw::PhyConfig& phy) {
  dw::MacFrame resp;
  resp.type = dw::FrameType::Resp;
  return phy.frame_duration_s(resp.payload_bytes());
}

}  // namespace

double cir_max_offset_s(const dw::PhyConfig& phy) {
  return static_cast<double>(phy.cir_length()) * k::cir_ts_s;
}

int rpm_slots_paper(const dw::PhyConfig& phy, double max_range_m) {
  UWB_EXPECTS(max_range_m > 0.0);
  return static_cast<int>(
      std::floor(cir_max_offset_s(phy) * k::c_air / max_range_m));
}

int rpm_slots_aliasing_free(const dw::PhyConfig& phy, double max_range_m) {
  UWB_EXPECTS(max_range_m > 0.0);
  return static_cast<int>(
      std::floor(cir_max_offset_s(phy) * k::c_air / (2.0 * max_range_m)));
}

int max_concurrent_responders(int num_slots, int num_pulse_shapes) {
  UWB_EXPECTS(num_slots >= 1 && num_pulse_shapes >= 1);
  return num_slots * num_pulse_shapes;
}

std::int64_t twr_message_count(int num_nodes) {
  UWB_EXPECTS(num_nodes >= 2);
  return static_cast<std::int64_t>(num_nodes) * (num_nodes - 1);
}

std::int64_t concurrent_message_count(int num_nodes) {
  UWB_EXPECTS(num_nodes >= 2);
  return num_nodes;
}

RoundCost twr_round_cost(int num_neighbors, const dw::PhyConfig& phy,
                         double response_delay_s) {
  UWB_EXPECTS(num_neighbors >= 1);
  UWB_EXPECTS(response_delay_s > 0.0);
  const double init_s = init_airtime_s(phy);
  const double resp_s = resp_airtime_s(phy);
  // Initiator per exchange: transmit INIT, then receive until the RESP has
  // fully arrived (RESP RMARKER lands response_delay_s after the INIT
  // RMARKER).
  const double rx_window_s = response_delay_s + resp_s - init_s;
  UWB_EXPECTS(rx_window_s > 0.0);

  RoundCost cost;
  const double init_tx_j = init_s * k::tx_current_a * k::supply_v;
  const double init_rx_j = rx_window_s * k::rx_current_a * k::supply_v;
  cost.initiator_j = num_neighbors * (init_tx_j + init_rx_j);
  cost.per_responder_j =
      (init_s * k::rx_current_a + resp_s * k::tx_current_a) * k::supply_v;
  cost.network_j = cost.initiator_j + num_neighbors * cost.per_responder_j;
  cost.initiator_messages = 2 * num_neighbors;
  return cost;
}

RoundCost concurrent_round_cost(int num_neighbors, const dw::PhyConfig& phy,
                                double response_delay_s) {
  UWB_EXPECTS(num_neighbors >= 1);
  UWB_EXPECTS(response_delay_s > 0.0);
  const double init_s = init_airtime_s(phy);
  const double resp_s = resp_airtime_s(phy);
  // One reception window covers all concurrent responses; add the CIR span
  // to accommodate response position modulation.
  const double rx_window_s =
      response_delay_s + resp_s - init_s + cir_max_offset_s(phy);
  UWB_EXPECTS(rx_window_s > 0.0);

  RoundCost cost;
  cost.initiator_j =
      (init_s * k::tx_current_a + rx_window_s * k::rx_current_a) *
      k::supply_v;
  cost.per_responder_j =
      (init_s * k::rx_current_a + resp_s * k::tx_current_a) * k::supply_v;
  cost.network_j = cost.initiator_j + num_neighbors * cost.per_responder_j;
  cost.initiator_messages = 2;
  return cost;
}

}  // namespace uwb::ranging
