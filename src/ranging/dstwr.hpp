// Double-sided two-way ranging (asymmetric DS-TWR) — extension.
//
// The paper uses SS-TWR (Eq. 2), which needs carrier-frequency-offset
// compensation to survive crystal drift over the 290 us reply time. DS-TWR
// adds a third message (POLL -> RESP -> FINAL) and cancels drift to first
// order without any CFO estimate:
//
//   tof = (Ra*Rb - Da*Db) / (Ra + Rb + Da + Db)
//
// with Ra = t_rx_resp - t_tx_poll and Da = t_tx_final - t_rx_resp on the
// initiator clock, Rb = t_rx_final - t_tx_resp and Db = t_tx_resp -
// t_rx_poll on the responder clock. The bench_ablation_dstwr harness
// contrasts the three schemes across drift magnitudes.
#pragma once

#include <memory>
#include <optional>

#include "channel/channel_model.hpp"
#include "dw1000/clock.hpp"
#include "dw1000/phy_config.hpp"
#include "geom/room.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::ranging {

struct DsTwrTimestamps {
  // Initiator clock.
  dw::DwTimestamp t_tx_poll;
  dw::DwTimestamp t_rx_resp;
  dw::DwTimestamp t_tx_final;
  // Responder clock.
  dw::DwTimestamp t_rx_poll;
  dw::DwTimestamp t_tx_resp;
  dw::DwTimestamp t_rx_final;
};

/// Asymmetric DS-TWR time of flight.
Seconds ds_twr_tof(const DsTwrTimestamps& ts);

/// Asymmetric DS-TWR distance.
Meters ds_twr_distance(const DsTwrTimestamps& ts);

/// Consistency residual of the two half-exchanges: (Ra - Db)/2 and
/// (Rb - Da)/2 each estimate the round's ToF on their own, and with honest
/// clocks they disagree only by drift-scaled reply intervals (sub-ns at
/// crystal-spec drift). Forging t_tx_resp alone cancels here (it enters Db
/// and Rb with opposite signs) — but that naive forgery is already caught
/// by the reply-schedule check, because it inflates the apparent reply
/// interval Db. The residual catches the complementary, schedule-consistent
/// forgery: a responder shifting BOTH reported t_rx_poll and t_tx_resp by
/// +b keeps Db at the programmed reply (evading the schedule check) while
/// shrinking the DS-TWR distance by ~c*b/4, and moves this residual by
/// exactly +b/2. Together the two checks leave no timestamp-forgery
/// direction unobserved.
Seconds ds_twr_asymmetry_residual_s(const DsTwrTimestamps& ts);

/// A two-node DS-TWR deployment running on the full radio simulation.
struct DsTwrSessionConfig {
  geom::Room room = geom::Room::rectangular(20.0, 10.0);
  channel::ChannelModelParams channel;
  sim::MediumParams medium;
  geom::Vec2 initiator_position{2.0, 5.0};
  geom::Vec2 responder_position{8.0, 5.0};
  dw::PhyConfig phy;
  dw::CirParams cir;
  double clock_drift_sigma_ppm = 1.0;
  bool delayed_tx_truncation = true;
  std::uint64_t seed = 1;
};

struct DsTwrResult {
  bool ok = false;
  double distance_m = 0.0;
  DsTwrTimestamps timestamps;
};

class DsTwrSession {
 public:
  explicit DsTwrSession(DsTwrSessionConfig config);
  ~DsTwrSession();

  DsTwrSession(const DsTwrSession&) = delete;
  DsTwrSession& operator=(const DsTwrSession&) = delete;

  /// One POLL -> RESP -> FINAL exchange; the distance is computed at the
  /// responder from the timestamps embedded in FINAL.
  DsTwrResult run_round();

  double true_distance() const;
  sim::Node& initiator_node() { return *initiator_; }
  sim::Node& responder_node() { return *responder_; }

 private:
  DsTwrSessionConfig config_;
  Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Medium> medium_;
  std::unique_ptr<sim::Node> initiator_;
  std::unique_ptr<sim::Node> responder_;

  // Per-round protocol state.
  DsTwrTimestamps ts_;
  bool final_received_ = false;
};

}  // namespace uwb::ranging
