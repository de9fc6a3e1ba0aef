#include "ranging/twr.hpp"

#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"

namespace uwb::ranging {

Seconds ss_twr_tof(const TwrTimestamps& ts, double cfo_ppm) {
  const Seconds t_round = ts.t_rx_init.diff_seconds(ts.t_tx_init);
  const Seconds t_reply = ts.t_tx_resp.diff_seconds(ts.t_rx_resp);
  UWB_EXPECTS(t_round > Seconds(0.0));
  UWB_EXPECTS(t_reply > Seconds(0.0));
  // The reply interval ticks on the responder's crystal: a responder
  // running cfo ppm fast reports an inflated reply interval, so rescale it
  // back onto the initiator's timescale before differencing.
  return (t_round - t_reply * (1.0 - cfo_ppm * 1e-6)) / 2.0;
}

Meters ss_twr_distance(const TwrTimestamps& ts, double cfo_ppm) {
  const Meters d = distance_from_tof(ss_twr_tof(ts, cfo_ppm));
  // Chain comes from the recorder context (the session computes TWR inside
  // the sync frame's chain scope).
  UWB_FR_EVENT(.kind = obs::FrKind::kTwr, .name = "ss_twr",
               .v0 = {"t_round_s",
                      ts.t_rx_init.diff_seconds(ts.t_tx_init).value()},
               .v1 = {"t_reply_s",
                      ts.t_tx_resp.diff_seconds(ts.t_rx_resp).value()},
               .v2 = {"cfo_ppm", cfo_ppm}, .v3 = {"d_m", d.value()});
  return d;
}

}  // namespace uwb::ranging
