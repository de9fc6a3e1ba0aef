// Single-sided two-way ranging (paper Sect. III, Eq. 2).
//
// d = c/2 * ((t_rx,init - t_tx,init) - (t_tx,resp - t_rx,resp))
//
// with an optional carrier-frequency-offset correction: the responder's
// reply interval is measured on its own crystal, so the initiator rescales
// it by the estimated relative drift (the standard DW1000 drift-compensation
// technique; without it, ppm-level drift over the 290 us reply time turns
// into decimetre errors).
#pragma once

#include "dw1000/clock.hpp"

namespace uwb::ranging {

struct TwrTimestamps {
  dw::DwTimestamp t_tx_init;  // INIT RMARKER, initiator clock
  dw::DwTimestamp t_rx_resp;  // INIT arrival, responder clock
  dw::DwTimestamp t_tx_resp;  // RESP RMARKER, responder clock
  dw::DwTimestamp t_rx_init;  // RESP arrival, initiator clock
};

/// SS-TWR distance. `cfo_ppm` is the estimated responder-minus-initiator
/// clock drift (0 disables the correction).
Meters ss_twr_distance(const TwrTimestamps& ts, double cfo_ppm = 0.0);

/// Time of flight instead of distance.
Seconds ss_twr_tof(const TwrTimestamps& ts, double cfo_ppm = 0.0);

}  // namespace uwb::ranging
