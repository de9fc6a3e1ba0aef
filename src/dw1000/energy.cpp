#include "dw1000/energy.hpp"

#include "common/expects.hpp"

namespace uwb::dw {

namespace {
/// Idle current [A]: deep-sleep order of magnitude.
constexpr double kIdleCurrentA = 0.000018;
}  // namespace

void EnergyMeter::add_tx(double duration_s) {
  UWB_EXPECTS(duration_s >= 0.0);
  tx_s_ += duration_s;
  ++tx_count_;
}

void EnergyMeter::add_rx(double duration_s) {
  UWB_EXPECTS(duration_s >= 0.0);
  rx_s_ += duration_s;
  ++rx_count_;
}

void EnergyMeter::add_idle(double duration_s) {
  UWB_EXPECTS(duration_s >= 0.0);
  idle_s_ += duration_s;
}

double EnergyMeter::charge_c() const {
  return tx_s_ * k::tx_current_a + rx_s_ * k::rx_current_a +
         idle_s_ * kIdleCurrentA;
}

void EnergyMeter::reset() {
  tx_s_ = rx_s_ = idle_s_ = 0.0;
  tx_count_ = rx_count_ = 0;
}

}  // namespace uwb::dw
