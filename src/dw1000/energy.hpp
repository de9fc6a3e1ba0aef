// Radio energy accounting.
//
// The motivation for concurrent ranging (paper Sect. I/III) is the DW1000's
// current draw: up to 155 mA receiving and 90 mA transmitting
// (k::rx_current_a, k::tx_current_a at k::supply_v). EnergyMeter
// accumulates radio-on time per state and converts it to charge and energy,
// so benches can compare SS-TWR scheduling against concurrent ranging.
#pragma once

#include "common/constants.hpp"

namespace uwb::dw {

class EnergyMeter {
 public:
  void add_tx(double duration_s);
  void add_rx(double duration_s);
  void add_idle(double duration_s);

  double tx_time_s() const { return tx_s_; }
  double rx_time_s() const { return rx_s_; }
  double idle_time_s() const { return idle_s_; }
  int tx_count() const { return tx_count_; }
  int rx_count() const { return rx_count_; }

  /// Total charge drawn [C].
  double charge_c() const;
  /// Total energy [J].
  double energy_j() const { return charge_c() * k::supply_v; }

  void reset();

 private:
  double tx_s_ = 0.0;
  double rx_s_ = 0.0;
  double idle_s_ = 0.0;
  int tx_count_ = 0;
  int rx_count_ = 0;
};

}  // namespace uwb::dw
