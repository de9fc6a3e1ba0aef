// Scalability analysis of the combined scheme (paper Sect. III & VIII):
// slot capacity of the CIR, maximum concurrent responders, message counts,
// and per-round energy compared against scheduled SS-TWR.
#pragma once

#include <cstdint>

#include "dw1000/phy_config.hpp"

namespace uwb::ranging {

/// Maximum usable response offset delta_max [s]: the CIR span
/// (1016 taps * 1.0016 ns ~= 1017 ns for PRF 64).
double cir_max_offset_s(const dw::PhyConfig& phy);

/// Paper Sect. VIII: number of RPM slots N_RPM = delta_max * c / r_max
/// (slot width equal to the communication range in distance units).
int rpm_slots_paper(const dw::PhyConfig& phy, double max_range_m);

/// Aliasing-free slot count: responses traverse INIT and RESP legs, so the
/// in-slot spread is up to 2*r_max/c and guaranteed-unambiguous slotting
/// halves the paper's figure (see DESIGN.md).
int rpm_slots_aliasing_free(const dw::PhyConfig& phy, double max_range_m);

/// N_max = N_RPM * N_PS.
int max_concurrent_responders(int num_slots, int num_pulse_shapes);

/// Messages to estimate the distance between all N nodes pairwise with
/// SS-TWR: N * (N - 1).
std::int64_t twr_message_count(int num_nodes);

/// Messages for every node to range to all others with concurrent ranging:
/// one broadcast per node, N in total.
std::int64_t concurrent_message_count(int num_nodes);

/// Radio-on energy of one ranging *round* (one initiator measuring all
/// N-1 neighbours), at the DW1000 currents and supply voltage of
/// common/constants.hpp.
struct RoundCost {
  double initiator_j = 0.0;
  double per_responder_j = 0.0;
  double network_j = 0.0;
  int initiator_messages = 0;  // TX + RX operations at the initiator
};

/// SS-TWR: the initiator runs N-1 sequential exchanges.
RoundCost twr_round_cost(int num_neighbors, const dw::PhyConfig& phy,
                         double response_delay_s);

/// Concurrent ranging: one broadcast, one aggregated reception.
RoundCost concurrent_round_cost(int num_neighbors, const dw::PhyConfig& phy,
                                double response_delay_s);

}  // namespace uwb::ranging
