// Unit tests: scalability / capacity analysis (paper Sect. III & VIII).
#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "ranging/capacity.hpp"

namespace uwb::ranging {
namespace {

TEST(CapacityTest, CirSpanIsAbout1017ns) {
  // Paper Sect. VII: 1016 samples * 1.0016 ns -> delta_max ~= 1017 ns.
  dw::PhyConfig phy;
  EXPECT_NEAR(cir_max_offset_s(phy), 1017e-9, 1e-9);
}

TEST(CapacityTest, MaxOffsetDistanceIsAbout305m) {
  // Paper rounds delta_max * c to ~307 m; the exact figure for 1016 taps at
  // 1.0016 ns and c_air is 305.0 m.
  dw::PhyConfig phy;
  EXPECT_NEAR(cir_max_offset_s(phy) * 299'702'547.0, 305.0, 1.0);
}

TEST(CapacityTest, PaperSlotCountAt75m) {
  // Paper Sect. VIII: r_max > 75 m -> N_RPM ~= 4.
  dw::PhyConfig phy;
  EXPECT_EQ(rpm_slots_paper(phy, 75.0), 4);
}

TEST(CapacityTest, AliasingFreeHalvesSlots) {
  // Responses traverse both legs; the guaranteed-unambiguous count is half.
  dw::PhyConfig phy;
  EXPECT_EQ(rpm_slots_aliasing_free(phy, 75.0), 2);
  EXPECT_EQ(rpm_slots_aliasing_free(phy, 20.0),
            rpm_slots_paper(phy, 40.0));
}

TEST(CapacityTest, Above1500UsersAt20m) {
  // Paper Sect. VIII: r_max = 20 m and the full shape bank (108 registers)
  // -> more than 1500 users.
  dw::PhyConfig phy;
  const int slots = rpm_slots_paper(phy, 20.0);
  EXPECT_GE(slots, 15);
  EXPECT_GT(max_concurrent_responders(slots, uwb::k::num_pulse_shapes), 1500);
}

TEST(CapacityTest, Fig8Configuration) {
  EXPECT_EQ(max_concurrent_responders(4, 3), 12);
}

TEST(CapacityTest, MessageCounts) {
  // Paper Sect. III: N(N-1) scheduled messages vs N concurrent.
  EXPECT_EQ(twr_message_count(2), 2);
  EXPECT_EQ(twr_message_count(10), 90);
  EXPECT_EQ(concurrent_message_count(10), 10);
  EXPECT_EQ(twr_message_count(40), 1560);
  EXPECT_EQ(concurrent_message_count(40), 40);
  EXPECT_THROW(twr_message_count(1), PreconditionError);
}

TEST(CapacityTest, InitiatorMessageOps) {
  dw::PhyConfig phy;
  const auto twr = twr_round_cost(9, phy, 290e-6);
  const auto conc = concurrent_round_cost(9, phy, 290e-6);
  EXPECT_EQ(twr.initiator_messages, 18);  // 2 * (N-1)
  EXPECT_EQ(conc.initiator_messages, 2);  // 1 TX + 1 RX
}

TEST(CapacityTest, ConcurrentInitiatorEnergyFlatInN) {
  dw::PhyConfig phy;
  const auto c3 = concurrent_round_cost(3, phy, 290e-6);
  const auto c30 = concurrent_round_cost(30, phy, 290e-6);
  EXPECT_DOUBLE_EQ(c3.initiator_j, c30.initiator_j);
}

TEST(CapacityTest, TwrInitiatorEnergyLinearInN) {
  dw::PhyConfig phy;
  const auto t1 = twr_round_cost(1, phy, 290e-6);
  const auto t10 = twr_round_cost(10, phy, 290e-6);
  EXPECT_NEAR(t10.initiator_j, 10.0 * t1.initiator_j, 1e-12);
}

TEST(CapacityTest, ConcurrentBeatsTwrForMultipleNeighbors) {
  dw::PhyConfig phy;
  for (int n : {2, 5, 10, 50}) {
    const auto twr = twr_round_cost(n, phy, 290e-6);
    const auto conc = concurrent_round_cost(n, phy, 290e-6);
    EXPECT_LT(conc.initiator_j, twr.initiator_j) << "n=" << n;
    EXPECT_LT(conc.network_j, twr.network_j) << "n=" << n;
  }
}

TEST(CapacityTest, PerResponderCostIdenticalAcrossSchemes) {
  // A responder does one RX + one TX in both schemes.
  dw::PhyConfig phy;
  EXPECT_DOUBLE_EQ(twr_round_cost(5, phy, 290e-6).per_responder_j,
                   concurrent_round_cost(5, phy, 290e-6).per_responder_j);
}

TEST(CapacityTest, InvalidInputsThrow) {
  dw::PhyConfig phy;
  EXPECT_THROW(rpm_slots_paper(phy, 0.0), PreconditionError);
  EXPECT_THROW(max_concurrent_responders(0, 3), PreconditionError);
  EXPECT_THROW(twr_round_cost(0, phy, 290e-6), PreconditionError);
  EXPECT_THROW(concurrent_round_cost(3, phy, 0.0), PreconditionError);
}

}  // namespace
}  // namespace uwb::ranging
