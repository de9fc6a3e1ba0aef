// Integration tests: network-wide concurrent ranging (all-pairs sweep).
#include <gtest/gtest.h>

#include <cmath>

#include "acceptance.hpp"
#include "common/expects.hpp"
#include "ranging/network.hpp"

namespace uwb::ranging {
namespace {

NetworkConfig small_network(std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.node_positions = {{2.0, 2.0}, {13.0, 2.5}, {12.5, 8.0}, {3.0, 7.5}};
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.seed = seed;
  return cfg;
}

TEST(NetworkTest, SingleRoundMeasuresAllNeighbours) {
  // Node 0 initiates. A seed passes when the round completes with all three
  // responses in the batch, no self-distance, and a distance within 0.9 m
  // to each neighbour. The documented rate is 1 766 of seeds 201-2 200
  // (88.3 %), which the test does not run; seeds 1-200 pass 176.
  acceptance::expect_pass_rate(1, 200, 1766.0 / 2000.0, [](std::uint64_t seed) {
    NetworkRangingSession session(small_network(seed));
    const NetworkRound round = session.run_round(0);
    if (!round.completed || round.frames_in_batch != 3) return false;
    if (round.distances[0].has_value()) return false;  // no self-distance
    for (int j = 1; j < 4; ++j) {
      const auto& d = round.distances[static_cast<std::size_t>(j)];
      if (!d.has_value() ||
          std::abs(*d - session.true_distance(0, j).value()) > 0.9)
        return false;
    }
    return true;
  });
}

TEST(NetworkTest, EveryNodeCanInitiate) {
  NetworkRangingSession session(small_network(2));
  for (int i = 0; i < session.node_count(); ++i) {
    const NetworkRound round = session.run_round(i);
    EXPECT_TRUE(round.completed) << "initiator " << i;
    EXPECT_EQ(round.initiator, i);
  }
}

TEST(NetworkTest, FullSweepFillsMatrix) {
  // Every node initiates once. A seed passes when all four rounds complete,
  // no node ranges itself, and at least 10 of the 12 directed pairs hold a
  // distance, each within 1 m: 1 618 of seeds 1-2 000 do (80.9 %).
  acceptance::expect_pass_rate(1, 200, 1618.0 / 2000.0, [](std::uint64_t seed) {
    NetworkRangingSession session(small_network(seed));
    const NetworkSweep sweep = session.run_full_sweep();
    if (sweep.completed_rounds != 4) return false;
    int filled = 0;
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j) {
        const auto& d = sweep.matrix[static_cast<std::size_t>(i)]
                                    [static_cast<std::size_t>(j)];
        if (i == j) {
          if (d.has_value()) return false;
          continue;
        }
        if (!d.has_value()) continue;
        ++filled;
        if (std::abs(*d - session.true_distance(i, j).value()) > 1.0)
          return false;
      }
    return filled >= 10;  // at least 10 of the 12 directed pairs
  });
}

TEST(NetworkTest, SweepTracksEnergyAndTime) {
  NetworkRangingSession session(small_network(4));
  const NetworkSweep sweep = session.run_full_sweep();
  EXPECT_GT(sweep.total_energy_j, 0.0);
  // 4 rounds of ~600 us (plus idle gaps) — well under 0.1 s, and at least
  // 4 response delays long.
  EXPECT_GT(sweep.duration_s, 4 * 290e-6);
  EXPECT_LT(sweep.duration_s, 0.1);
  // Each node transmitted once as initiator and three times as responder.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(session.node(i).energy().tx_count(), 4);
}

TEST(NetworkTest, ReciprocalDistancesAgree) {
  // A seed passes when every pair measured in both directions agrees to
  // 1.5 m. The documented rate is 1 843 of seeds 201-2 200 (92.2 %), which
  // the test does not run; seeds 1-200 pass 182.
  acceptance::expect_pass_rate(1, 200, 1843.0 / 2000.0, [](std::uint64_t seed) {
    NetworkRangingSession session(small_network(seed));
    const NetworkSweep sweep = session.run_full_sweep();
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) {
        const auto& a = sweep.matrix[static_cast<std::size_t>(i)]
                                    [static_cast<std::size_t>(j)];
        const auto& b = sweep.matrix[static_cast<std::size_t>(j)]
                                    [static_cast<std::size_t>(i)];
        if (a.has_value() && b.has_value() && std::abs(*a - *b) > 1.5)
          return false;
      }
    return true;
  });
}

TEST(NetworkTest, TwoNodeNetworkIsPlainTwr) {
  NetworkConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.node_positions = {{2.0, 5.0}, {10.0, 5.0}};
  cfg.seed = 6;
  NetworkRangingSession session(cfg);
  const NetworkRound round = session.run_round(0);
  ASSERT_TRUE(round.completed);
  ASSERT_TRUE(round.distances[1].has_value());
  EXPECT_NEAR(*round.distances[1], 8.0, 0.1);
}

TEST(NetworkTest, CapacityBoundEnforced) {
  NetworkConfig cfg;
  cfg.node_positions.assign(14, geom::Vec2{1.0, 1.0});  // 13 responders
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8, 0xE6};  // capacity 12
  EXPECT_THROW(NetworkRangingSession{cfg}, PreconditionError);
}

TEST(NetworkTest, InvalidInitiatorIndexThrows) {
  NetworkRangingSession session(small_network(7));
  EXPECT_THROW(session.run_round(-1), PreconditionError);
  EXPECT_THROW(session.run_round(4), PreconditionError);
}

}  // namespace
}  // namespace uwb::ranging
