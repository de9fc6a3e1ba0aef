// Integration tests: response position modulation, the combined RPM x
// pulse-shaping scheme (paper Sect. VII/VIII), and session-level behaviour
// under drift, truncation, and selection options.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "acceptance.hpp"
#include "common/constants.hpp"
#include "common/expects.hpp"
#include "ranging/session.hpp"

namespace uwb::ranging {
namespace {

ScenarioConfig combined_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(16.0, 10.0, 10.0);
  cfg.initiator_position = {1.0, 5.0};
  cfg.seed = seed;
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8, 0xE6};
  return cfg;
}

TEST(RpmSessionTest, TwoSlotsSeparateEqualDistances) {
  // Two responders at the SAME distance: without RPM their responses
  // overlap; with 2 slots they appear ~150 ns apart and both distances
  // decode cleanly.
  ScenarioConfig cfg = combined_scenario(1);
  cfg.ranging.num_slots = 2;
  cfg.ranging.shape_registers = {0x93};
  cfg.responders = {{0, {7.0, 5.0}}, {1, {7.0, 5.2}}};  // both ~6 m
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  ASSERT_EQ(out.estimates.size(), 2u);
  EXPECT_EQ(out.estimates[0].slot, 0);
  EXPECT_EQ(out.estimates[1].slot, 1);
  // The raw peak separation carries the slot delay.
  EXPECT_NEAR(out.estimates[1].tau_rel_s, 150e-9, 20e-9);
  EXPECT_NEAR(out.estimates[0].distance_m, 6.0, 0.2);
  EXPECT_NEAR(out.estimates[1].distance_m, 6.0, 0.8);
}

TEST(RpmSessionTest, SlotDelayNotHalved) {
  // The slot delay enters the CIR once (RESP leg only); Eq. 4 must remove
  // it whole, otherwise every slot-1 responder would be ~22 m off
  // (c * 150 ns / 2). The delayed-TX truncation still moves the slot-1
  // estimate: each RESP leaves up to 8.013 ns early, and the slot-1
  // distance carries the difference of two such truncations, an error
  // triangular on ±1.20 m (c * 8.013 ns / 2). It exceeds 0.8 m with
  // probability (1 - 5.34/8.013)^2 = 11.1 %, so a seed passes when it
  // lands within 0.8 m: 1 770 of seeds 1-2 000 do (88.5 %).
  acceptance::expect_pass_rate(1, 200, 1770.0 / 2000.0, [](std::uint64_t seed) {
    ScenarioConfig cfg = combined_scenario(seed);
    cfg.ranging.num_slots = 2;
    cfg.ranging.shape_registers = {0x93};
    cfg.responders = {{0, {5.0, 5.0}}, {1, {9.0, 5.0}}};  // 4 m and 8 m
    ConcurrentRangingScenario scenario(cfg);
    const RoundOutcome out = scenario.run_round();
    return out.payload_decoded && out.estimates.size() == 2 &&
           std::abs(out.estimates[1].distance_m - 8.0) <= 0.8;
  });
}

TEST(RpmSessionTest, NineRespondersDecodeIdentities) {
  ScenarioConfig cfg = combined_scenario(3);
  cfg.responders = {
      {0, {4.0, 5.0}},  {1, {6.5, 3.0}},  {2, {9.0, 7.0}},
      {3, {11.0, 4.0}}, {4, {5.5, 7.5}},  {5, {8.0, 2.5}},
      {6, {12.5, 6.5}}, {7, {14.0, 5.0}}, {8, {7.0, 5.5}},
  };
  ConcurrentRangingScenario scenario(cfg);
  int total_correct = 0, rounds = 0;
  for (int t = 0; t < 15; ++t) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++rounds;
    std::set<int> seen;
    for (const auto& est : out.estimates) {
      if (est.responder_id < 0 || !seen.insert(est.responder_id).second)
        continue;
      const auto spec = std::find_if(
          cfg.responders.begin(), cfg.responders.end(),
          [&](const ResponderSpec& s) { return s.id == est.responder_id; });
      if (spec == cfg.responders.end()) continue;
      if (std::abs(est.distance_m - scenario.true_distance(spec->id).value()) <
          1.0)
        ++total_correct;
    }
  }
  ASSERT_GE(rounds, 12);
  // On average at least 7.5 of 9 identities ranged correctly per round.
  EXPECT_GE(total_correct, rounds * 15 / 2);
}

TEST(RpmSessionTest, SlotAwareSelectionImprovesCoverage) {
  ScenarioConfig base = combined_scenario(4);
  base.room = geom::Room::rectangular(16.0, 10.0, 8.0);
  base.responders = {
      {0, {4.0, 5.0}},  {1, {6.5, 3.0}},  {2, {9.0, 7.0}},
      {3, {11.0, 4.0}}, {4, {5.5, 7.5}},  {5, {8.0, 2.5}},
      {6, {12.5, 6.5}}, {7, {14.0, 5.0}}, {8, {7.0, 5.5}},
  };
  const auto coverage = [&](bool slot_aware) {
    ScenarioConfig cfg = base;
    if (slot_aware) {
      cfg.detect_max_responses = 16;
      cfg.slot_aware_selection = true;
    }
    ConcurrentRangingScenario scenario(cfg);
    int covered = 0, rounds = 0;
    for (int t = 0; t < 25; ++t) {
      const RoundOutcome out = scenario.run_round();
      if (!out.payload_decoded) continue;
      ++rounds;
      std::set<int> ids;
      for (const auto& est : out.estimates)
        if (est.responder_id >= 0 &&
            std::abs(est.distance_m -
                     scenario.true_distance(est.responder_id % 9).value()) < 5.0)
          ids.insert(est.responder_id);
      covered += static_cast<int>(ids.size());
    }
    return rounds ? static_cast<double>(covered) / rounds : 0.0;
  };
  EXPECT_GE(coverage(true) + 0.05, coverage(false));
}

TEST(RpmSessionTest, SyncResponderInNonZeroSlot) {
  // Only slots 1 and 2 are occupied: the sync (earliest) responder sits in
  // slot 1 and interpretation must offset all slots accordingly. Seeds
  // 1-200; the documented rate is 1775 of seeds 201-2200, which the test
  // does not run; seeds 1-200 pass 176.
  acceptance::expect_pass_rate(1, 200, 1775.0 / 2000.0, [](std::uint64_t seed) {
    ScenarioConfig cfg = combined_scenario(seed);
    cfg.ranging.shape_registers = {0x93};
    cfg.responders = {{1, {5.0, 5.0}}, {2, {8.0, 5.0}}};  // 4 m and 7 m
    ConcurrentRangingScenario scenario(cfg);
    const RoundOutcome out = scenario.run_round();
    return out.payload_decoded && out.sync_responder_id == 1 &&
           out.estimates.size() == 2 && out.estimates[0].slot == 1 &&
           out.estimates[1].slot == 2 && out.estimates[0].responder_id == 1 &&
           out.estimates[1].responder_id == 2 &&
           std::abs(out.estimates[1].distance_m - 7.0) <= 0.8;
  });
}

TEST(RpmSessionTest, TruthBookkeepingMatchesArrivalOrder) {
  ScenarioConfig cfg = combined_scenario(6);
  cfg.ranging.shape_registers = {0x93};
  cfg.responders = {{0, {5.0, 5.0}}, {1, {12.0, 5.0}}, {2, {8.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_EQ(out.truths.size(), 3u);
  // Truths sorted by arrival: slot order dominates distance differences.
  EXPECT_EQ(out.truths[0].id, 0);
  EXPECT_EQ(out.truths[1].id, 1);
  EXPECT_EQ(out.truths[2].id, 2);
  for (std::size_t i = 1; i < out.truths.size(); ++i)
    EXPECT_GT(out.truths[i].resp_arrival, out.truths[i - 1].resp_arrival);
  EXPECT_DOUBLE_EQ(out.truths[0].true_distance_m, 4.0);
}

TEST(RpmSessionTest, CfoCorrectionSwitchMatters) {
  // With a deliberately bad crystal, disabling the CFO correction visibly
  // degrades d_TWR.
  ScenarioConfig cfg = combined_scenario(7);
  cfg.ranging.shape_registers = {0x93};
  cfg.ranging.num_slots = 1;
  cfg.responders = {{0, {7.0, 5.0}}};
  cfg.clock_drift_sigma_ppm = 15.0;

  double err_on = 0.0, err_off = 0.0;
  {
    ConcurrentRangingScenario s(cfg);
    double acc = 0.0;
    int n = 0;
    for (int t = 0; t < 20; ++t) {
      const auto out = s.run_round();
      if (out.payload_decoded) {
        acc += std::abs(out.d_twr_m - 6.0);
        ++n;
      }
    }
    err_on = acc / n;
  }
  {
    ScenarioConfig raw = cfg;
    raw.cfo_correction = false;
    ConcurrentRangingScenario s(raw);
    double acc = 0.0;
    int n = 0;
    for (int t = 0; t < 20; ++t) {
      const auto out = s.run_round();
      if (out.payload_decoded) {
        acc += std::abs(out.d_twr_m - 6.0);
        ++n;
      }
    }
    err_off = acc / n;
  }
  EXPECT_LT(err_on, 0.08);
  EXPECT_GT(err_off, err_on);
}

TEST(RpmSessionTest, PulseShapeOnlyIdentities) {
  // One slot, three shapes: IDs decode purely from the pulse shape.
  ScenarioConfig cfg = combined_scenario(8);
  cfg.ranging.num_slots = 1;
  cfg.responders = {{0, {5.0, 5.0}}, {1, {8.0, 5.0}}, {2, {11.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  int correct = 0, rounds = 0;
  for (int t = 0; t < 10; ++t) {
    const RoundOutcome out = scenario.run_round();
    if (!out.payload_decoded || out.estimates.size() != 3) continue;
    ++rounds;
    if (out.estimates[0].responder_id == 0 &&
        out.estimates[1].responder_id == 1 &&
        out.estimates[2].responder_id == 2)
      ++correct;
  }
  ASSERT_GE(rounds, 7);
  EXPECT_GE(correct, rounds - 2);
}

TEST(RpmSessionTest, DeterministicUnderSameSeed) {
  ScenarioConfig cfg = combined_scenario(9);
  cfg.responders = {{0, {5.0, 5.0}}, {5, {9.0, 4.0}}};
  ConcurrentRangingScenario a(cfg), b(cfg);
  const RoundOutcome ra = a.run_round();
  const RoundOutcome rb = b.run_round();
  ASSERT_EQ(ra.estimates.size(), rb.estimates.size());
  for (std::size_t i = 0; i < ra.estimates.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.estimates[i].distance_m, rb.estimates[i].distance_m);
}

TEST(RpmSessionTest, InvalidResponderIdRejected) {
  ScenarioConfig cfg = combined_scenario(10);
  cfg.responders = {{-1, {5.0, 5.0}}};
  EXPECT_THROW(ConcurrentRangingScenario{cfg}, uwb::PreconditionError);
  cfg.responders = {{300, {5.0, 5.0}}};
  EXPECT_THROW(ConcurrentRangingScenario{cfg}, uwb::PreconditionError);
  cfg.responders = {};
  EXPECT_THROW(ConcurrentRangingScenario{cfg}, uwb::PreconditionError);
}

TEST(RpmSessionTest, DuplicateResponderIdRejected) {
  ScenarioConfig cfg = combined_scenario(11);
  cfg.responders = {{0, {5.0, 5.0}}, {0, {8.0, 5.0}}};
  EXPECT_THROW(ConcurrentRangingScenario{cfg}, uwb::PreconditionError);
}

TEST(RpmSessionTest, EnergyAccountingAcrossRound) {
  ScenarioConfig cfg = combined_scenario(12);
  cfg.ranging.shape_registers = {0x93};
  cfg.ranging.num_slots = 1;
  cfg.responders = {{0, {5.0, 5.0}}, {1, {9.0, 5.0}}};
  ConcurrentRangingScenario scenario(cfg);
  const RoundOutcome out = scenario.run_round();
  ASSERT_TRUE(out.payload_decoded);
  // Initiator: one TX (INIT), one RX window.
  EXPECT_EQ(scenario.initiator_node().energy().tx_count(), 1);
  EXPECT_EQ(scenario.initiator_node().energy().rx_count(), 1);
  // Each responder: one RX (INIT), one TX (RESP).
  EXPECT_EQ(scenario.responder_node(0).energy().tx_count(), 1);
  EXPECT_EQ(scenario.responder_node(1).energy().rx_count(), 1);
}

}  // namespace
}  // namespace uwb::ranging
