// Flight-recorder tests: the determinism contract (byte-identical JSONL
// across worker-thread counts on a golden seed), the bounded-ring overflow
// policy (newest kept, casualties counted), the causal-chain invariants
// every recording must satisfy (chains rooted at a tx event, per-chain
// sim-time monotone), and the post-mortem completeness claim — every
// non-ok responder status in a faulty session has at least one explaining
// event.
//
// The first tests drive the shard/recorder class API directly; the rest
// record through the UWB_FR_* sites of real sessions.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"

namespace uwb::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::set_enabled(false);
    FlightRecorder::instance().reset();
    FlightRecorder::instance().set_capacity(FlightRecorder::kDefaultCapacity);
  }
  void TearDown() override {
    FlightRecorder::set_enabled(false);
    FlightRecorder::instance().reset();
    FlightRecorder::instance().set_capacity(FlightRecorder::kDefaultCapacity);
  }
};

/// Lossy office scenario, the shape test_fault uses: enough injected
/// faults at 35% loss that every failure status shows up within a few
/// rounds.
ranging::ScenarioConfig faulty_office(std::uint64_t seed) {
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.initiator_position = {2.0, 4.0};
  cfg.seed = seed;
  const geom::Vec2 spots[] = {{5.0, 4.0}, {8.0, 5.5}, {9.5, 2.5}, {6.0, 6.5}};
  for (int i = 0; i < 4; ++i) cfg.responders.push_back({i, spots[i]});
  cfg.fault.preamble_miss_prob = 0.35;
  cfg.fault.crc_error_prob = 0.35 / 4.0;
  cfg.fault.late_tx_abort_prob = 0.35 / 4.0;
  cfg.fault.dropout_prob = 0.35 / 8.0;
  cfg.resilience.max_retries = 2;
  return cfg;
}

runner::TrialResult run_faulty_mc(int threads, int trials) {
  runner::MonteCarlo::Config mc_cfg;
  mc_cfg.threads = threads;
  mc_cfg.base_seed = 1337;
  return runner::MonteCarlo(mc_cfg).run(
      trials,
      [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
        ranging::ConcurrentRangingScenario scenario(faulty_office(ctx.seed));
        for (int round = 0; round < 2; ++round) scenario.run_round();
        rec.count("trials");
      });
}

// --- enablement gate --------------------------------------------------------

TEST_F(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  ASSERT_FALSE(FlightRecorder::enabled());
  run_faulty_mc(1, 3);
  EXPECT_EQ(FlightRecorder::instance().recorded_events(), 0u);
  EXPECT_EQ(FlightRecorder::instance().dropped_events(), 0u);
  EXPECT_TRUE(FlightRecorder::instance().collect().empty());
}

// --- ring overflow ----------------------------------------------------------

TEST_F(FlightRecorderTest, RingOverflowKeepsNewestAndCountsDropped) {
  FlightRecorder::instance().set_capacity(8);
  {
    FrSessionScope scope(/*session=*/42, /*round=*/0);
    FrShard& shard = FlightRecorder::instance().local_shard();
    FrEvent probe;
    probe.kind = FrKind::kStatus;
    probe.name = "overflow_probe";
    for (int i = 0; i < 20; ++i) {
      fr_context().t_ps = i;
      shard.record(probe);
    }
  }
  EXPECT_EQ(FlightRecorder::instance().recorded_events(), 20u);
  EXPECT_EQ(FlightRecorder::instance().dropped_events(), 12u);

  const std::vector<FrRecord> records = FlightRecorder::instance().collect();
  ASSERT_EQ(records.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    // Newest events survive: sim-times 12..19 of the 0..19 recorded.
    EXPECT_EQ(records[static_cast<std::size_t>(i)].t_ps, 12 + i);
    EXPECT_EQ(records[static_cast<std::size_t>(i)].session, 42u);
  }

  // The JSONL meta line reports the casualties, so consumers know the
  // recording is incomplete (and the byte-identity guarantee is off).
  const std::string jsonl = FlightRecorder::instance().to_jsonl();
  EXPECT_NE(jsonl.find("\"dropped_events\":12"), std::string::npos);
  EXPECT_NE(jsonl.find("\"events\":8"), std::string::npos);
}

// --- golden-seed byte identity ----------------------------------------------

TEST_F(FlightRecorderTest, GoldenSeedJsonlByteIdenticalAcrossThreadCounts) {
  FlightRecorder::set_enabled(true);

  run_faulty_mc(1, 8);
  const std::string serial = FlightRecorder::instance().to_jsonl();
  EXPECT_EQ(FlightRecorder::instance().dropped_events(), 0u);

  FlightRecorder::instance().reset();
  run_faulty_mc(4, 8);
  const std::string parallel = FlightRecorder::instance().to_jsonl();
  EXPECT_EQ(FlightRecorder::instance().dropped_events(), 0u);

  ASSERT_GT(serial.size(), 1000u);
  EXPECT_EQ(serial, parallel);
}

// --- chain invariants -------------------------------------------------------

TEST_F(FlightRecorderTest, EveryChainRootsAtTxWithMonotoneSimTime) {
  FlightRecorder::set_enabled(true);

  run_faulty_mc(1, 4);
  const std::vector<FrRecord> records = FlightRecorder::instance().collect();
  ASSERT_FALSE(records.empty());

  // collect() orders records by (session, seq) = record order per session,
  // so walking them groups each chain's events in causal order.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::int64_t> last_t;
  std::size_t chains = 0;
  for (const FrRecord& r : records) {
    if (r.chain == 0) continue;  // context-less session-level events
    const auto key = std::make_pair(r.session, r.chain);
    const auto it = last_t.find(key);
    if (it == last_t.end()) {
      EXPECT_EQ(r.kind, FrKind::kTx)
          << "chain 0x" << std::hex << r.chain << " starts with " << std::dec
          << to_string(r.kind) << "/" << r.name;
      ++chains;
      last_t.emplace(key, r.t_ps);
    } else {
      EXPECT_GE(r.t_ps, it->second)
          << "chain 0x" << std::hex << r.chain << " time went backwards";
      it->second = r.t_ps;
    }
  }
  EXPECT_GT(chains, 10u);
}

// --- post-mortem completeness -----------------------------------------------

bool name_is(const FrRecord& r, const char* name) {
  return r.name != nullptr && std::strcmp(r.name, name) == 0;
}

/// Mirrors tools/explain_session.py: the event vocabulary that can
/// terminate a frame copy's life short of a completed reception.
bool is_loss_event(const FrRecord& r) {
  return name_is(r, "below_threshold") || name_is(r, "culled") ||
         name_is(r, "rx_radio_off") || name_is(r, "rx_late_for_batch") ||
         name_is(r, "rx_abandoned") || name_is(r, "rx_decode_failed");
}

TEST_F(FlightRecorderTest, EveryNonOkStatusHasExplainingEvent) {
  FlightRecorder::set_enabled(true);

  constexpr int kInitiator = -1;
  ranging::ConcurrentRangingScenario scenario(faulty_office(4242));
  std::vector<std::pair<std::uint32_t, int>> failures;  // (round, responder)
  for (std::uint32_t round = 0; round < 12; ++round) {
    const ranging::RoundOutcome out = scenario.run_round();
    for (const auto& rep : out.responder_reports)
      if (rep.status != ranging::RangingStatus::kOk)
        failures.emplace_back(round, rep.id);
  }
  ASSERT_FALSE(failures.empty()) << "35% loss produced no failures";

  const std::vector<FrRecord> records = FlightRecorder::instance().collect();
  for (const auto& [round, responder] : failures) {
    bool explained = false;
    for (const FrRecord& r : records) {
      if (r.round != round) continue;
      // A fault struck the responder, its delayed TX aborted, or one of
      // its frame copies was lost — at either end of the exchange.
      if (r.node == responder &&
          (r.kind == FrKind::kFault || is_loss_event(r) ||
           name_is(r, "delayed_tx_abort"))) {
        explained = true;
        break;
      }
      // The sync payload died at the initiator, failing the whole batch.
      if (r.node == kInitiator &&
          ((name_is(r, "rx_batch_complete") && r.detail != nullptr &&
            std::strcmp(r.detail, "crc_error") == 0) ||
           name_is(r, "rx_decode_failed"))) {
        explained = true;
        break;
      }
    }
    EXPECT_TRUE(explained) << "round " << round << " responder " << responder
                           << " has no explaining event";
  }
}

}  // namespace
}  // namespace uwb::obs
