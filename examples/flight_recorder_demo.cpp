// Flight-recorder demo: run a lossy multi-responder session with retries,
// record every frame's causal chain, and export the recording as JSONL for
// the post-mortem explain pipeline.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/flight_recorder_demo --flight-record recording.jsonl
//   python3 tools/explain_session.py recording.jsonl --list
//   python3 tools/explain_session.py recording.jsonl
//       --session <hex> --round <n> --responder <id>
//
// Flags:
//   --flight-record FILE  write the JSONL recording (default: off, the
//                         session still runs and prints statuses)
//   --seed N              scenario seed (default 7001)
//   --loss P              fault loss level in [0, 1] (default 0.3)
//   --rounds N            rounds to run (default 4)
//   --responders N        responder count in [1, 8] (default 4)
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>

#include "example_util.hpp"
#include "obs/flight_recorder.hpp"
#include "ranging/session.hpp"

int main(int argc, char** argv) {
  using namespace uwb;

  std::string record_path;
  unsigned long long seed = 7001;
  double loss = 0.3;
  long rounds = 4;
  long responders = 4;

  examples::FlagParser flags(
      argc, argv,
      "flight_recorder_demo [--flight-record FILE] [--seed N] [--loss P] "
      "[--rounds N] [--responders N]");
  while (flags.next()) {
    if (flags.is("--flight-record")) {
      record_path = flags.value();
    } else if (flags.is("--seed")) {
      seed = flags.seed_value();
    } else if (flags.is("--loss")) {
      loss = flags.double_value(0.0, 1.0);
    } else if (flags.is("--rounds")) {
      rounds = flags.int_value(1, 1000);
    } else if (flags.is("--responders")) {
      responders = flags.int_value(1, 8);
    } else {
      flags.unknown();
    }
  }

  if (!record_path.empty()) obs::FlightRecorder::set_enabled(true);

  // Office scenario with responders on a ring and a lossy fault plan: the
  // same shape bench_ext_fault_sweep uses, sized for a quick interactive
  // run that still produces every failure status at 30% loss.
  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.initiator_position = {2.0, 4.0};
  cfg.seed = seed;
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8};
  cfg.detect_max_responses = static_cast<int>(2 * responders);
  cfg.slot_aware_selection = true;
  const double radius = 2.8;
  for (long i = 0; i < responders; ++i) {
    const double ang =
        2.0 * std::numbers::pi * static_cast<double>(i) /
            static_cast<double>(responders) + 0.4;
    cfg.responders.push_back(
        {static_cast<int>(i),
         {cfg.initiator_position.x + radius * std::cos(ang) + 1.5,
          cfg.initiator_position.y + 0.6 * radius * std::sin(ang)}});
  }
  cfg.fault.preamble_miss_prob = loss;
  cfg.fault.preamble_snr_exponent = 1.0;
  cfg.fault.crc_error_prob = loss / 4.0;
  cfg.fault.late_tx_abort_prob = loss / 4.0;
  cfg.fault.dropout_prob = loss / 8.0;
  cfg.resilience.max_retries = 2;

  ranging::ConcurrentRangingScenario scenario(cfg);
  std::printf("session 0x%016llx: %ld rounds, %ld responders, %.0f%% loss\n",
              seed, rounds, responders, 100.0 * loss);

  for (long round = 0; round < rounds; ++round) {
    const ranging::RoundOutcome out = scenario.run_round();
    std::printf("\nround %ld (%d attempt%s): %s\n", round, out.attempts,
                out.attempts == 1 ? "" : "s",
                out.payload_decoded ? "decoded" : "failed");
    for (const auto& rep : out.responder_reports)
      std::printf("  responder %d: %s\n", rep.id,
                  ranging::to_string(rep.status));
  }

  if (!record_path.empty()) {
    const auto& recorder = obs::FlightRecorder::instance();
    if (!recorder.write_jsonl(record_path)) {
      std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
      return 1;
    }
    std::printf("\n[%llu events recorded, %llu dropped; written to %s]\n",
                static_cast<unsigned long long>(recorder.recorded_events()),
                static_cast<unsigned long long>(recorder.dropped_events()),
                record_path.c_str());
    std::printf("explain a failed round with:\n"
                "  python3 tools/explain_session.py %s --list\n",
                record_path.c_str());
  }
  return 0;
}
