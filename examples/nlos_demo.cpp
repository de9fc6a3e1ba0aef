// NLOS demo: a responder whose direct path is attenuated by an obstacle is
// still found by the amplitude-independent search-and-subtract detector —
// the situation (open challenge IV) where power-boundary heuristics break.
#include <cmath>
#include <cstdio>

#include "example_util.hpp"
#include "ranging/session.hpp"

int main(int argc, char** argv) {
  using namespace uwb;

  std::uint64_t seed = 11;
  int rounds = 50;
  examples::FlagParser p(argc, argv, "nlos_demo [--seed X] [--rounds R]");
  while (p.next()) {
    if (p.is("--seed")) seed = p.seed_value();
    else if (p.is("--rounds"))
      rounds = static_cast<int>(p.int_value(1, 100000));
    else p.unknown();
  }

  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(14.0, 8.0, 12.0);
  // A cabinet blocks the line of sight to responder 1 only.
  cfg.room.add_obstacle({{{7.0, 3.2}, {7.0, 4.8}}, 9.0});
  cfg.initiator_position = {2.0, 4.0};
  cfg.responders = {
      {0, {5.0, 4.0}},   // 3 m, clear
      {1, {10.0, 4.0}},  // 8 m, obstructed (-9 dB on the direct path)
  };
  cfg.detect_max_responses = 4;  // surface the weak response behind MPCs
  cfg.seed = seed;
  ranging::ConcurrentRangingScenario scenario(cfg);

  int found = 0, decoded = 0;
  double err_sum = 0.0;
  for (int t = 0; t < rounds; ++t) {
    const auto out = scenario.run_round();
    if (!out.payload_decoded) continue;
    ++decoded;
    for (std::size_t i = 1; i < out.estimates.size(); ++i) {
      if (std::abs(out.estimates[i].distance_m - 8.0) < 1.0) {
        ++found;
        err_sum += out.estimates[i].distance_m - 8.0;
        break;
      }
    }
  }

  std::printf("obstructed responder (8 m, direct path -9 dB):\n");
  std::printf("  found in %d / %d rounds (amplitude-independent detection)\n",
              found, decoded);
  if (found > 0)
    std::printf("  mean distance bias: %+.3f m\n", err_sum / found);
  std::printf(
      "\nA Friis power-boundary filter would reject this response: its\n"
      "amplitude is ~9 dB below the free-space prediction for 8 m. The\n"
      "rank-based detector keeps it because detection never depends on\n"
      "absolute amplitudes (paper Sect. IV).\n");
  return 0;
}
