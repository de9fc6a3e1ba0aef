// Anchor-based indoor localisation on top of concurrent ranging — the
// paper's stated future work, working end to end.
//
// A tag walks a path through a 12 x 8 m office. Four wall anchors answer
// every broadcast simultaneously (4 RPM slots), so each position fix costs
// the tag exactly one transmit and one receive operation.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "example_util.hpp"
#include "loc/anchor_system.hpp"
#include "loc/tracker.hpp"
#include "ranging/capacity.hpp"

int main(int argc, char** argv) {
  using namespace uwb;

  std::uint64_t seed = 7;
  double step_m = 0.4;
  examples::FlagParser p(argc, argv,
                         "office_localization [--seed X] [--step M]");
  while (p.next()) {
    if (p.is("--seed")) seed = p.seed_value();
    else if (p.is("--step")) step_m = p.double_value(0.05, 5.0);
    else p.unknown();
  }

  loc::AnchorSystemConfig cfg;
  cfg.scenario.room = geom::Room::rectangular(12.0, 8.0, 10.0);
  cfg.scenario.seed = seed;
  cfg.scenario.ranging.num_slots = 4;
  cfg.scenario.ranging.slot_spacing_s = 120e-9;
  cfg.scenario.responders = {
      {0, {0.5, 0.5}},   // anchor A, slot 0
      {1, {11.5, 0.5}},  // anchor B, slot 1
      {2, {11.5, 7.5}},  // anchor C, slot 2
      {3, {0.5, 7.5}},   // anchor D, slot 3
  };
  loc::AnchorLocalizer localizer(cfg);

  // The tag walks at ~1 m/s with 2.5 fixes per second (concurrent ranging
  // makes high fix rates cheap: one TX+RX each).
  std::printf("tag walking a path, %.1f m between fixes:\n\n", step_m);
  const geom::Vec2 waypoints[] = {{2.0, 2.0}, {6.0, 4.0}, {10.0, 6.0},
                                  {9.0, 3.0}, {6.0, 2.0}, {3.5, 5.5}};
  std::vector<geom::Vec2> path;
  for (std::size_t w = 0; w + 1 < std::size(waypoints); ++w) {
    const geom::Vec2 a = waypoints[w], b = waypoints[w + 1];
    const int steps =
        std::max(1, static_cast<int>(geom::distance(a, b) / step_m));
    for (int s = 0; s < steps; ++s)
      path.push_back(a + (b - a) * (static_cast<double>(s) / steps));
  }
  path.push_back(waypoints[std::size(waypoints) - 1]);

  loc::PositionTracker tracker;  // alpha-beta smoothing across fixes
  int fixes = 0;
  double total_err = 0.0, total_tracked_err = 0.0;
  for (const geom::Vec2 p : path) {
    const loc::Fix fix = localizer.locate(p);
    if (!fix.ok) continue;
    ++fixes;
    total_err += fix.error_m;
    const geom::Vec2 tracked = tracker.update(fix.position, step_m);
    total_tracked_err += geom::distance(tracked, p);
  }
  std::printf("fixes            : %d / %zu path points\n", fixes, path.size());
  if (fixes > 0) {
    std::printf("mean error (raw fixes)      : %.3f m\n", total_err / fixes);
    std::printf("mean error (alpha-beta)     : %.3f m\n",
                total_tracked_err / fixes);
  }

  // What the tag saves per fix compared to scheduled SS-TWR.
  const dw::PhyConfig phy;
  const auto twr = ranging::twr_round_cost(4, phy, 290e-6);
  const auto conc = ranging::concurrent_round_cost(4, phy, 290e-6);
  std::printf("tag energy per fix: %.3f mJ concurrent vs %.3f mJ SS-TWR (%.1fx)\n",
              conc.initiator_j * 1e3, twr.initiator_j * 1e3,
              twr.initiator_j / conc.initiator_j);
  return 0;
}
