// Extension A7: network-wide all-pairs ranging, *measured* on the simulated
// radios (not just the analytic message counts of Sect. III). Every node
// initiates one concurrent round; the sweep yields the full distance matrix
// with N broadcasts instead of N(N-1) scheduled exchanges. Each Monte-Carlo
// trial runs one full sweep on a freshly seeded network.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>

#include "bench_util.hpp"
#include "dsp/stats.hpp"
#include "ranging/capacity.hpp"
#include "ranging/network.hpp"

namespace {

uwb::ranging::NetworkConfig network_config(int n, std::uint64_t seed) {
  using namespace uwb;
  ranging::NetworkConfig cfg;
  cfg.room = geom::Room::rectangular(20.0, 14.0, 10.0);
  cfg.ranging.num_slots = 4;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xC8, 0xE6};
  cfg.seed = seed;
  // Ring of nodes.
  for (int i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * i / n + 0.4;
    cfg.node_positions.push_back(
        {10.0 + 6.5 * std::cos(ang), 7.0 + 4.5 * std::sin(ang)});
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 10);
  bench::JsonReport report("ext_network", opts.trials);
  bench::heading("Extension — all-pairs network ranging (measured in-sim)");
  std::printf("(%d sweeps per network size)\n", opts.trials);

  std::printf("\n%-6s %-12s %-14s %-14s %-16s %-16s %s\n", "N", "pairs",
              "filled", "mean |err| [m]", "energy [mJ]", "TWR energy [mJ]",
              "sweep time [ms]");

  for (const int n : {3, 5, 8, 12}) {
    const auto result = bench::monte_carlo(
        opts, 1400 + static_cast<std::uint64_t>(n))
        .run(opts.trials, [n](const runner::TrialContext& ctx,
                              runner::TrialRecorder& rec) {
          const ranging::NetworkConfig cfg = network_config(n, ctx.seed);
          ranging::NetworkRangingSession session(cfg);
          const auto sweep = session.run_full_sweep();
          rec.sample("energy_mj", sweep.total_energy_j * 1e3);
          rec.sample("time_ms", sweep.duration_s * 1e3);
          for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
              if (i == j) continue;
              rec.count("pairs");
              const auto& d = sweep.matrix[static_cast<std::size_t>(i)]
                                          [static_cast<std::size_t>(j)];
              if (!d.has_value()) continue;
              rec.count("filled");
              rec.sample("abs_err", std::abs(*d - session.true_distance(i, j).value()));
            }
        });

    const auto pairs = result.counter("pairs");
    const auto filled = result.counter("filled");
    const auto& errs = result.samples("abs_err");
    const double filled_pct =
        pairs ? 100.0 * static_cast<double>(filled) /
                    static_cast<double>(pairs)
              : 0.0;
    const double mean_err = errs.empty() ? 0.0 : dsp::mean(errs);
    const double energy_mj = dsp::mean(result.samples("energy_mj"));
    const double time_ms = dsp::mean(result.samples("time_ms"));
    // Analytic SS-TWR energy for the same task (every node ranges to all
    // others with scheduled exchanges).
    const ranging::NetworkConfig cfg = network_config(n, 0);
    const auto twr = ranging::twr_round_cost(n - 1, cfg.phy, 290e-6);
    std::printf("%-6d %-12lld %5.1f %%       %-14.3f %-16.3f %-16.3f %.2f\n",
                n, static_cast<long long>(pairs), filled_pct, mean_err,
                energy_mj, twr.network_j * n * 1e3, time_ms);
    const std::string key = std::to_string(n);
    report.metric("filled_pct_n" + key, filled_pct);
    report.metric("mean_abs_err_m_n" + key, mean_err);
    report.metric("energy_mj_n" + key, energy_mj);
  }

  std::printf(
      "\ncheck: the sweep fills the distance matrix with N broadcasts; the\n"
      "measured radio energy stays far below the scheduled-TWR requirement\n"
      "and the gap widens with N (the paper's Sect. III argument, observed\n"
      "end-to-end rather than counted).\n");
  return report.write_if_requested(opts) ? 0 : 1;
}
