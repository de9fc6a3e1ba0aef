// Reproduces paper Sect. VIII in-text numbers: slot capacity vs maximum
// communication range, total user capacity with pulse shaping, and the
// message/energy savings of concurrent ranging.
#include <cstdio>

#include "bench_util.hpp"
#include "common/constants.hpp"
#include "ranging/capacity.hpp"

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 1);
  bench::JsonReport report("sect8_scalability", opts.trials);
  bench::heading("Sect. VIII — scalability of the combined scheme");

  const dw::PhyConfig phy;
  std::printf("CIR span delta_max = %.1f ns  (%.1f m at c)\n",
              ranging::cir_max_offset_s(phy) * 1e9,
              ranging::cir_max_offset_s(phy) * k::c_air);
  std::printf("paper quotes delta_max ~= 1017 ns, delta_max*c ~= 307 m\n");

  bench::subheading("RPM slots and user capacity vs communication range");
  std::printf("%-14s %-12s %-18s %-14s %-14s %s\n", "r_max [m]",
              "N_RPM", "N_RPM (alias-free)", "N_max (NPS=3)",
              "N_max (NPS=10)", "N_max (NPS=108)");
  for (const double r : {10.0, 20.0, 50.0, 75.0, 150.0}) {
    const int slots = ranging::rpm_slots_paper(phy, r);
    const int safe = ranging::rpm_slots_aliasing_free(phy, r);
    std::printf("%-14.0f %-12d %-18d %-14d %-14d %d\n", r, slots, safe,
                ranging::max_concurrent_responders(slots, 3),
                ranging::max_concurrent_responders(slots, 10),
                ranging::max_concurrent_responders(slots, k::num_pulse_shapes));
  }
  std::printf(
      "\npaper anchors: r_max = 75 m -> N_RPM ~= 4; r_max = 20 m with ~100\n"
      "shapes -> more than 1500 supported responders. (The alias-free column\n"
      "is our round-trip-honest bound; see DESIGN.md.)\n");

  bench::subheading("network-wide messages for all-pairs distances");
  std::printf("%-8s %-16s %-16s %s\n", "N", "SS-TWR N(N-1)", "concurrent N",
              "savings");
  for (const int n : {2, 5, 10, 50, 100, 1500}) {
    std::printf("%-8d %-16lld %-16lld %.0fx\n", n,
                static_cast<long long>(ranging::twr_message_count(n)),
                static_cast<long long>(ranging::concurrent_message_count(n)),
                static_cast<double>(n - 1));
  }

  bench::subheading("one initiator round: energy vs number of neighbours");
  std::printf("%-8s %-18s %-18s %-12s %-18s %s\n", "N-1", "TWR init [mJ]",
              "conc. init [mJ]", "saving", "TWR network [mJ]",
              "conc. network [mJ]");
  for (const int n : {1, 3, 9, 19, 49, 99}) {
    const auto twr = ranging::twr_round_cost(n, phy, 290e-6);
    const auto conc = ranging::concurrent_round_cost(n, phy, 290e-6);
    std::printf("%-8d %-18.3f %-18.3f %-12.1f %-18.3f %.3f\n", n,
                twr.initiator_j * 1e3, conc.initiator_j * 1e3,
                twr.initiator_j / conc.initiator_j, twr.network_j * 1e3,
                conc.network_j * 1e3);
  }
  std::printf(
      "\npaper check: with 1499 neighbours the classical scheme needs one\n"
      "TX+RX pair per neighbour while concurrent ranging needs a single\n"
      "transmit and a single receive operation at the initiator.\n");
  report.metric("cir_max_offset_ns", ranging::cir_max_offset_s(phy) * 1e9);
  report.metric("rpm_slots_75m",
                static_cast<double>(ranging::rpm_slots_paper(phy, 75.0)));
  report.metric("nmax_20m_108shapes",
                static_cast<double>(ranging::max_concurrent_responders(
                    ranging::rpm_slots_paper(phy, 20.0),
                    k::num_pulse_shapes)));
  return report.write_if_requested(opts) ? 0 : 1;
}
