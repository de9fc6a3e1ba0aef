#include "dw1000/cir_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace uwb::dw {

bool save_cir_csv(const CirEstimate& cir, const std::string& path) {
  // Offline trace export invoked from tools/benches after a run completes;
  // nothing on the simulated timeline calls it.
  std::ofstream out(path);
  if (!out) return false;
  char header[96];
  std::snprintf(header, sizeof(header), "# ts_s=%.17g first_path_index=%.17g\n",
                cir.ts_s, cir.first_path_index);
  out << header;
  out << "tap,re,im\n";
  char buf[80];
  for (std::size_t i = 0; i < cir.taps.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%zu,%.17g,%.17g\n", i,
                  cir.taps[i].real(), cir.taps[i].imag());
    out << buf;
  }
  return static_cast<bool>(out);
}

std::optional<CirEstimate> load_cir_csv(const std::string& path) {
  // Offline import of recorded hardware CIR traces at setup time, before
  // the simulated timeline starts.
  std::ifstream in(path);
  if (!in) return std::nullopt;
  CirEstimate cir;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (std::sscanf(line.c_str(), "# ts_s=%lf first_path_index=%lf", &cir.ts_s,
                  &cir.first_path_index) != 2)
    return std::nullopt;
  if (!std::getline(in, line) || line != "tap,re,im") return std::nullopt;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::size_t tap = 0;
    double re = 0.0, im = 0.0;
    if (std::sscanf(line.c_str(), "%zu,%lf,%lf", &tap, &re, &im) != 3)
      return std::nullopt;
    if (tap != cir.taps.size()) return std::nullopt;  // must be contiguous
    cir.taps.emplace_back(re, im);
  }
  if (cir.taps.empty()) return std::nullopt;
  return cir;
}

}  // namespace uwb::dw
