#include "dw1000/diagnostics.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "common/units.hpp"
#include "dsp/peaks.hpp"
#include "dsp/signal.hpp"
#include "dw1000/timestamping.hpp"

namespace uwb::dw {

RxDiagnostics analyze_cir(const CVec& cir_taps) {
  UWB_EXPECTS(!cir_taps.empty());
  RxDiagnostics diag;
  RVec scratch;
  diag.noise_sigma = dsp::noise_sigma_estimate(cir_taps, scratch);
  diag.first_path_index = detect_first_path(cir_taps);

  // Interpolate the first-path magnitude at the (fractional) index, then
  // take the local maximum over the next couple of taps — the leading-edge
  // index sits on the rising flank, not the peak.
  const auto fp = static_cast<std::size_t>(diag.first_path_index);
  double fp_amp = std::abs(dsp::sample_at(cir_taps, diag.first_path_index));
  for (std::size_t i = fp; i < std::min(cir_taps.size(), fp + 4); ++i)
    fp_amp = std::max(fp_amp, std::abs(cir_taps[i]));
  diag.first_path_amplitude = fp_amp;

  const double total_power = dsp::energy(cir_taps);
  // Exclude the (estimated) noise contribution from the total so the ratio
  // reflects signal energy only. The first path is itself signal, so it
  // bounds the estimate from below (keeps fp/total <= 0 dB on noisy links
  // where the noise-power estimate overshoots).
  const double noise_power = 2.0 * diag.noise_sigma * diag.noise_sigma *
                             static_cast<double>(cir_taps.size());
  const double signal_power =
      std::max(total_power - noise_power, fp_amp * fp_amp + 1e-30);

  diag.first_path_power_db = linear_to_db(fp_amp * fp_amp + 1e-30);
  diag.total_power_db = linear_to_db(signal_power);
  diag.fp_to_total_db = diag.first_path_power_db - diag.total_power_db;

  double peak = 0.0;
  for (const auto& v : cir_taps) peak = std::max(peak, std::abs(v));
  diag.peak_snr_db =
      diag.noise_sigma > 0.0 ? linear_to_db((peak * peak) /
                                            (2.0 * diag.noise_sigma *
                                             diag.noise_sigma))
                             : 0.0;
  return diag;
}

bool likely_nlos(const RxDiagnostics& diag, double threshold_db) {
  return diag.fp_to_total_db < threshold_db;
}

}  // namespace uwb::dw
