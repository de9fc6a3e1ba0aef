#include "ranging/attack_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/expects.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"

namespace uwb::ranging {

namespace {
/// Max |measured - programmed| reply interval [s]. Honest replies are off
/// only by delayed-TX quantisation (< 8.013 ns) plus timestamp noise.
constexpr double kReplyToleranceS = 25e-9;
/// Ghost-tail check: energy window (tau + gap .. tau + window] behind each
/// strong peak, compared against the peak's own energy. A genuine first
/// path is followed by its multipath tail; an isolated ghost tap is not.
/// The window must stay below the attacker's one-way propagation delay:
/// injected ghosts can lead the legitimate path by at most that much (a
/// CIR tap cannot precede the frame's transmission), and the legitimate
/// path landing inside the window would masquerade as the ghost's tail.
constexpr double kTailGapS = 3e-9;
constexpr double kTailWindowS = 20e-9;
constexpr double kMinTailRatio = 0.02;
/// Only peaks at least this fraction of the round's strongest response
/// are tail-checked (weak peaks ride on noise either way).
constexpr double kStrongPeakFraction = 0.35;
/// Unknown-ID check fires only for responses at least this fraction of
/// the strongest response (benign weak-peak misclassifications pass).
constexpr double kUnknownMinRelAmplitude = 0.5;
}  // namespace

const char* to_string(AttackCheck check) {
  switch (check) {
    case AttackCheck::kCfoImplausible: return "cfo_implausible";
    case AttackCheck::kReplySchedule: return "reply_schedule";
    case AttackCheck::kGhostTail: return "ghost_tail";
    case AttackCheck::kUnknownId: return "unknown_id";
  }
  return "unknown";
}

void AttackDetectorConfig::validate() const { UWB_EXPECTS(cfo_max_ppm > 0.0); }

AttackDetector::AttackDetector(AttackDetectorConfig config)
    : config_(config) {
  config_.validate();
}

double AttackDetector::tail_energy_ratio(const CVec& cir_taps, double ts_s,
                                         double tau_s, double gap_s,
                                         double window_s) {
  UWB_EXPECTS(ts_s > 0.0);
  UWB_EXPECTS(window_s > gap_s);
  if (cir_taps.empty()) return 0.0;
  const auto n = static_cast<std::ptrdiff_t>(cir_taps.size());
  const auto peak = static_cast<std::ptrdiff_t>(std::llround(tau_s / ts_s));
  const double peak_energy =
      peak >= 0 && peak < n
          ? std::norm(cir_taps[static_cast<std::size_t>(peak)])
          : 0.0;
  if (peak_energy <= 0.0) return 0.0;
  const auto lo = peak + static_cast<std::ptrdiff_t>(std::ceil(gap_s / ts_s));
  const auto hi =
      peak + static_cast<std::ptrdiff_t>(std::floor(window_s / ts_s));
  double tail = 0.0;
  for (std::ptrdiff_t i = std::max<std::ptrdiff_t>(peak + 1, lo);
       i <= hi && i < n; ++i)
    tail += std::norm(cir_taps[static_cast<std::size_t>(i)]);
  return tail / peak_energy;
}

std::vector<AttackVerdict> AttackDetector::detect(
    const RoundView& round) const {
  std::vector<AttackVerdict> verdicts;
  if (!config_.enabled) return verdicts;
  UWB_EXPECTS(round.cir != nullptr && round.detections != nullptr &&
              round.estimates != nullptr && round.configured_ids != nullptr);
  UWB_EXPECTS(round.estimates->size() == round.detections->size());

  const auto indict = [&verdicts](int responder_id, AttackCheck check,
                                  double metric, double threshold,
                                  double tau_s) {
    verdicts.push_back({responder_id, check, metric, threshold, tau_s});
    UWB_OBS_COUNT("attack_verdicts", 1);
    UWB_FR_EVENT(.kind = obs::FrKind::kVerdict, .name = "verdict",
                 .node = responder_id, .detail = to_string(check),
                 .v0 = {"metric", metric}, .v1 = {"threshold", threshold},
                 .v2 = {"tau_s", tau_s});
  };

  // Round-level checks indict the sync responder: its CFO and reported
  // reply interval are the only ones the SS-TWR math consumes.
  if (std::abs(round.cfo_ppm) > config_.cfo_max_ppm)
    indict(round.sync_responder_id, AttackCheck::kCfoImplausible,
           round.cfo_ppm, config_.cfo_max_ppm, 0.0);
  const double reply_residual = round.reply_s - round.programmed_reply_s;
  if (std::abs(reply_residual) > kReplyToleranceS)
    indict(round.sync_responder_id, AttackCheck::kReplySchedule,
           reply_residual, kReplyToleranceS, 0.0);

  // Per-response checks over the round's CIR. Amplitude reference: the
  // round's strongest detected response.
  double strongest = 0.0;
  for (const DetectedResponse& d : *round.detections)
    strongest = std::max(strongest, std::abs(d.amplitude));
  if (strongest <= 0.0) return verdicts;

  const CVec& taps = round.cir->taps;
  const double ts_s = round.cir->ts_s;
  for (std::size_t i = 0; i < round.detections->size(); ++i) {
    const DetectedResponse& det = (*round.detections)[i];
    const ResponderEstimate& est = (*round.estimates)[i];
    const double rel_amp = std::abs(det.amplitude) / strongest;

    if (rel_amp >= kStrongPeakFraction) {
      const double tail =
          tail_energy_ratio(taps, ts_s, det.tau_s, kTailGapS, kTailWindowS);
      if (tail < kMinTailRatio)
        indict(est.responder_id, AttackCheck::kGhostTail, tail, kMinTailRatio,
               det.tau_s);
    }

    if (est.responder_id >= 0 &&
        round.configured_ids->count(est.responder_id) == 0 &&
        rel_amp >= kUnknownMinRelAmplitude)
      indict(est.responder_id, AttackCheck::kUnknownId,
             static_cast<double>(est.responder_id), rel_amp, det.tau_s);
  }
  return verdicts;
}

}  // namespace uwb::ranging
