// Path-loss models.
//
// The paper (open challenge IV) stresses that the idealised Friis equation
// does not hold in typical UWB operational areas; the channel simulator uses
// the log-distance model (the amplitude-independence ablation fits its own
// Friis boundary to contrast the two).
#pragma once

namespace uwb::channel {

/// Log-distance path loss [dB]: PL(d) = PL(d0) + 10 n log10(d/d0).
/// Typical indoor LOS UWB: n ~ 1.6-1.8; NLOS: n ~ 3-4.
double log_distance_loss_db(double distance_m, double exponent,
                            double reference_loss_db, double reference_m = 1.0);

/// Linear *amplitude* gain corresponding to a power loss in dB.
double loss_db_to_amplitude(double loss_db);

}  // namespace uwb::channel
