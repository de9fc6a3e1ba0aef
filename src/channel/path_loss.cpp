#include "channel/path_loss.hpp"

#include <cmath>

#include "common/expects.hpp"

namespace uwb::channel {

double log_distance_loss_db(double distance_m, double exponent,
                            double reference_loss_db, double reference_m) {
  UWB_EXPECTS(distance_m > 0.0);
  UWB_EXPECTS(reference_m > 0.0);
  UWB_EXPECTS(exponent >= 0.0);
  return reference_loss_db +
         10.0 * exponent * std::log10(distance_m / reference_m);
}

double loss_db_to_amplitude(double loss_db) {
  return std::pow(10.0, -loss_db / 20.0);
}

}  // namespace uwb::channel
