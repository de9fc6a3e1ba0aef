// Matched filtering (paper Sect. IV, Eq. 3).
//
// The paper's detector convolves the received CIR with the time-reversed
// pulse template. We implement the equivalent correlation form:
//
//   y[n] = sum_m r[n + m] * conj(s[m])
//
// so that the peak index n of |y| is directly the *start* sample of the
// template within the CIR. Templates are normalised to unit energy, making
// |y[n]| the amplitude estimate of a pulse starting at n — comparable across
// templates of different widths (needed by the pulse-shape classifier of
// Sect. V).
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace uwb::dsp {

/// Correlation-form matched filter for one pulse template.
class MatchedFilter {
 public:
  /// The template is normalised to unit energy on construction.
  explicit MatchedFilter(CVec pulse_template);

  /// Correlate against `r`. Output has the same length as `r`; output index
  /// n is the template start position (template samples beyond the end of
  /// `r` are treated as zero).
  CVec apply(const CVec& r) const;

  /// FFT of the conj-time-reversed unit template at the power-of-two length
  /// `padded` (cached; rebuilt when `padded` changes).
  const CVec& template_spectrum(std::size_t padded) const;

  /// Unit-energy template used by the filter.
  const CVec& unit_template() const { return tmpl_; }

  std::size_t template_length() const { return tmpl_.size(); }

 private:
  CVec tmpl_;
  // Cached template spectrum for FFT-based correlation (lazily built per
  // padded length; rebuilt if the input length changes).
  mutable CVec tmpl_spec_;
  mutable std::size_t spec_len_ = 0;
};

/// Direct (non-FFT) correlation with identical semantics; used for testing
/// and for very short inputs.
CVec correlate_direct(const CVec& r, const CVec& unit_template);

}  // namespace uwb::dsp
