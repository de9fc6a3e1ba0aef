// Instrumentation entry points for the observability subsystem.
//
// Instrumented code uses only these macros; they expand to the
// Span/Counter/Gauge/Histogram machinery of metrics.hpp and span.hpp.
//
// All names passed to these macros must be string literals (spans store the
// pointer; counters/gauges cache a reference in a function-local
// `static thread_local`, so the name must be the same on every execution of
// that call site).
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

#define UWB_OBS_CONCAT_INNER(a, b) a##b
#define UWB_OBS_CONCAT(a, b) UWB_OBS_CONCAT_INNER(a, b)

/// Time the enclosing scope under `name` (a string literal).
#define UWB_OBS_SPAN(name) \
  ::uwb::obs::Span UWB_OBS_CONCAT(uwb_obs_span_, __LINE__)(name)

/// Add `delta` to the thread-local counter `name` (a string literal).
#define UWB_OBS_COUNT(name, delta)                                      \
  do {                                                                  \
    static thread_local ::uwb::obs::Counter& uwb_obs_counter_ =         \
        ::uwb::obs::MetricsRegistry::instance().local_shard().counter(  \
            name);                                                      \
    uwb_obs_counter_.add(static_cast<std::uint64_t>(delta));            \
  } while (false)

/// Set the thread-local gauge `name` (a string literal) to `value`.
#define UWB_OBS_GAUGE_SET(name, value)                                \
  do {                                                                \
    static thread_local ::uwb::obs::Gauge& uwb_obs_gauge_ =           \
        ::uwb::obs::MetricsRegistry::instance().local_shard().gauge(  \
            name);                                                    \
    uwb_obs_gauge_.set(static_cast<double>(value));                   \
  } while (false)

/// Observe `value` in the thread-local histogram `name` (a string literal).
/// `buckets` is a `const HistogramBuckets&` expression; the first execution
/// per thread fixes the layout, so pass the same layout at every call site
/// sharing a name.
#define UWB_OBS_HISTOGRAM(name, buckets, value)                          \
  do {                                                                   \
    static thread_local ::uwb::obs::Histogram& uwb_obs_histogram_ =      \
        ::uwb::obs::MetricsRegistry::instance().local_shard().histogram( \
            name, buckets);                                              \
    uwb_obs_histogram_.observe(static_cast<double>(value));              \
  } while (false)
