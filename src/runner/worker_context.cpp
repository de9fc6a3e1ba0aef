#include "runner/worker_context.hpp"

#include "dw1000/pulse.hpp"
#include "geom/image_source.hpp"
#include "ranging/search_subtract.hpp"

namespace uwb::runner {

WorkerContext& WorkerContext::current() {
  thread_local WorkerContext context;
  return context;
}

obs::Shard& WorkerContext::metrics() const {
  return obs::MetricsRegistry::instance().local_shard();
}

WorkerContext::CacheStats WorkerContext::stats() const {
  const auto pulse = dw::pulse_cache_stats();
  const auto path = geom::path_cache_stats();
  const auto bank = ranging::SearchSubtractDetector::bank_cache_stats();
  CacheStats out;
  out.pulse_hits = pulse.hits;
  out.pulse_misses = pulse.misses;
  out.path_hits = path.hits;
  out.path_misses = path.misses;
  out.bank_hits = bank.hits;
  out.bank_misses = bank.misses;
  return out;
}

void WorkerContext::clear() const {
  dw::clear_pulse_cache();
  geom::clear_path_cache();
  ranging::SearchSubtractDetector::clear_bank_cache();
}

}  // namespace uwb::runner
