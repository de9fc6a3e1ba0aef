#include "runner/worker_context.hpp"

#include "ranging/search_subtract.hpp"

namespace uwb::runner {

WorkerContext& WorkerContext::current() {
  thread_local WorkerContext context;
  return context;
}

obs::Shard& WorkerContext::metrics() const {
  return obs::MetricsRegistry::instance().local_shard();
}

void WorkerContext::clear() const {
  ranging::SearchSubtractDetector::clear_bank_cache();
}

}  // namespace uwb::runner
