// A no-op forward kept only because perfbench/ calls
// `runner::WorkerContext::current().clear()` and a change that claims a
// gain may not edit the benchmark; the next benchmark revision drops the
// call and this header (ROADMAP item 7). No worker keeps a cache to clear:
// the detector plans and FFT plans are built once per process and shared.
#pragma once

namespace uwb::runner {

struct WorkerContext {
  static WorkerContext current() { return {}; }
  void clear() const {}
};

}  // namespace uwb::runner
