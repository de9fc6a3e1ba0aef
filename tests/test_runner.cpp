// The parallel Monte-Carlo runner: seed derivation, thread pool, and the
// determinism contract — bit-identical aggregates at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "obs/metrics.hpp"
#include "ranging/search_subtract.hpp"
#include "ranging/session.hpp"
#include "runner/monte_carlo.hpp"
#include "runner/thread_pool.hpp"
#include "runner/worker_context.hpp"

namespace uwb {
namespace {

// --- seed derivation --------------------------------------------------------

TEST(DeriveSeed, GoldenValuesStableAcrossPlatforms) {
  // The determinism contract hinges on derive_seed being pure 64-bit
  // integer arithmetic: the same (base, stream) must map to the same seed
  // on every platform, compiler, and thread. These anchors were computed
  // once from the definition; a change here is a contract break.
  EXPECT_EQ(derive_seed(0, 0), 0x8194228B8265021FULL);
  EXPECT_EQ(derive_seed(1, 0), 0x50FCD7BCF2FCB933ULL);
  EXPECT_EQ(derive_seed(1, 1), 0xB9DCCA0CF6663F98ULL);
  EXPECT_EQ(derive_seed(42, 7), 0xE680D06710AA5E65ULL);
  EXPECT_EQ(derive_seed(0xDEADBEEFULL, 123456789), 0xB824400C7C867080ULL);
}

TEST(DeriveSeed, StreamsAndBasesAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base = 0; base < 8; ++base)
    for (std::uint64_t stream = 0; stream < 256; ++stream)
      seen.insert(derive_seed(base, stream));
  EXPECT_EQ(seen.size(), 8u * 256u);
}

TEST(DeriveSeed, NeverReturnsTrivialSeeds) {
  for (std::uint64_t stream = 0; stream < 1000; ++stream) {
    EXPECT_NE(derive_seed(0, stream), 0u);
    EXPECT_NE(derive_seed(0, stream), stream);
  }
}

// --- thread pool ------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTask) {
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, TasksMaySubmitMoreTasks) {
  runner::ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&pool, &counter] {
      counter.fetch_add(1);
      pool.submit([&counter] { counter.fetch_add(1); });
    });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, PropagatesFirstWorkerException) {
  runner::ThreadPool pool(2);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([i, &survivors] {
      if (i == 3) throw std::runtime_error("trial blew up");
      survivors.fetch_add(1);
    });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The failure neither killed the workers nor poisoned the pool.
  pool.submit([&survivors] { survivors.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(survivors.load(), 8);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  runner::ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();
}

// --- Monte-Carlo determinism contract --------------------------------------

runner::TrialResult run_mc(int threads, int n_trials, int chunk = 0) {
  runner::MonteCarlo::Config cfg;
  cfg.threads = threads;
  cfg.base_seed = 77;
  cfg.chunk = chunk;
  return runner::MonteCarlo(cfg).run(
      n_trials,
      [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
        Rng rng(ctx.seed);
        rec.sample("gauss", rng.normal(0.0, 1.0));
        rec.sample("uniform", rng.uniform(0.0, 1.0));
        if (ctx.trial_index % 3 == 0) rec.count("thirds");
        rec.count("trials");
      });
}

void expect_bit_identical(const runner::TrialResult& a,
                          const runner::TrialResult& b) {
  ASSERT_EQ(a.metric_names(), b.metric_names());
  ASSERT_EQ(a.counter_names(), b.counter_names());
  for (const auto& name : a.metric_names()) {
    const RVec& xs = a.samples(name);
    const RVec& ys = b.samples(name);
    ASSERT_EQ(xs.size(), ys.size()) << name;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Bitwise comparison: the contract is bit-identical, not "close".
      std::uint64_t xb = 0, yb = 0;
      std::memcpy(&xb, &xs[i], sizeof(xb));
      std::memcpy(&yb, &ys[i], sizeof(yb));
      EXPECT_EQ(xb, yb) << name << "[" << i << "]";
    }
  }
  for (const auto& name : a.counter_names())
    EXPECT_EQ(a.counter(name), b.counter(name)) << name;
}

TEST(MonteCarlo, BitIdenticalAcrossThreadCounts) {
  const auto serial = run_mc(1, 97);
  for (const int threads : {2, 5, 8}) {
    const auto parallel = run_mc(threads, 97);
    expect_bit_identical(serial, parallel);
  }
}

TEST(MonteCarlo, ChunkSizeNeverAffectsResults) {
  const auto reference = run_mc(4, 50);
  for (const int chunk : {1, 3, 7, 50, 1000})
    expect_bit_identical(reference, run_mc(4, 50, chunk));
}

TEST(MonteCarlo, TrialLatencyHistogramCountsEveryTrial) {
  // Every trial's wall time lands in the merged obs registry histogram —
  // in both build flavours (recorded via the Shard API, not the macros) —
  // and the aggregate's count equals the trial count for any thread count.
  for (const int threads : {1, 4}) {
    obs::MetricsRegistry::instance().reset();
    run_mc(threads, 61);
    const obs::Snapshot snap = obs::MetricsRegistry::instance().aggregate();
    const obs::Histogram* h = snap.histogram("trial_latency_ms");
    ASSERT_NE(h, nullptr) << "threads=" << threads;
    EXPECT_EQ(h->count(), 61u) << "threads=" << threads;
    EXPECT_GE(h->max(), h->min());
    EXPECT_GE(h->quantile(0.99), h->quantile(0.50));
  }
}

TEST(MonteCarlo, TrialsSeeSeedOfTheirIndex) {
  runner::MonteCarlo::Config cfg;
  cfg.threads = 4;
  cfg.base_seed = 123;
  const auto result = runner::MonteCarlo(cfg).run(
      40, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
        EXPECT_EQ(ctx.seed, derive_seed(123, ctx.trial_index));
        rec.sample("index", static_cast<double>(ctx.trial_index));
      });
  const RVec& indices = result.samples("index");
  ASSERT_EQ(indices.size(), 40u);
  // merge_in_order: samples come back sorted by trial index regardless of
  // which worker ran which trial.
  for (std::size_t i = 0; i < indices.size(); ++i)
    EXPECT_EQ(indices[i], static_cast<double>(i));
}

TEST(MonteCarlo, CountersAndSummariesAreExact) {
  const auto result = run_mc(3, 90);
  EXPECT_EQ(result.trials(), 90);
  EXPECT_EQ(result.counter("trials"), 90);
  EXPECT_EQ(result.counter("thirds"), 30);
  EXPECT_EQ(result.counter("never_recorded"), 0);
  const auto s = result.summary("uniform");
  EXPECT_EQ(s.count, 90u);
  EXPECT_GE(s.min, 0.0);
  EXPECT_LE(s.max, 1.0);
  EXPECT_GE(s.p90, s.p50);
  EXPECT_GE(s.p99, s.p90);
}

TEST(MonteCarlo, RethrowsTrialException) {
  runner::MonteCarlo::Config cfg;
  cfg.threads = 4;
  const runner::MonteCarlo mc(cfg);
  EXPECT_THROW(
      mc.run(20,
             [](const runner::TrialContext& ctx, runner::TrialRecorder&) {
               if (ctx.trial_index == 11)
                 throw std::runtime_error("determinism violated");
             }),
      std::runtime_error);
}

TEST(MonteCarlo, InlineModeMatchesPool) {
  // threads=1 runs inline on the calling thread (no pool at all); it is the
  // reference the pooled runs must reproduce.
  runner::MonteCarlo::Config cfg;
  cfg.threads = 1;
  EXPECT_EQ(runner::MonteCarlo(cfg).threads(), 1);
  const auto inline_result = run_mc(1, 10);
  EXPECT_EQ(inline_result.threads_used(), 1);
  const auto pooled = run_mc(2, 10);
  EXPECT_EQ(pooled.threads_used(), 2);
  expect_bit_identical(inline_result, pooled);
}

// --- scenario-level determinism (the acceptance property) -------------------

TEST(MonteCarlo, ScenarioRoundsBitIdenticalAcrossThreads) {
  const auto run_rounds = [](int threads) {
    runner::MonteCarlo::Config cfg;
    cfg.threads = threads;
    cfg.base_seed = 404;
    return runner::MonteCarlo(cfg).run(
        12, [](const runner::TrialContext& ctx, runner::TrialRecorder& rec) {
          ranging::ScenarioConfig scfg;
          scfg.room = geom::Room::hallway(40.0, 2.4, 15.0);
          scfg.initiator_position = {2.0, 1.0};
          scfg.responders = {{0, {5.0, 1.0}}, {1, {8.0, 1.0}}};
          scfg.seed = ctx.seed;
          ranging::ConcurrentRangingScenario scenario(scfg);
          const auto out = scenario.run_round();
          rec.sample("d_twr", out.d_twr_m);
          rec.count("decoded", out.payload_decoded ? 1 : 0);
        });
  };
  expect_bit_identical(run_rounds(1), run_rounds(8));
}

// --- per-worker state --------------------------------------------------------

TEST(WorkerContext, EachThreadHasItsOwnCaches) {
  // What a worker owns is its metrics shard: one shard per thread, the same
  // on every call from that thread. The detector plan is not per worker:
  // a fresh thread resolves the object the main thread built, and
  // WorkerContext::current().clear() (a no-op) does not rebuild it.
  auto& registry = obs::MetricsRegistry::instance();
  obs::Shard* const main_shard = &registry.local_shard();
  EXPECT_EQ(&registry.local_shard(), main_shard);
  const auto resolve_plan = [] {
    return &ranging::SearchSubtractDetector(ranging::DetectorConfig{})
                .plan(k::cir_ts_s, 1016);
  };
  const ranging::DetectorPlan* const main_plan = resolve_plan();
  obs::Shard* other_shard = nullptr;
  const ranging::DetectorPlan* other_plan = nullptr;
  std::thread([&] {
    runner::WorkerContext::current().clear();
    other_shard = &registry.local_shard();
    other_plan = resolve_plan();
  }).join();
  EXPECT_NE(other_shard, main_shard);
  EXPECT_EQ(other_plan, main_plan);
  runner::WorkerContext::current().clear();
  EXPECT_EQ(resolve_plan(), main_plan);
}

}  // namespace
}  // namespace uwb
