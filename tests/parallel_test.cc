#include "parallel/parallel_compress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "algo/brute_force.h"
#include "common/random.h"
#include "parallel/thread_pool.h"
#include "server/evaluate_batcher.h"
#include "workload/telephony.h"
#include "workload/tree_gen.h"

namespace provabs {
namespace {

// -------------------------------------------------------------- pool ----

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ThreadPoolTest, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturns) {
  ThreadPool pool(3);
  pool.Wait();  // Must not hang.
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  // Far more slow tasks than workers, destroyed immediately: the documented
  // contract is that pending work is drained, not dropped.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  // The serving layer keeps one pool alive for the process lifetime and
  // splits large evaluations across it call after call (see
  // server/evaluate_batcher).
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.ParallelFor(17, [&total](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1700);
}

TEST(ThreadPoolTest, ConcurrentCallersFromManyThreads) {
  // The concurrent serving path drives one pool from many request threads
  // at once: interleaved Submit/Wait and whole ParallelFor calls must never
  // drop or double-run a unit (Wait() waits for *all* in-flight tasks, so a
  // Submit/Wait caller may over-wait — that is allowed, losing work is
  // not). Run under TSan in CI.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 20;
  std::vector<std::atomic<int>> counts(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        if ((c + round) % 2 == 0) {
          pool.ParallelFor(13, [&, c](size_t) { counts[c].fetch_add(1); });
        } else {
          for (int i = 0; i < 13; ++i) {
            pool.Submit([&, c] { counts[c].fetch_add(1); });
          }
          pool.Wait();
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(counts[c].load(), kRounds * 13) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ConcurrentParallelForCallersDoNotWaitOnEachOther) {
  // Request threads share one pool, so a ParallelFor must wait for its own
  // chunks only. Caller A's one chunk holds a worker of a two-thread pool
  // on a latch; caller B's one-chunk ParallelFor runs on the other worker
  // and must return while A's chunk is still held.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  bool a_running = false;
  bool release = false;
  std::thread a([&] {
    pool.ParallelFor(1, [&](size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      a_running = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return a_running; });
  }
  std::promise<void> b_returned;
  std::future<void> b_done = b_returned.get_future();
  std::atomic<int> b_ran{0};
  std::thread b([&] {
    pool.ParallelFor(1, [&](size_t) { b_ran.fetch_add(1); });
    b_returned.set_value();
  });
  const bool returned_first = b_done.wait_for(std::chrono::seconds(5)) ==
                              std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  a.join();
  b.join();
  EXPECT_TRUE(returned_first) << "caller B waited for caller A's chunk";
  EXPECT_EQ(b_ran.load(), 1);
}

// -------------------------------------------------- parallel primitives --

class ParallelCompressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
      leaves_.push_back(vars_.Intern("pl" + std::to_string(i)));
    }
    other_ = vars_.Intern("om");
    forest_.AddTree(BuildUniformTree(vars_, leaves_, {2, 2}, "PP_"));

    std::vector<Monomial> terms;
    for (int m = 0; m < 60; ++m) {
      std::vector<Factor> f;
      f.push_back({leaves_[rng.Uniform(leaves_.size())], 1});
      if (rng.Bernoulli(0.6)) f.push_back({other_, 1});
      terms.emplace_back(rng.UniformReal(0.5, 9.5), std::move(f));
    }
    polys_.Add(Polynomial::FromMonomials(std::move(terms)));
  }

  VariableTable vars_;
  std::vector<VariableId> leaves_;
  VariableId other_;
  AbstractionForest forest_;
  PolynomialSet polys_;
};

TEST_F(ParallelCompressTest, NodeLossesMatchResidualIndex) {
  ThreadPool pool(4);
  const AbstractionTree& tree = forest_.tree(0);
  std::vector<LossReport> parallel = ParallelNodeLosses(polys_, tree, pool);
  LeafResidualIndex index(polys_, tree);
  ASSERT_EQ(parallel.size(), tree.node_count());
  for (NodeIndex v = 0; v < tree.node_count(); ++v) {
    EXPECT_EQ(parallel[v].monomial_loss, index.NodeLoss(v).monomial_loss);
    EXPECT_EQ(parallel[v].variable_loss, index.NodeLoss(v).variable_loss);
  }
}

TEST_F(ParallelCompressTest, BruteForceMatchesSerial) {
  ThreadPool pool(4);
  for (size_t bound : {polys_.SizeM() - 1, polys_.SizeM() / 2,
                       polys_.SizeM() * 3 / 4}) {
    auto serial = BruteForce(polys_, forest_, bound);
    auto parallel = ParallelBruteForce(polys_, forest_, bound, pool);
    ASSERT_EQ(serial.ok(), parallel.ok()) << "bound " << bound;
    if (!serial.ok()) continue;
    EXPECT_EQ(serial->loss.variable_loss, parallel->loss.variable_loss)
        << "bound " << bound;
    EXPECT_TRUE(parallel->vvs.Validate(forest_).ok());
    LossReport recheck = ComputeLossNaive(polys_, forest_, parallel->vvs);
    EXPECT_EQ(recheck.variable_loss, parallel->loss.variable_loss);
  }
}

TEST_F(ParallelCompressTest, BruteForceInfeasibleDetected) {
  ThreadPool pool(4);
  auto parallel = ParallelBruteForce(polys_, forest_, 1, pool);
  auto serial = BruteForce(polys_, forest_, 1);
  EXPECT_EQ(parallel.ok(), serial.ok());
  if (!parallel.ok()) {
    EXPECT_EQ(parallel.status().code(), StatusCode::kInfeasible);
  }
}

TEST_F(ParallelCompressTest, BruteForceRespectsCutCap) {
  ThreadPool pool(2);
  BruteForceOptions opts;
  opts.max_cuts = 2;
  EXPECT_EQ(ParallelBruteForce(polys_, forest_, 10, pool, opts)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(ParallelCompressTest, EvaluateAllMatchesSerial) {
  // Use a bigger polynomial set for a meaningful split.
  PolynomialSet many;
  Rng rng(8);
  for (int p = 0; p < 50; ++p) {
    std::vector<Monomial> terms;
    for (int m = 0; m < 10; ++m) {
      terms.emplace_back(
          rng.UniformReal(0.5, 9.5),
          std::vector<Factor>{{leaves_[rng.Uniform(leaves_.size())], 1}});
    }
    many.Add(Polynomial::FromMonomials(std::move(terms)));
  }
  Valuation val;
  for (VariableId v : leaves_) val.Set(v, 0.5 + (v % 7) * 0.1);

  // A family just past the serving evaluator's split threshold runs
  // across the pool in monomial-balanced polynomial ranges.
  ThreadPool pool(4);
  EvaluateBatcher evaluator(pool);
  std::vector<double> serial = val.EvaluateAll(many);
  auto shared = std::make_shared<PolynomialSet>(std::move(many));
  std::shared_ptr<const CompiledPolynomialSet> compiled = shared->Compiled();
  const std::vector<DenseValuation> family(
      EvaluateBatcher::kSplitWork / compiled->monomial_count() + 1,
      compiled->MaterializeValuation(val));
  auto parallel = evaluator.EvaluateDense(shared, compiled, family);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  for (const std::vector<double>& values : *parallel) {
    ASSERT_EQ(values.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_DOUBLE_EQ(values[i], serial[i]);
    }
  }
  EXPECT_EQ(evaluator.stats().backend_calls, pool.thread_count());
}

// Thread-count sweep: identical results at every pool size.
class PoolSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(PoolSizeTest, BruteForceDeterministicAcrossPoolSizes) {
  VariableTable vars;
  std::vector<VariableId> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(vars.Intern("q" + std::to_string(i)));
  }
  AbstractionForest forest;
  forest.AddTree(BuildUniformTree(vars, leaves, {2}, "PS_"));
  Rng rng(99);
  std::vector<Monomial> terms;
  for (int m = 0; m < 30; ++m) {
    terms.emplace_back(
        rng.UniformReal(0.5, 9.5),
        std::vector<Factor>{{leaves[rng.Uniform(leaves.size())], 1}});
  }
  PolynomialSet polys;
  polys.Add(Polynomial::FromMonomials(std::move(terms)));

  ThreadPool pool(static_cast<size_t>(GetParam()));
  auto serial = BruteForce(polys, forest, polys.SizeM() / 2);
  auto parallel =
      ParallelBruteForce(polys, forest, polys.SizeM() / 2, pool);
  ASSERT_EQ(serial.ok(), parallel.ok());
  if (serial.ok()) {
    EXPECT_EQ(serial->loss.variable_loss, parallel->loss.variable_loss);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PoolSizeTest,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace provabs
