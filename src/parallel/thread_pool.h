#ifndef PROVABS_PARALLEL_THREAD_POOL_H_
#define PROVABS_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace provabs {

/// Fixed-size worker pool. The paper's deployment generates provenance "on
/// strong computing and storage capabilities" [24]; this substrate lets the
/// compression phase use those cores (see parallel_compress.h).
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains pending work and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads actually started.
  size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, other callers' too.
  void Wait();

  /// Runs `body(i)` for i in [0, n), split into at most `thread_count()`
  /// contiguous chunks across the pool, and blocks until those chunks are
  /// done. Callers on many threads may share the pool: each waits only for
  /// its own chunks.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

}  // namespace provabs

#endif  // PROVABS_PARALLEL_THREAD_POOL_H_
