#include "parallel/thread_pool.h"

#include <algorithm>

#include "common/macros.h"

namespace provabs {

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    PROVABS_CHECK(!shutdown_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const size_t per_chunk = (n + thread_count() - 1) / thread_count();
  // This call's unfinished chunks, guarded by mutex_. The caller waits for
  // them alone, not for every in-flight task as Wait() does, so callers
  // sharing the pool never wait on each other's work.
  size_t pending = (n + per_chunk - 1) / per_chunk;
  std::condition_variable chunks_done;
  for (size_t begin = 0; begin < n; begin += per_chunk) {
    const size_t end = std::min(n, begin + per_chunk);
    Submit([this, begin, end, &body, &pending, &chunks_done] {
      for (size_t i = begin; i < end; ++i) body(i);
      // Notified under the lock, so the caller cannot return and destroy
      // `chunks_done` before the notify is over.
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending == 0) chunks_done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  chunks_done.wait(lock, [&pending] { return pending == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace provabs
