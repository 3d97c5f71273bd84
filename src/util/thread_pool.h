// A fixed-size thread pool used by parallel index construction (the
// offline stage) and, as a long-lived pool of connection handlers, by the
// HTTP transport (server/http_server.h).
//
// Sharing caveat: Wait() and ParallelFor() are whole-pool barriers (they
// wait for EVERY outstanding task, not just the caller's). Callers that
// share one pool across concurrent producers must track their own task
// completion and use only Submit().

#ifndef AMBER_UTIL_THREAD_POOL_H_
#define AMBER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace amber {

/// \brief Fixed-size worker pool with a blocking Wait().
///
/// Tasks are arbitrary std::function<void()>. Submission after Shutdown() is
/// a no-op. The destructor drains outstanding tasks.
class ThreadPool {
 public:
  explicit ThreadPool(size_t size) {
    if (size == 0) size = 1;
    workers_.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns false if the pool is shut down.
  bool Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return false;
      queue_.push(std::move(task));
      ++outstanding_;
    }
    work_cv_.notify_one();
    return true;
  }

  /// Blocks until every submitted task has finished.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return outstanding_ == 0; });
  }

  /// Stops accepting tasks and joins the workers after draining the queue.
  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    if (n == 0) return;
    size_t shards = std::min(n, size() * 4);
    size_t chunk = (n + shards - 1) / shards;
    for (size_t begin = 0; begin < n; begin += chunk) {
      size_t end = std::min(n, begin + chunk);
      Submit([begin, end, &fn] {
        for (size_t i = begin; i < end; ++i) fn(i);
      });
    }
    Wait();
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
        if (queue_.empty()) {
          if (shutdown_) return;
          continue;
        }
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--outstanding_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t outstanding_ = 0;
  bool shutdown_ = false;
};

}  // namespace amber

#endif  // AMBER_UTIL_THREAD_POOL_H_
