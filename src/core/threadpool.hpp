#pragma once
// Minimal blocking-fork-join thread pool used by the Threads backend.
// Workers are created once and parked on a condition variable; parallel_for
// partitions [0, n) into ~4x oversubscribed contiguous chunks that workers
// claim from a shared atomic counter (guided scheduling), so irregular
// bodies (CSR rows, neighbor lists) balance instead of being pinned to one
// static chunk per worker.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace coe::core {

class ThreadPool {
 public:
  /// Creates `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Number of chunks parallel_for(n, ...) will partition [0, n) into —
  /// the maximum fan-out of fn invocations, so callers can size per-chunk
  /// accumulators safely. ~4x the worker count so claimed chunks balance.
  std::size_t chunk_count(std::size_t n) const {
    const std::size_t target = 4 * size();
    return n < target ? n : target;
  }

  /// Runs fn(begin, end) on contiguous chunks of [0, n), blocking until all
  /// chunks complete. The calling thread claims chunks alongside the
  /// workers. The callable is referenced in place for the duration of the
  /// (blocking) call — no std::function allocation, one indirect call per
  /// chunk. A std::function binds here like any other callable.
  template <typename F>
  void parallel_for(std::size_t n, F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run(n, FnRef{const_cast<void*>(static_cast<const void*>(&fn)),
                 [](void* f, std::size_t lo, std::size_t hi) {
                   (*static_cast<Fn*>(f))(lo, hi);
                 }});
  }

 private:
  /// Non-owning callable reference (function_ref): valid only while the
  /// referenced callable outlives the blocking run() that uses it.
  struct FnRef {
    void* obj = nullptr;
    void (*call)(void*, std::size_t, std::size_t) = nullptr;
    void operator()(std::size_t lo, std::size_t hi) const { call(obj, lo, hi); }
  };

  struct Job {
    FnRef fn;
    std::size_t n = 0;
    std::size_t chunks = 0;
    std::size_t participants = 0;  ///< worker ids 1..participants join in
  };

  void run(std::size_t n, FnRef fn);
  /// Claims chunks from next_chunk_ until the job is drained.
  void drain(const Job& job);
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mtx_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  std::atomic<std::size_t> next_chunk_{0};
  std::size_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
};

/// Process-wide pool shared by all Threads-backend contexts.
ThreadPool& global_pool();

}  // namespace coe::core
