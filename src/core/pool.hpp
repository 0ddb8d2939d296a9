#pragma once
// Umpire-style pooled allocator (Section 4.10.5: "all data is allocated
// from memory pools that Umpire provides, which amortizes the cost of these
// allocations"). Freed blocks are kept in power-of-two size-class free
// lists and reused; statistics expose how much underlying allocation the
// pool avoided.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace coe::core {

class MemoryPool {
 public:
  struct Stats {
    std::size_t request_count = 0;    ///< allocate() calls
    std::size_t backing_allocs = 0;   ///< requests that hit the upstream heap
    std::size_t reuse_count = 0;      ///< requests served from the free list
    std::size_t bytes_requested = 0;  ///< sum of requested sizes
    std::size_t bytes_backed = 0;     ///< sum of upstream allocation sizes
    std::size_t current_bytes = 0;    ///< live (handed out) rounded bytes
    std::size_t highwater_bytes = 0;  ///< max of current_bytes
  };

  MemoryPool() = default;
  ~MemoryPool();

  MemoryPool(const MemoryPool&) = delete;
  MemoryPool& operator=(const MemoryPool&) = delete;

  /// Returns at least `bytes` of storage (rounded up to a power of two).
  /// Requests past the largest size class (2^63 bytes) throw
  /// std::length_error rather than indexing out of the free lists.
  void* allocate(std::size_t bytes);
  /// Returns the block to the pool's free list (never to the heap).
  /// With debug checks on (the default in !NDEBUG builds; see
  /// set_debug_checks) a double free or a size-mismatched free throws
  /// std::logic_error. With them off the statistics are clamped so a bad
  /// free can never underflow current_bytes.
  void deallocate(void* p, std::size_t bytes);

  /// Enables/disables the live-pointer validation in deallocate().
  /// Defaults to on in !NDEBUG builds, off otherwise; tests turn it on
  /// explicitly so the detection path runs under every build type.
  void set_debug_checks(bool on) { debug_checks_ = on; }
  bool debug_checks() const { return debug_checks_; }
  /// Releases all free-listed blocks back to the heap.
  void release();

  const Stats& stats() const { return stats_; }

  /// Number of power-of-two size classes (free lists) the pool keeps.
  static constexpr std::size_t kNumClasses = 64;

 private:
  static std::size_t size_class(std::size_t bytes);

  struct Block {
    std::unique_ptr<std::byte[]> storage;
  };

  // free_[k] holds blocks of 2^k bytes.
  std::vector<std::vector<std::unique_ptr<std::byte[]>>> free_ =
      std::vector<std::vector<std::unique_ptr<std::byte[]>>>(kNumClasses);
  Stats stats_;
  // Live (handed-out) blocks and their size class, maintained always so
  // debug checks can be switched on mid-stream (see set_debug_checks).
  std::unordered_map<const void*, std::size_t> live_;
#ifndef NDEBUG
  bool debug_checks_ = true;
#else
  bool debug_checks_ = false;
#endif
};

/// RAII convenience for typed pool arrays.
template <typename T>
class PoolArray {
 public:
  PoolArray(MemoryPool& pool, std::size_t n)
      : pool_(&pool), n_(n),
        data_(static_cast<T*>(pool.allocate(n * sizeof(T)))) {
    for (std::size_t i = 0; i < n_; ++i) new (data_ + i) T{};
  }
  ~PoolArray() {
    for (std::size_t i = 0; i < n_; ++i) data_[i].~T();
    pool_->deallocate(data_, n_ * sizeof(T));
  }

  PoolArray(const PoolArray&) = delete;
  PoolArray& operator=(const PoolArray&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return n_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  /// Exchanges the two arrays' storage (and pools and sizes); no element
  /// is copied.
  void swap(PoolArray& other) noexcept {
    std::swap(pool_, other.pool_);
    std::swap(n_, other.n_);
    std::swap(data_, other.data_);
  }

 private:
  MemoryPool* pool_;
  std::size_t n_;
  T* data_;
};

}  // namespace coe::core
