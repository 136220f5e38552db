// Monotonic (bump) arena for per-rewrite scratch structures.
//
// The rewrite pipeline builds many short-lived, densely-linked structures
// (dollops, placement bookkeeping) whose lifetimes all end together when
// the rewrite finishes. A monotonic arena turns those thousands of
// individual heap operations into pointer bumps over a few retained
// chunks: reset() rewinds to empty but KEEPS the chunks, so a warm serve
// or batch worker pays malloc only on its first rewrite (and whenever a
// later input needs more capacity than any earlier one did).
//
// Not thread-safe: each worker owns its own arena (see the thread_local in
// zipr::this_thread_workspace(), src/zipr/workspace.cpp).
// Trivially-destructible payloads only -- reset() does not run destructors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace zipr {

class MonotonicArena {
 public:
  explicit MonotonicArena(std::size_t first_chunk = kDefaultChunk)
      : next_chunk_size_(first_chunk ? first_chunk : kDefaultChunk) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Raw aligned allocation; never returns nullptr (throws bad_alloc on
  /// chunk-allocation failure, like operator new).
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t off = (cursor_ + (align - 1)) & ~(align - 1);
    if (chunk_ >= chunks_.size() || off + bytes > chunks_[chunk_].size) {
      next_chunk(bytes + align);
      off = (cursor_ + (align - 1)) & ~(align - 1);
    }
    cursor_ = off + bytes;
    return chunks_[chunk_].data.get() + off;
  }

  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena reset() does not run destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Construct a single object in the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena reset() does not run destructors");
    return ::new (allocate(sizeof(T), alignof(T))) T(static_cast<Args&&>(args)...);
  }

  /// Rewind to empty, retaining every chunk for reuse.
  void reset() {
    chunk_ = 0;
    cursor_ = 0;
  }

  /// Total bytes owned (capacity, not live bytes).
  std::size_t retained_bytes() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

  /// Bytes bumped since the last reset(): the demand of the current cycle.
  /// Capacity-granular (whole chunks behind the bump chunk count fully),
  /// which is exactly the granularity trim() can release at.
  std::size_t used_bytes() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i < chunk_ && i < chunks_.size(); ++i)
      total += chunks_[i].size;
    return total + cursor_;
  }

  /// Release whole chunks (largest first: growth is geometric, so the
  /// biggest capacity sits at the back) until at most `budget` bytes stay
  /// retained. Also rewinds to empty and restarts the growth schedule from
  /// the surviving capacity, so one oversized request does not pin its
  /// high-water mark -- or its doubled next-chunk size -- forever.
  void trim(std::size_t budget) {
    while (!chunks_.empty() && retained_bytes() > budget) chunks_.pop_back();
    next_chunk_size_ = chunks_.empty() ? kDefaultChunk : chunks_.back().size * 2;
    chunk_ = 0;
    cursor_ = 0;
  }

 private:
  static constexpr std::size_t kDefaultChunk = 64 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void next_chunk(std::size_t min_bytes) {
    // Advance through retained chunks; later chunks are geometrically larger,
    // so skipping a too-small one wastes at most its (smaller) capacity until
    // the next reset.
    while (chunk_ + 1 < chunks_.size()) {
      ++chunk_;
      cursor_ = 0;
      if (chunks_[chunk_].size >= min_bytes) return;
    }
    std::size_t size = next_chunk_size_ < min_bytes ? min_bytes : next_chunk_size_;
    chunks_.push_back({std::make_unique<std::byte[]>(size), size});
    next_chunk_size_ = size * 2;
    chunk_ = chunks_.size() - 1;
    cursor_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;        ///< index of the chunk being bumped
  std::size_t cursor_ = 0;       ///< bump offset within chunks_[chunk_]
  std::size_t next_chunk_size_;  ///< geometric growth schedule
};

/// A growable array whose storage lives in a MonotonicArena.
/// Grows geometrically by allocating a larger arena block and copying;
/// abandoned blocks are reclaimed wholesale at arena reset.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  ArenaVector() = default;
  explicit ArenaVector(MonotonicArena* arena) : arena_(arena) {}

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    data_[size_++] = v;
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Insert `v` before index `i` (i <= size()), shifting the rest up.
  void insert(std::size_t i, const T& v) {
    push_back(v);
    for (std::size_t j = size_ - 1; j > i; --j) data_[j] = data_[j - 1];
    data_[i] = v;
  }

 private:
  void grow() {
    std::size_t new_cap = cap_ ? cap_ * 2 : 8;
    T* fresh = arena_->alloc_array<T>(new_cap);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = data_[i];
    data_ = fresh;
    cap_ = new_cap;
  }

  MonotonicArena* arena_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace zipr
