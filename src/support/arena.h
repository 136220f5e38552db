// Monotonic (bump) arena for per-rewrite scratch structures.
//
// The rewrite pipeline builds many short-lived, densely-linked structures
// (dollops and their chains) whose lifetimes all end together when the
// rewrite finishes. A monotonic arena turns those thousands of individual
// heap operations into pointer bumps over a few geometrically growing
// chunks, all freed at once when the arena dies. Nothing rewinds an arena:
// its owner (the DollopManager) lives for exactly one rewrite.
//
// Not thread-safe: an arena belongs to the one object that bumps it.
// Trivially-destructible payloads only -- the arena runs no destructors.
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
  MonotonicArena() = default;
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Raw aligned allocation; never returns nullptr (throws bad_alloc on
  /// chunk-allocation failure, like operator new).
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t off = (cursor_ + (align - 1)) & ~(align - 1);
    if (chunks_.empty() || off + bytes > chunks_.back().size) {
      next_chunk(bytes + align);
      off = (cursor_ + (align - 1)) & ~(align - 1);
    }
    cursor_ = off + bytes;
    return chunks_.back().data.get() + off;
  }

  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena runs no destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Construct a single object in the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena runs no destructors");
    return ::new (allocate(sizeof(T), alignof(T))) T(static_cast<Args&&>(args)...);
  }

 private:
  static constexpr std::size_t kDefaultChunk = 64 * 1024;

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void next_chunk(std::size_t min_bytes) {
    std::size_t size = next_chunk_size_ < min_bytes ? min_bytes : next_chunk_size_;
    chunks_.push_back({std::make_unique_for_overwrite<std::byte[]>(size), size});
    next_chunk_size_ = size * 2;
    cursor_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t cursor_ = 0;                       ///< bump offset within chunks_.back()
  std::size_t next_chunk_size_ = kDefaultChunk;  ///< geometric growth schedule
};

/// A growable array whose storage lives in a MonotonicArena.
/// Grows geometrically by allocating a larger arena block and copying;
/// abandoned blocks are reclaimed wholesale when the arena dies.
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
