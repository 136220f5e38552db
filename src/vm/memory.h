// Paged virtual memory for the VLX VM.
//
// Pages are materialized lazily; the number of pages ever touched is the
// VM's MaxRSS statistic (in pages), the paper's memory-overhead metric. Page
// permissions mirror segment kinds so the VM faults on writes to text or
// rodata and on execution of non-executable pages.
//
// Hot-path design (the fuzzer's persistent-mode executor drives millions
// of accesses per second through here):
//   * a tiny inline TLB in front of the page hash map -- the overwhelmingly
//     common same-page access skips the unordered_map probe entirely
//     (page nodes are stable across inserts, so cached Page* stay valid;
//     the TLB is flushed on restore(), the only path that erases pages);
//   * bookkeeping lives in the page: a `touched` bit feeds a counter
//     (pages_touched()) and a `dirty` bit guards the dirty-page list, so
//     an access does no hash-table work. Only the first touch or write of
//     a page since the snapshot appends to a small vector, and restore()
//     walks just those vectors;
//   * the scalar accessors are header-inline and report failure as an
//     empty optional / false: the machine turns every failure into one
//     fault kind, so there is no message to format;
//   * aligned u64 accesses and block transfers move whole page runs with
//     memcpy instead of byte-at-a-time loops;
//   * non-executable anonymous mappings (the 1 MiB stack, allocate()) are
//     recorded as regions; a page is created zero-filled on first access,
//     so constructing and snapshotting a VM costs only the pages in use.
//
// Code-cache contract: `code_epoch()` increments whenever the bytes or
// permissions of any executable page may have changed -- writes landing on
// an exec page, map_segment()/map_anon() creating or widening an exec
// mapping, and restore() rolling back or unmapping an exec page. The
// machine's predecoded-instruction cache keys its validity on this epoch
// and drops stale decode tables before the next instruction executes.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"
#include "zelf/image.h"

namespace zipr::vm {

inline constexpr std::uint64_t kPageSize = zelf::layout::kPageSize;
inline constexpr std::uint64_t kPageMask = ~(kPageSize - 1);

enum Perm : std::uint8_t {
  kPermRead = 1,
  kPermWrite = 2,
  kPermExec = 4,
};

/// Machine fault kinds surfaced as run termination reasons.
enum class Fault {
  kNone,
  kBadAccess,     ///< unmapped address
  kBadPerm,       ///< permission violation
  kBadInsn,       ///< undecodable instruction
  kBadSyscall,    ///< unknown syscall number
  kDivByZero,
  kHalt,          ///< executed hlt
  kGasExhausted,  ///< ran past the instruction budget
  kStackOverflow,
};

const char* fault_name(Fault f);

class Memory {
 public:
  /// Map a segment's bytes with permissions derived from its kind.
  void map_segment(const zelf::Segment& seg);

  /// Map an anonymous zeroed region (stack, heap arena). Without exec
  /// permission only the region is recorded; each page is created
  /// zero-filled on first access. Exec mappings are created eagerly (the
  /// decode cache reads them through exec_page_data()).
  void map_anon(std::uint64_t vaddr, std::uint64_t size, std::uint8_t perms);

  bool is_mapped(std::uint64_t addr) const;

  /// Reads/writes checked against mapping + permissions; empty / false if
  /// the address is unmapped or lacks the permission.
  std::optional<std::uint8_t> read_u8(std::uint64_t addr) {
    Page* p = access(addr);
    if (p == nullptr || !(p->perms & kPermRead)) return std::nullopt;
    touch(*p);
    return p->data[addr & (kPageSize - 1)];
  }

  std::optional<std::uint64_t> read_u64(std::uint64_t addr) {
    const std::size_t off = static_cast<std::size_t>(addr & (kPageSize - 1));
    if (off > kPageSize - 8) return read_u64_split(addr);
    Page* p = access(addr);
    if (p == nullptr || !(p->perms & kPermRead)) return std::nullopt;
    touch(*p);
    std::uint64_t v;
    std::memcpy(&v, p->data.get() + off, 8);
    return v;
  }

  bool write_u8(std::uint64_t addr, std::uint8_t v) {
    Page* p = access(addr);
    if (p == nullptr || !(p->perms & kPermWrite)) return false;
    note_write(*p, addr);
    p->data[addr & (kPageSize - 1)] = v;
    return true;
  }

  bool write_u64(std::uint64_t addr, std::uint64_t v) {
    const std::size_t off = static_cast<std::size_t>(addr & (kPageSize - 1));
    if (off > kPageSize - 8) return write_u64_split(addr, v);
    Page* p = access(addr);
    if (p == nullptr || !(p->perms & kPermWrite)) return false;
    note_write(*p, addr);
    std::memcpy(p->data.get() + off, &v, 8);
    return true;
  }

  /// Fetch up to `n` bytes for instruction decode; requires exec permission
  /// on the first byte's page. May return fewer bytes at a mapping edge.
  Result<Bytes> fetch(std::uint64_t addr, std::size_t n);

  /// Bulk access for syscalls (transmit/receive). Copied per contiguous
  /// page run with memcpy. Failure semantics match the byte-loop original:
  /// a write that faults mid-range has already applied every byte before
  /// the faulting page (page granularity == byte granularity here, since
  /// mapping and permissions are per page).
  Result<Bytes> read_block(std::uint64_t addr, std::size_t n);
  Status write_block(std::uint64_t addr, ByteView data);

  /// Bulk introspection read that neither checks permissions nor marks
  /// pages touched: harness/debugger access (e.g. the fuzzing executor
  /// reading the coverage map back) that must not perturb the RSS metric.
  /// Mapped pages not yet created read as zeros and stay uncreated.
  /// Fails if any byte of the range is unmapped.
  Result<Bytes> peek_block(std::uint64_t addr, std::size_t n) const;

  /// peek_block into a caller-owned buffer (allocation-free: the fuzzing
  /// executor reuses one buffer across millions of runs). Reads
  /// `out.size()` bytes starting at `addr`.
  Status peek_into(std::uint64_t addr, std::span<Byte> out) const;

  // ---- execution-engine access (vm::Machine's predecoded cache) ----

  /// Raw bytes of an executable page, or nullptr if `page_base` is not a
  /// mapped page with exec permission. Does not mark the page touched --
  /// the machine pairs this with touch_page() at execution time so the RSS
  /// metric matches the fetch-based slow path.
  const Byte* exec_page_data(std::uint64_t page_base) const;

  /// Mark one existing page touched (the predecoded fast path's replacement
  /// for fetch()'s per-byte touching; slots whose fetch window would cross
  /// the page edge take the slow path, so one page per retired instruction
  /// is exactly what fetch would have touched).
  void touch_page(std::uint64_t page_base) {
    if (Page* p = lookup(page_base)) touch(*p);
  }

  /// Monotone counter of "executable content may have changed" events; see
  /// the header comment for the exact trigger set.
  std::uint64_t code_epoch() const { return code_epoch_; }

  // ---- snapshot / restore (the fuzzing executor's persistent mode) ----

  /// A copy of the pages that exist (lazy pages not yet created are left
  /// out: they are zero), plus the touched count restore() rewinds to.
  struct Snapshot {
    struct PageCopy {
      Bytes data;
      std::uint8_t perms = 0;
    };
    std::unordered_map<std::uint64_t, PageCopy> pages;
    std::size_t touched_pages = 0;  ///< pages_touched() when taken
  };

  /// Capture the current state and begin dirty-page tracking: from now on
  /// every written or newly created page is recorded so restore() can roll
  /// back by copying only those pages instead of the whole address space.
  Snapshot snapshot();

  /// Roll memory back to `snap`. Only valid on the Memory that produced
  /// the snapshot (dirty tracking must be active). Pages created since the
  /// snapshot are dropped (lazy ones read as zero again); dirtied pages get
  /// their bytes and permissions restored; pages first touched since the
  /// snapshot are untouched again, so per-run RSS restarts clean.
  Status restore(const Snapshot& snap);

  /// Pages ever touched (read, written, or executed): the MaxRSS metric.
  std::size_t pages_touched() const { return touched_pages_; }

 private:
  struct Page {
    std::unique_ptr<Byte[]> data;
    std::uint8_t perms = 0;
    bool touched = false;  ///< counted in pages_touched()
    bool dirty = false;    ///< listed in dirty_ since the snapshot
  };

  /// A non-exec map_anon() range [lo, end) whose pages are created on
  /// first access.
  struct LazyRegion {
    std::uint64_t lo = 0;
    std::uint64_t end = 0;
    std::uint8_t perms = 0;
  };

  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  /// TLB probe + fill over the pages that exist: the Page* for `addr`, or
  /// nullptr. Creates nothing, so peeks cannot perturb state.
  Page* lookup(std::uint64_t addr) const {
    const std::uint64_t base = addr & kPageMask;
    const TlbEntry& e = tlb_[(base / kPageSize) & 1];
    return e.base == base ? e.page : lookup_miss(base);
  }
  Page* lookup_miss(std::uint64_t page_base) const;

  /// lookup() that also creates a lazy page on first access.
  Page* access(std::uint64_t addr) {
    Page* p = lookup(addr);
    return p != nullptr ? p : create_lazy(addr & kPageMask);
  }
  Page* create_lazy(std::uint64_t page_base);

  /// OR of the permissions of every lazy region covering `page_base` into
  /// `perms`; false if none covers it.
  bool lazy_perms(std::uint64_t page_base, std::uint8_t& perms) const;

  Page& ensure_page(std::uint64_t page_base, std::uint8_t perms);

  void touch(Page& p) {
    if (p.touched) return;
    p.touched = true;
    ++touched_pages_;
    if (tracking_) touched_since_.push_back(&p);
  }

  void mark_dirty(Page& p, std::uint64_t page_base) {
    if (!tracking_ || p.dirty) return;
    p.dirty = true;
    dirty_.push_back(page_base);
  }

  /// Bookkeeping for a permitted write to `addr` on page `p`.
  void note_write(Page& p, std::uint64_t addr) {
    touch(p);
    mark_dirty(p, addr & kPageMask);
    if (p.perms & kPermExec) note_code_change();
  }

  /// Page-crossing scalar accesses: byte loops keep first-fault semantics.
  std::optional<std::uint64_t> read_u64_split(std::uint64_t addr);
  bool write_u64_split(std::uint64_t addr, std::uint64_t v);

  void note_code_change() { ++code_epoch_; }
  void flush_tlb() const;

  std::unordered_map<std::uint64_t, Page> pages_;
  std::vector<LazyRegion> lazy_;
  std::size_t touched_pages_ = 0;

  bool tracking_ = false;
  std::size_t frozen_lazy_ = 0;         ///< lazy_ entries when the snapshot was taken
  std::vector<Page*> touched_since_;    ///< pages first touched since snapshot
  std::vector<std::uint64_t> dirty_;    ///< pages written/created since snapshot

  /// 2-entry direct-mapped TLB (indexed by page-number parity). Page*
  /// values stay valid across pages_ inserts (node-based map); restore()
  /// is the only eraser and flushes. Mutable: const reads warm it too.
  struct TlbEntry {
    std::uint64_t base = kNoPage;
    Page* page = nullptr;
  };
  mutable TlbEntry tlb_[2];

  std::uint64_t code_epoch_ = 0;
};

}  // namespace zipr::vm
