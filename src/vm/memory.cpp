#include "vm/memory.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace zipr::vm {

// The aligned u64 fast paths assemble values with memcpy straight from
// page storage; guest memory is defined little-endian (bytes.h codecs).
static_assert(std::endian::native == std::endian::little,
              "VLX VM fast paths assume a little-endian host");

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kBadAccess: return "bad-access";
    case Fault::kBadPerm: return "bad-perm";
    case Fault::kBadInsn: return "bad-insn";
    case Fault::kBadSyscall: return "bad-syscall";
    case Fault::kDivByZero: return "div-by-zero";
    case Fault::kHalt: return "halt";
    case Fault::kGasExhausted: return "gas-exhausted";
    case Fault::kStackOverflow: return "stack-overflow";
  }
  return "?";
}

namespace {
std::uint8_t perms_for(zelf::SegKind kind) {
  switch (kind) {
    case zelf::SegKind::kText: return kPermRead | kPermExec;
    case zelf::SegKind::kRodata: return kPermRead;
    case zelf::SegKind::kData:
    case zelf::SegKind::kBss: return kPermRead | kPermWrite;
  }
  return 0;
}
}  // namespace

Memory::Page& Memory::ensure_page(std::uint64_t page_base, std::uint8_t perms) {
  auto [it, inserted] = pages_.try_emplace(page_base);
  Page& p = it->second;
  if (inserted) {
    p.data = std::make_unique<Byte[]>(kPageSize);  // value-initialized: zeroed
    std::uint8_t lazy = 0;
    lazy_perms(page_base, lazy);  // a lazy region may already cover it
    p.perms = perms | lazy;
  } else {
    p.perms |= perms;
  }
  mark_dirty(p, page_base);  // new page or widened permissions
  if (p.perms & kPermExec) note_code_change();
  return p;
}

bool Memory::lazy_perms(std::uint64_t page_base, std::uint8_t& perms) const {
  bool covered = false;
  for (const LazyRegion& r : lazy_) {
    if (page_base < r.lo || page_base >= r.end) continue;
    perms |= r.perms;
    covered = true;
  }
  return covered;
}

void Memory::map_segment(const zelf::Segment& seg) {
  const std::uint8_t perms = perms_for(seg.kind);
  for (std::uint64_t a = seg.vaddr & kPageMask; a < seg.end(); a += kPageSize)
    ensure_page(a, perms);
  // Copy file bytes per page run; ensure_page above already recorded the
  // dirty/code-change events for every covered page.
  std::size_t done = 0;
  while (done < seg.bytes.size()) {
    const std::uint64_t a = seg.vaddr + done;
    const std::size_t off = static_cast<std::size_t>(a & (kPageSize - 1));
    const std::size_t take = std::min(static_cast<std::size_t>(kPageSize) - off,
                                      seg.bytes.size() - done);
    std::memcpy(pages_.at(a & kPageMask).data.get() + off, seg.bytes.data() + done, take);
    done += take;
  }
}

void Memory::map_anon(std::uint64_t vaddr, std::uint64_t size, std::uint8_t perms) {
  const std::uint64_t lo = vaddr & kPageMask, end = vaddr + size;
  if (perms & kPermExec) {
    for (std::uint64_t a = lo; a < end; a += kPageSize) ensure_page(a, perms);
    return;
  }
  // Pages that already exist widen now; the rest are created on demand.
  for (auto& [base, page] : pages_)
    if (base >= lo && base < end) ensure_page(base, perms);
  // Grow the last region instead of appending when the mapping extends it
  // (allocate() hands out adjacent ranges) and the snapshot does not hold it.
  if (lazy_.size() > frozen_lazy_ && lazy_.back().end == lo &&
      lazy_.back().perms == perms)
    lazy_.back().end = end;
  else if (lo < end)
    lazy_.push_back({lo, end, perms});
}

bool Memory::is_mapped(std::uint64_t addr) const {
  std::uint8_t perms = 0;
  return lookup(addr) != nullptr || lazy_perms(addr & kPageMask, perms);
}

void Memory::flush_tlb() const {
  tlb_[0] = TlbEntry{};
  tlb_[1] = TlbEntry{};
}

Memory::Page* Memory::lookup_miss(std::uint64_t page_base) const {
  auto it = pages_.find(page_base);
  if (it == pages_.end()) return nullptr;  // negative results are not cached
  TlbEntry& e = tlb_[(page_base / kPageSize) & 1];
  e.base = page_base;
  e.page = const_cast<Page*>(&it->second);
  return e.page;
}

Memory::Page* Memory::create_lazy(std::uint64_t page_base) {
  std::uint8_t perms = 0;
  if (!lazy_perms(page_base, perms)) return nullptr;
  ensure_page(page_base, perms);
  return lookup(page_base);
}

std::optional<std::uint64_t> Memory::read_u64_split(std::uint64_t addr) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    auto b = read_u8(addr + static_cast<std::uint64_t>(i));
    if (!b) return std::nullopt;
    v |= static_cast<std::uint64_t>(*b) << (8 * i);
  }
  return v;
}

bool Memory::write_u64_split(std::uint64_t addr, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    if (!write_u8(addr + static_cast<std::uint64_t>(i),
                  static_cast<std::uint8_t>((v >> (8 * i)) & 0xff)))
      return false;
  return true;
}

Result<Bytes> Memory::fetch(std::uint64_t addr, std::size_t n) {
  // Exec pages always exist, so lookup() (which creates nothing) suffices.
  const Page* p = lookup(addr);
  if (!p) return Error::invalid_argument("fetch unmapped " + hex_addr(addr));
  if (!(p->perms & kPermExec)) return Error::invalid_argument("fetch !X " + hex_addr(addr));
  Bytes out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t a = addr + i;
    Page* q = lookup(a);
    if (!q || !(q->perms & kPermExec)) break;  // stop at mapping edge
    touch(*q);
    out.push_back(q->data[a & (kPageSize - 1)]);
  }
  if (out.empty()) return Error::invalid_argument("fetch empty at " + hex_addr(addr));
  return out;
}

Result<Bytes> Memory::read_block(std::uint64_t addr, std::size_t n) {
  Bytes out(n);
  std::size_t done = 0;
  while (done < n) {  // per contiguous page run
    const std::uint64_t a = addr + done;
    Page* p = access(a);
    if (!p) return Error::invalid_argument("read unmapped " + hex_addr(a));
    if (!(p->perms & kPermRead)) return Error::invalid_argument("read !R " + hex_addr(a));
    touch(*p);
    const std::size_t off = static_cast<std::size_t>(a & (kPageSize - 1));
    const std::size_t take = std::min(static_cast<std::size_t>(kPageSize) - off, n - done);
    std::memcpy(out.data() + done, p->data.get() + off, take);
    done += take;
  }
  return out;
}

Status Memory::write_block(std::uint64_t addr, ByteView data) {
  std::size_t done = 0;
  while (done < data.size()) {  // per page run; earlier pages stay written on fault
    const std::uint64_t a = addr + done;
    Page* p = access(a);
    if (!p) return Error::invalid_argument("write unmapped " + hex_addr(a));
    if (!(p->perms & kPermWrite)) return Error::invalid_argument("write !W " + hex_addr(a));
    note_write(*p, a);
    const std::size_t off = static_cast<std::size_t>(a & (kPageSize - 1));
    const std::size_t take =
        std::min(static_cast<std::size_t>(kPageSize) - off, data.size() - done);
    std::memcpy(p->data.get() + off, data.data() + done, take);
    done += take;
  }
  return Status::success();
}

Result<Bytes> Memory::peek_block(std::uint64_t addr, std::size_t n) const {
  Bytes out(n);
  ZIPR_TRY(peek_into(addr, std::span<Byte>(out)));
  return out;
}

Status Memory::peek_into(std::uint64_t addr, std::span<Byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t a = addr + done;
    const std::size_t off = static_cast<std::size_t>(a & (kPageSize - 1));
    const std::size_t take =
        std::min(static_cast<std::size_t>(kPageSize) - off, out.size() - done);
    if (const Page* p = lookup(a)) {
      std::memcpy(out.data() + done, p->data.get() + off, take);
    } else {
      std::uint8_t perms = 0;
      if (!lazy_perms(a & kPageMask, perms))
        return Error::invalid_argument("peek unmapped " + hex_addr(a));
      std::memset(out.data() + done, 0, take);  // lazy page not created yet
    }
    done += take;
  }
  return Status::success();
}

const Byte* Memory::exec_page_data(std::uint64_t page_base) const {
  const Page* p = lookup(page_base);
  return (p != nullptr && (p->perms & kPermExec)) ? p->data.get() : nullptr;
}

Memory::Snapshot Memory::snapshot() {
  Snapshot snap;
  snap.pages.reserve(pages_.size());
  for (auto& [base, page] : pages_) {
    Snapshot::PageCopy copy;
    copy.data.assign(page.data.get(), page.data.get() + kPageSize);
    copy.perms = page.perms;
    snap.pages.emplace(base, std::move(copy));
    page.dirty = false;
  }
  snap.touched_pages = touched_pages_;
  tracking_ = true;
  frozen_lazy_ = lazy_.size();
  touched_since_.clear();
  dirty_.clear();
  return snap;
}

Status Memory::restore(const Snapshot& snap) {
  if (!tracking_)
    return Error::invalid_argument("restore without an active snapshot (dirty tracking off)");
  // Untouch before the erasures below can free any of these pages.
  for (Page* p : touched_since_) p->touched = false;
  touched_since_.clear();
  touched_pages_ = snap.touched_pages;
  flush_tlb();  // erasures below would dangle cached Page*
  lazy_.resize(frozen_lazy_);  // drop regions mapped since the snapshot
  bool code_changed = false;
  for (std::uint64_t base : dirty_) {
    auto live = pages_.find(base);
    if (live == pages_.end())
      return Error::internal("dirty page " + hex_addr(base) + " vanished before restore");
    Page& page = live->second;
    auto it = snap.pages.find(base);
    if (it == snap.pages.end()) {  // created after the snapshot
      if (page.perms & kPermExec) code_changed = true;
      pages_.erase(live);
      continue;
    }
    if ((page.perms | it->second.perms) & kPermExec) code_changed = true;
    std::memcpy(page.data.get(), it->second.data.data(), kPageSize);
    page.perms = it->second.perms;
    page.dirty = false;
  }
  if (code_changed) note_code_change();
  dirty_.clear();
  return Status::success();
}

}  // namespace zipr::vm
