#include "serve/delta.h"

#include <cstring>
#include <set>

#include "zelf/image.h"
#include "zelf/io.h"

namespace zipr::serve {

namespace {

bool same_symbols(const zelf::Image& a, const zelf::Image& b) {
  if (a.symbols.size() != b.symbols.size()) return false;
  for (std::size_t i = 0; i < a.symbols.size(); ++i) {
    const auto& x = a.symbols[i];
    const auto& y = b.symbols[i];
    if (x.kind != y.kind || x.addr != y.addr || x.size != y.size || x.name != y.name)
      return false;
  }
  return true;
}

bool same_abi_surface(const zelf::Image& a, const zelf::Image& b) {
  if (a.exports.size() != b.exports.size() || a.imports.size() != b.imports.size())
    return false;
  for (std::size_t i = 0; i < a.exports.size(); ++i)
    if (a.exports[i].name != b.exports[i].name || a.exports[i].addr != b.exports[i].addr)
      return false;
  for (std::size_t i = 0; i < a.imports.size(); ++i)
    if (a.imports[i].name != b.imports[i].name || a.imports[i].slot != b.imports[i].slot)
      return false;
  return true;
}

bool same_segment_shape(const zelf::Segment& a, const zelf::Segment& b) {
  return a.kind == b.kind && a.vaddr == b.vaddr && a.memsize == b.memsize &&
         a.bytes.size() == b.bytes.size();
}

}  // namespace

std::optional<DeltaResult> try_delta(ByteView ancestor_input, ByteView ancestor_output,
                                     const zelf::Image& new_image, ByteView new_input,
                                     const DeltaOptions& options, std::string* reason) {
  auto refuse = [&](std::string why) -> std::optional<DeltaResult> {
    if (reason) *reason = std::move(why);
    return std::nullopt;
  };

  // Cheapest prefilter first: every structural check below implies the two
  // inputs serialize to the same length, so a length mismatch can never
  // validate -- refuse it before paying the ancestor parse.
  if (ancestor_input.size() != new_input.size())
    return refuse("serialized sizes differ");

  auto old_img = zelf::read_image(ancestor_input);
  if (!old_img.ok()) return refuse("input does not parse");
  const zelf::Image* new_img = &new_image;

  if (old_img->entry != new_img->entry || old_img->library != new_img->library)
    return refuse("entry/library mismatch");
  if (!same_abi_surface(*old_img, *new_img)) return refuse("exports/imports differ");
  // Symbols are invisible to the rewriter but ARE serialized into the
  // output; patching only segment bytes requires them identical.
  if (!same_symbols(*old_img, *new_img)) return refuse("symbol table differs");
  if (old_img->segments.size() != new_img->segments.size())
    return refuse("segment count differs");

  // The conservative "looks like a code pointer" test: anything in
  // [text.vaddr, text.end()) in EITHER version. This is a superset of both
  // reader checks in IR construction (the data scan tests against the
  // text file-byte range, jump-table slots against memsize), so a word
  // that passes here is invisible to analysis in both versions.
  const zelf::Segment* old_text = nullptr;
  for (const auto& seg : old_img->segments)
    if (seg.executable()) old_text = &seg;
  if (old_text == nullptr) return refuse("no text segment");
  const std::uint64_t text_lo = old_text->vaddr;
  const std::uint64_t text_hi = old_text->end();
  auto code_pointer_shaped = [&](std::uint64_t v) { return v >= text_lo && v < text_hi; };

  std::set<std::uint64_t> changed_pages;
  struct Patch {
    std::size_t seg_index;
    std::size_t lo, hi;  ///< changed byte range within the segment
  };
  std::vector<Patch> patches;

  for (std::size_t si = 0; si < old_img->segments.size(); ++si) {
    const zelf::Segment& a = old_img->segments[si];
    const zelf::Segment& b = new_img->segments[si];
    if (!same_segment_shape(a, b)) return refuse("segment table differs");
    if (a.bytes == b.bytes) continue;
    if (a.executable()) return refuse("text bytes differ");

    // Locate the changed region (single [lo,hi) envelope per segment; the
    // per-window validation below only inspects actually-changed words).
    std::size_t lo = 0;
    while (lo < a.bytes.size() && a.bytes[lo] == b.bytes[lo]) ++lo;
    std::size_t hi = a.bytes.size();
    while (hi > lo && a.bytes[hi - 1] == b.bytes[hi - 1]) --hi;

    for (std::size_t off = lo; off < hi; ++off)
      if (a.bytes[off] != b.bytes[off])
        changed_pages.insert((a.vaddr + off) / zelf::layout::kPageSize);
    if (changed_pages.size() > options.max_changed_pages)
      return refuse("diff spans too many pages");

    // Validate every 8-byte window -- at EVERY byte alignment, since
    // jump-table bases come from code immediates and need not be aligned
    // -- that overlaps a changed byte: a differing window may not look
    // like a code pointer in either version, or analysis could see it.
    std::size_t w_begin = lo >= 7 ? lo - 7 : 0;
    std::size_t w_end = std::min(a.bytes.size(), hi + 7);
    for (std::size_t w = w_begin; w + 8 <= w_end; ++w) {
      std::uint64_t ov = get_u64(a.bytes, w);
      std::uint64_t nv = get_u64(b.bytes, w);
      if (ov == nv) continue;
      if (code_pointer_shaped(ov) || code_pointer_shaped(nv))
        return refuse("changed word is code-pointer shaped");
    }
    patches.push_back({si, lo, hi});
  }

  if (patches.empty()) return refuse("inputs are identical (full cache hit territory)");

  // Splice the changed data bytes into the ancestor's OUTPUT: the rewriter
  // copies every non-text input segment through unmodified, so the cold
  // rewrite of new_input equals ancestor_output with these bytes swapped.
  auto out_img = zelf::read_image(ancestor_output);
  if (!out_img.ok()) return refuse("cached output does not parse");
  for (const Patch& p : patches) {
    const zelf::Segment& src = new_img->segments[p.seg_index];
    zelf::Segment* dst = nullptr;
    for (auto& seg : out_img->segments)
      if (seg.vaddr == src.vaddr && !seg.executable()) dst = &seg;
    if (dst == nullptr || dst->bytes.size() != src.bytes.size() || dst->kind != src.kind)
      return refuse("output segment shape drifted");
    std::memcpy(dst->bytes.data() + p.lo, src.bytes.data() + p.lo, p.hi - p.lo);
  }

  DeltaResult result;
  result.output = zelf::write_image(*out_img);
  result.changed_pages = changed_pages.size();
  return result;
}

}  // namespace zipr::serve
