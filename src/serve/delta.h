// Delta rewrite path: answer a near-identical resubmission from a cached
// ancestor without re-running the pipeline.
//
// The CI-fleet workload the serve layer exists for resubmits binaries that
// differ from a previous submission in a handful of data pages (embedded
// version strings, build ids, config blobs). For those, the ancestor's
// disassembly/IR -- and therefore its entire rewritten text -- is provably
// reusable: IR construction reads non-text segment bytes ONLY through
// 8-byte windows that are checked for "points into the text segment"
// (the data-pointer scan in analysis/disasm.cpp and jump-table slot
// reads), and the reassembled output carries every non-text segment
// through verbatim. So if
//
//   * the two inputs are structurally identical (entry, exports, imports,
//     symbols, segment table) and their text bytes match, and
//   * every 8-byte window overlapping a changed byte holds a non-code
//     pointer in BOTH versions (so the traversal fixpoint, pin set and
//     jump tables are bit-identical), and
//   * the diff spans at most `max_changed_pages` pages,
//
// then cold-rewriting the new input would reproduce the ancestor's output
// with just the changed data bytes substituted -- which is exactly what
// try_delta() emits, in O(diff) instead of O(rewrite). ANY doubt (text
// delta, a changed code-pointer-shaped word, structural drift, parse
// failure) refuses the delta and the caller falls back to the cold path,
// so the service can never emit bytes that diverge from a cold rewrite.
#pragma once

#include <optional>
#include <string>

#include "support/bytes.h"

namespace zipr::zelf {
class Image;
}

namespace zipr::serve {

struct DeltaOptions {
  /// Refuse deltas touching more pages than this: past the threshold a
  /// cold rewrite is cheap relative to the validation work.
  std::size_t max_changed_pages = 8;
};

struct DeltaResult {
  Bytes output;                   ///< byte-identical to a cold rewrite
  std::size_t changed_pages = 0;  ///< distinct pages the diff touched
};

/// Try to derive the rewrite of `new_input` (already parsed as `new_img`)
/// from a cached ancestor (`ancestor_input` -> `ancestor_output`, produced
/// under the SAME canonical options). Returns nullopt -- with a
/// human-readable refusal in `*reason` -- whenever the validator cannot
/// prove equivalence.
///
/// The caller parses: the serve engine parses each miss exactly once and
/// probes several ancestors, so re-parsing `new_input` per probe would make
/// delta probing cost more than the cold rewrite it is meant to avoid. A
/// serialized-length mismatch is refused BEFORE parsing the ancestor:
/// structurally identical inputs serialize to identical lengths, so a
/// length delta can never validate and refusing it costs two size() reads.
std::optional<DeltaResult> try_delta(ByteView ancestor_input, ByteView ancestor_output,
                                     const zelf::Image& new_img, ByteView new_input,
                                     const DeltaOptions& options, std::string* reason);

}  // namespace zipr::serve
