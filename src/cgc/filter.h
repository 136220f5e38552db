// Network filters: the second half of Xandra's CGC strategy.
//
// The paper (Sec. IV-B): exploits were split into control-flow hijacking
// and information-disclosure attacks; "[o]ur team's strategy was to handle
// the former by rewriting CBs ... and the latter by deploying network
// filters." A filter sits in front of a CB and drops sessions whose input
// matches an attack signature, without touching the binary at all.
#pragma once

#include "support/bytes.h"
#include "vm/machine.h"

namespace zipr::cgc {

/// One signature: a byte pattern with optional per-bit masking.
struct FilterRule {
  std::string name;
  Bytes pattern;
  Bytes mask;  ///< same length; bit set = must match. Empty = exact match.
  bool anchored = false;  ///< match only at offset 0 (session header rules)
};

class NetworkFilter {
 public:
  void add_rule(FilterRule rule) { rules_.push_back(std::move(rule)); }

  /// Name of the first rule matching anywhere in `input`, or nullptr.
  const FilterRule* match(ByteView input) const;

  /// True if the input may pass to the service.
  bool allows(ByteView input) const { return match(input) == nullptr; }

 private:
  std::vector<FilterRule> rules_;
};

/// Run `image` on `input` behind `filter`. A dropped session produces no
/// output and exits with status -2 (connection refused), which still
/// counts as "no fault" for availability scoring.
vm::RunResult run_filtered(const NetworkFilter& filter, const zelf::Image& image,
                           ByteView input, std::uint64_t seed = 0);

/// A CB with an information-disclosure bug (an over-long echo leaks a
/// secret adjacent to the request buffer), a benign input, a disclosure
/// exploit, and the filter signature that stops it.
struct DisclosureCb {
  zelf::Image image;
  Bytes benign_input;
  Bytes exploit_input;
  std::string leak_marker;
  FilterRule signature;
};

DisclosureCb make_disclosure_cb();

}  // namespace zipr::cgc
