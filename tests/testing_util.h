// Shared helpers for tests: assemble sources, run images, rewrite them,
// and compare behaviour.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>

#include "asm/assembler.h"
#include "vm/machine.h"
#include "zelf/io.h"
#include "zipr/zipr.h"

namespace zipr::testing {

inline zelf::Image must_assemble(std::string_view src) {
  auto img = assembler::assemble(src);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
  if (!img.ok()) std::abort();
  return std::move(img).value();
}

inline RewriteResult must_rewrite(const zelf::Image& input, RewriteOptions opts = {}) {
  auto r = rewrite(input, opts);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

/// Run `fn` on a new thread and wait for it: a rewrite there shares no
/// thread with any earlier one.
template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

/// Serialized output of a rewrite on a fresh thread: the reference that
/// repeated rewrites on one thread must match.
inline Bytes cold_rewrite_bytes(const zelf::Image& input, const RewriteOptions& opts = {}) {
  Bytes out;
  on_fresh_thread([&] { out = zelf::write_image(must_rewrite(input, opts).image); });
  return out;
}

/// Behaviour of one run, summarized for equality checks.
struct Behaviour {
  bool exited = false;
  std::int64_t exit_status = -1;
  vm::Fault fault = vm::Fault::kNone;
  Bytes output;

  friend bool operator==(const Behaviour&, const Behaviour&) = default;
};

inline Behaviour behaviour_of(const zelf::Image& img, ByteView input = {},
                              std::uint64_t seed = 0) {
  auto r = vm::run_program(img, input, seed);
  return {r.exited, r.exit_status, r.fault, r.output};
}

/// EXPECT that original and rewritten behave identically on `input`.
inline void expect_equivalent(const zelf::Image& original, const zelf::Image& rewritten,
                              ByteView input = {}, std::uint64_t seed = 0) {
  Behaviour a = behaviour_of(original, input, seed);
  Behaviour b = behaviour_of(rewritten, input, seed);
  EXPECT_EQ(a.exited, b.exited);
  EXPECT_EQ(a.exit_status, b.exit_status);
  EXPECT_EQ(a.fault, b.fault) << vm::fault_name(a.fault) << " vs " << vm::fault_name(b.fault);
  EXPECT_EQ(a.output, b.output)
      << "original: " << hex_dump(a.output) << "\nrewritten: " << hex_dump(b.output);
}

}  // namespace zipr::testing
