// Synthetic challenge-binary (CB) generation.
//
// DARPA's CGC evaluated rewriters on challenge binaries written from
// scratch for the competition: small network services with a command
// protocol, deliberately diverse in structure. This generator plays the CB
// authors' role: from a seed and a feature spec it emits a deterministic
// VLX service that exercises a chosen mix of rewriting hazards --
// jump-table dispatch, function-pointer dispatch, dense (sled-forcing)
// indirect targets, data embedded in text, recursion, deep call chains,
// large straight-line code (big dollops), and address-taken functions only
// reachable through data.
//
// Protocol of every generated service: repeat { read 1 command byte; 0xFF
// or EOF terminates; otherwise index = byte % handler_count selects a
// handler, which reads its fixed-size payload, computes, and transmits an
// 8-byte result }. The matching poller (poller.h) builds well-formed
// inputs from the returned CbProgram metadata.
#pragma once

#include <string>
#include <vector>

#include "zelf/image.h"

namespace zipr::cgc {

enum class DispatchMode {
  kJmpTable,    ///< jmpt through an rodata table of stubs
  kFptrTable,   ///< load function pointer from rodata, callr
  kDenseTable,  ///< jmpt targets 1 byte apart: forces sleds
};

struct CbSpec {
  std::string name;
  std::uint64_t seed = 1;

  int handlers = 4;           ///< command handlers (>= 1)
  DispatchMode dispatch = DispatchMode::kJmpTable;

  int filler_funcs = 4;       ///< chained helper functions
  int filler_ops = 10;        ///< ALU ops per helper
  int straightline = 0;       ///< extra straight-line insns per handler (big dollops)
  int scratch_pages = 1;      ///< bss working-set pages handlers touch
  bool data_in_text = false;  ///< embed blobs + a key read via loadpc
  bool recursion = false;     ///< one handler recurses on its payload
  bool unused_fptrs = false;  ///< data words point at never-called functions
  int payload_max = 12;       ///< handler payload lengths drawn from [0, max]

  /// > 0 turns handler 0 into an interpreter: a 2-byte payload selects one
  /// of this many 15-byte case blocks reached through a COMPUTED jump
  /// (case addresses appear in an rodata registry, so they are all pinned,
  /// but dispatch never touches it at runtime). The pinned case region
  /// fragments the address space into slivers too small for any dollop,
  /// so the rewritten case bodies all land in the overflow area -- the
  /// paper's pathological memory-overhead mechanism (Fig. 6). Must be a
  /// power of two.
  int interpreter_cases = 0;
};

/// A generated CB: its image plus the protocol metadata pollers need.
struct CbProgram {
  CbSpec spec;
  zelf::Image image;                 ///< symbol-free (as CBs shipped)
  std::vector<int> payload_len;      ///< per handler index
};

/// Generate one CB (deterministic in spec.seed).
Result<CbProgram> generate_cb(const CbSpec& spec);

/// Generate one CB with its data segments moved past the default 2 MB
/// text/rodata gap (rodata at 64 MB), so that a text of several MB and its
/// rewrite fit. The rewriter reads segment bounds from the image.
Result<CbProgram> generate_wide_cb(const CbSpec& spec);

/// The synthetic large binary at `scale`: 24 function-pointer handlers of
/// 600*scale straight-line instructions each, over 48*scale filler
/// functions, with data in text. It approximates a real-world binary's
/// size: x1 has about 106 KB of text, x50 about 5.1 MB. x1 fits the
/// default layout; larger scales need generate_wide_cb.
CbSpec synthetic_large_spec(int scale, std::uint64_t seed = 99);

/// The evaluation corpus: 62 CB specs mirroring the CFE set's diversity,
/// including one deliberately pathological CB (many pins + large dollops,
/// the >50 % memory outlier of the paper's Fig. 6).
std::vector<CbSpec> cfe_corpus();

/// Source text of the CB (exposed for debugging and the asm examples).
Result<std::string> generate_cb_source(const CbSpec& spec, std::vector<int>* payload_len);

}  // namespace zipr::cgc
