// The VLX virtual machine: a deterministic interpreter for ZELF images.
//
// This plays the role of DARPA's DECREE environment in the paper's
// evaluation: a minimal, restricted OS (seven syscalls, no filesystem or
// network) in which challenge binaries run and their characteristics --
// execution time (instructions/cycles), memory use (pages touched) and
// functionality (output bytes) -- can be measured deterministically.
//
// Syscalls (number in r0, args r1..r3, result in r0):
//   1 terminate(status)           ends the run with exit status r1
//   2 transmit(fd, buf, count)    appends bytes to the output stream
//   3 receive(fd, buf, count)     reads bytes from the input stream (0=EOF)
//   4 fdwait()                    no-op, returns 0
//   5 allocate(size)              maps zeroed rw pages, returns base address
//   6 deallocate(addr, size)      accepted and ignored, returns 0
//   7 random(buf, count)          fills buf from the seeded RNG
//
// Execution engine: the hot loop runs from a predecoded-instruction cache.
// Each executable page is decoded once -- at every byte offset, superset
// style, since control flow may land anywhere -- into a table of
// {decoded Insn, cost, tag} slots, so retiring an instruction is a slot
// load plus dispatch: no per-step fetch allocation, no re-decode, no page
// hash probe (vm::Memory's inline TLB covers the data path). Slots whose
// fetch window would cross the page edge are tagged to take the legacy
// fetch+decode slow path, which keeps faults, stats and the touched-page
// (MaxRSS) set bit-identical to the uncached interpreter. The cache keys
// its validity on Memory::code_epoch(): writes to executable pages, new or
// widened exec mappings, and snapshot-restore rollback of exec pages all
// invalidate before the next instruction executes. Tracing forces the
// per-instruction slow path so observable behavior never depends on the
// cache; set_decode_cache(false) disables it outright
// (differential tests run both ways and assert identical results).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "isa/insn.h"
#include "support/rng.h"
#include "vm/link.h"
#include "vm/memory.h"

namespace zipr::vm {

struct RunLimits {
  std::uint64_t max_insns = 50'000'000;  ///< gas budget
  std::size_t max_output = 1 << 24;      ///< transmit cap (16 MiB)
};

/// Execution statistics: the paper's performance & memory metrics.
struct ExecStats {
  std::uint64_t insns = 0;     ///< instructions retired
  std::uint64_t cycles = 0;    ///< cost-model cycles
  std::uint64_t syscalls = 0;
  std::size_t max_rss_pages = 0;  ///< pages ever touched
};

struct RunResult {
  bool exited = false;             ///< terminated via syscall (vs fault)
  std::int64_t exit_status = -1;
  Fault fault = Fault::kNone;      ///< set when !exited
  std::uint64_t fault_pc = 0;
  ExecStats stats;
  Bytes output;                    ///< transmitted bytes
  /// Bytes of the input stream actually receive()d before the run ended.
  /// receive() is the input's only reader, so unless the run faulted, the
  /// input cut to this many bytes replays it; the fuzzer admits inputs cut
  /// this way.
  std::size_t input_bytes_consumed = 0;
};

class Machine {
 private:
  struct Flags {
    bool zf = false;
    bool slt = false;  ///< signed less-than at last compare
    bool ult = false;  ///< unsigned less-than at last compare
  };

 public:
  explicit Machine(const zelf::Image& image, RunLimits limits = {});

  /// Run a linked executable+libraries address space (see vm/link.h).
  explicit Machine(const LinkResult& linked, RunLimits limits = {});

  /// Bytes the program can receive(); unread input means EOF after the end.
  void set_input(Bytes input) { input_ = std::move(input); }

  /// Seed for the random() syscall (deterministic pollers rely on this).
  void set_random_seed(std::uint64_t seed) { rng_ = Rng(seed); }

  /// Optional per-instruction hook (tests/tracing). Forces the slow path.
  using TraceFn = std::function<void(std::uint64_t pc, const isa::Insn&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  /// Toggle the predecoded-instruction cache (default on). The cached and
  /// uncached interpreters are observably identical -- RunResult, faults,
  /// stats, output -- which the differential tests assert corpus-wide.
  void set_decode_cache(bool on) { decode_cache_on_ = on; }

  /// Run until terminate, fault, or gas exhaustion.
  RunResult run();

  // ---- snapshot / restore (persistent-mode fuzzing) ----

  /// Full machine state at a point in time; restore() rolls back to it.
  struct Snapshot {
    Memory::Snapshot mem;
    std::uint64_t regs[isa::kNumRegs] = {};
    std::uint64_t pc = 0;
    Flags flags;
    std::uint64_t heap_next = 0;
  };

  /// Capture registers + memory and arm the memory's dirty-page tracking;
  /// typically taken right after construction ("after startup") so every
  /// later run can start from a pristine address space without re-linking.
  Snapshot snapshot();

  /// Roll the machine back to `snap` and reset all per-run state (input,
  /// output, statistics, termination). The caller re-arms input and the
  /// random() seed for the next run. Decode tables survive unless the
  /// rollback touched an executable page (Memory::code_epoch()).
  Status restore(const Snapshot& snap);

  // ---- state access for white-box tests ----
  std::uint64_t reg(int i) const { return regs_[i]; }
  std::uint64_t pc() const { return pc_; }
  Memory& memory() { return mem_; }
  std::uint64_t heap_next() const { return heap_next_; }
  void set_heap_next(std::uint64_t v) { heap_next_ = v; }

 private:
  /// One executable page decoded at every byte offset.
  struct CodePage {
    enum class Kind : std::uint8_t {
      kDecoded,   ///< valid instruction wholly inside the page
      kBadInsn,   ///< undecodable bytes at this offset
      kBoundary,  ///< fetch window crosses the page edge: slow path
    };
    struct Slot {
      isa::Insn insn;
      std::uint16_t cost = 0;  ///< precomputed isa::cost_of(insn.op)
      Kind kind = Kind::kBadInsn;
    };
    std::vector<Slot> slots;  ///< kPageSize entries, indexed by page offset
  };

  /// The per-instruction calls return Fault::kNone on success: a plain
  /// enum comes back in a register, so retiring an instruction never
  /// reloads its result from the stack.
  Fault step();
  /// Everything after fetch+decode: stats are the caller's job.
  Fault dispatch(const isa::Insn& in);
  void run_slow(RunResult& r);
  void run_fast(RunResult& r);
  /// Decode table for the exec page at `base` (built on first use),
  /// nullptr if the page is unmapped or not executable.
  const CodePage* code_page(std::uint64_t base);
  bool eval_cond(isa::Cond c) const;
  Fault do_syscall();
  Fault push64(std::uint64_t v);
  std::optional<std::uint64_t> pop64();

  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  Memory mem_;
  RunLimits limits_;
  std::uint64_t regs_[isa::kNumRegs] = {};
  std::uint64_t pc_ = 0;
  Flags flags_;
  Rng rng_{0};

  Bytes input_;
  std::size_t input_pos_ = 0;
  Bytes output_;
  std::uint64_t heap_next_ = zelf::layout::kHeapBase;

  ExecStats stats_;
  bool exited_ = false;
  std::int64_t exit_status_ = -1;
  TraceFn trace_;

  bool decode_cache_on_ = true;
  std::unordered_map<std::uint64_t, std::unique_ptr<CodePage>> code_cache_;
  std::uint64_t code_cache_epoch_ = 0;  ///< Memory::code_epoch() at last sync
};

/// Convenience: run `image` with `input` and `seed`, default limits.
RunResult run_program(const zelf::Image& image, ByteView input = {},
                      std::uint64_t seed = 0, RunLimits limits = {});

/// Convenience: link and run an executable with its libraries.
RunResult run_linked(const LinkResult& linked, ByteView input = {},
                     std::uint64_t seed = 0, RunLimits limits = {});

}  // namespace zipr::vm
