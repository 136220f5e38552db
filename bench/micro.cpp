// Microbenchmarks (google-benchmark): throughput of the pieces the
// rewriting pipeline leans on -- instruction decode/encode, interval-set
// operations, free-space allocation and placement under heavy
// fragmentation, VM execution, and the end-to-end rewrite itself.
//
// A profiling aid: no gate reads its output. perfbench/ is the benchmark
// that compares runs, and tests/footprint_test.cpp holds the rewrite's
// allocation and peak-heap ceilings.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <cstdlib>
#include <map>

#include "asm/assembler.h"
#include "batch/batch_rewriter.h"
#include "batch/worker_pool.h"
#include "cgc/generator.h"
#include "isa/insn.h"
#include "support/interval.h"
#include "support/rng.h"
#include "vm/machine.h"
#include "zelf/image.h"
#include "zipr/placement.h"
#include "zipr/zipr.h"

namespace {

using namespace zipr;

// ---- shared fixtures ----
//
// Corpus and CB generation are hoisted into process-lifetime statics:
// every BM_Rewrite* registration (and repetition) shares one generated
// corpus and one CB per index instead of regenerating them, so adding
// benchmarks does not balloon bench startup time.

const std::vector<cgc::CbSpec>& shared_corpus() {
  static const std::vector<cgc::CbSpec> corpus = cgc::cfe_corpus();
  return corpus;
}

const cgc::CbProgram& shared_cb(std::size_t index) {
  static std::map<std::size_t, cgc::CbProgram> cache;
  auto it = cache.find(index);
  if (it == cache.end()) {
    auto r = cgc::generate_cb(shared_corpus()[index]);
    if (!r.ok()) {
      std::fprintf(stderr, "CB generation failed: %s\n", r.error().message.c_str());
      std::abort();
    }
    it = cache.emplace(index, std::move(*r)).first;
  }
  return it->second;
}

/// The synthetic large binary at `scale` (cgc::synthetic_large_spec), in
/// the widened layout the larger sizes need.
const cgc::CbProgram& shared_large_cb(int scale) {
  static std::map<int, cgc::CbProgram> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    auto r = cgc::generate_wide_cb(cgc::synthetic_large_spec(scale));
    if (!r.ok()) {
      std::fprintf(stderr, "large CB generation failed: %s\n", r.error().message.c_str());
      std::abort();
    }
    it = cache.emplace(scale, std::move(*r)).first;
  }
  return it->second;
}

// A buffer of valid, varied instruction encodings.
Bytes make_insn_stream(std::size_t count) {
  Bytes out;
  Rng rng(1);
  for (std::size_t i = 0; i < count; ++i) {
    isa::Insn in;
    switch (rng.below(6)) {
      case 0: in = isa::make_nop(); break;
      case 1: in = isa::make_jmp(static_cast<std::int64_t>(rng.below(100)), isa::BranchWidth::kRel32); break;
      case 2:
        in.op = isa::Op::kMovI;
        in.ra = static_cast<std::uint8_t>(rng.below(8));
        in.imm = static_cast<std::int64_t>(rng.below(1 << 30));
        break;
      case 3:
        in.op = isa::Op::kAdd;
        in.ra = static_cast<std::uint8_t>(rng.below(8));
        in.rb = static_cast<std::uint8_t>(rng.below(8));
        break;
      case 4:
        in.op = isa::Op::kLoad;
        in.ra = static_cast<std::uint8_t>(rng.below(8));
        in.rb = static_cast<std::uint8_t>(rng.below(8));
        in.imm = static_cast<std::int64_t>(rng.below(256));
        break;
      case 5: in = isa::make_push_imm(static_cast<std::uint32_t>(rng.below(1u << 31))); break;
    }
    auto enc = isa::encode(in);
    put_bytes(out, *enc);
  }
  return out;
}

void BM_Decode(benchmark::State& state) {
  Bytes stream = make_insn_stream(4096);
  for (auto _ : state) {
    std::size_t off = 0, n = 0;
    while (off < stream.size()) {
      auto in = isa::decode(ByteView(stream.data() + off, std::min<std::size_t>(10, stream.size() - off)));
      off += in->length;
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Decode);

void BM_Encode(benchmark::State& state) {
  std::vector<isa::Insn> insns;
  Bytes stream = make_insn_stream(4096);
  std::size_t off = 0;
  while (off < stream.size()) {
    auto in = isa::decode(ByteView(stream.data() + off, std::min<std::size_t>(10, stream.size() - off)));
    insns.push_back(*in);
    off += in->length;
  }
  Bytes out;
  for (auto _ : state) {
    out.clear();
    for (const auto& in : insns) (void)isa::encode(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * insns.size()));
}
BENCHMARK(BM_Encode);

void BM_IntervalSetChurn(benchmark::State& state) {
  for (auto _ : state) {
    IntervalSet s;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      std::uint64_t a = rng.below(1 << 20);
      std::uint64_t b = a + rng.below(256);
      if (rng.chance(2, 3))
        s.insert(a, b);
      else
        s.erase(a, b);
    }
    benchmark::DoNotOptimize(s.count());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_IntervalSetChurn);

// ---- free-space core under fragmentation ----
//
// The MemorySpace / placement benchmarks below are parameterized by the
// number of free fragments (1k / 10k / 100k): the regime a large binary's
// endgame reaches once pins and placed dollops have shredded the text
// span. Before the size-indexed IntervalSet, every query here copied and
// scanned the whole free list (O(n) per op); now allocation is O(log n)
// and window/fit queries touch only candidate ranges.

constexpr std::uint64_t kFragBase = 0x10000000;
constexpr std::uint64_t kFragStride = 128;  // one free fragment per stride

// A MemorySpace whose free set is `frags` disjoint fragments: mostly dust
// (8..15 bytes) with every 10th fragment larger (16..127 bytes), mirroring
// the skewed fragment-size distribution real rewrites produce.
std::uint64_t frag_size(std::uint64_t i) {
  return i % 10 == 0 ? 16 + (i / 10) % 112 : 8 + i % 8;
}

rewriter::MemorySpace fragmented_space(std::uint64_t frags) {
  rewriter::MemorySpace s({kFragBase, kFragBase + frags * kFragStride});
  for (std::uint64_t i = 0; i < frags; ++i) {
    std::uint64_t free_begin = kFragBase + i * kFragStride;
    std::uint64_t free_end = free_begin + frag_size(i);
    // Reserve the tail of the stride so [free_begin, free_end) stays free.
    if (!s.reserve(free_end, kFragBase + (i + 1) * kFragStride - free_end).ok()) std::abort();
  }
  return s;
}

void BM_MemorySpaceAlloc(benchmark::State& state) {
  auto frags = static_cast<std::uint64_t>(state.range(0));
  rewriter::MemorySpace s = fragmented_space(frags);
  constexpr std::uint64_t kSize = 64;
  for (auto _ : state) {
    auto a = s.allocate(kSize);
    benchmark::DoNotOptimize(a);
    if (a && !s.release(*a, kSize).ok()) std::abort();  // restore state
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemorySpaceAlloc)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AllocateInWindow(benchmark::State& state) {
  auto frags = static_cast<std::uint64_t>(state.range(0));
  rewriter::MemorySpace s = fragmented_space(frags);
  std::uint64_t span = frags * kFragStride;
  std::uint64_t prefer = kFragBase;
  for (auto _ : state) {
    // March the rel8-sized window across the span, as chaining does.
    prefer = kFragBase + (prefer - kFragBase + 7919) % span;
    auto a = s.allocate_in_window(5, prefer >= 126 ? prefer - 126 : 0, prefer + 129, prefer);
    benchmark::DoNotOptimize(a);
    if (a && !s.release(*a, 5).ok()) std::abort();  // restore state
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocateInWindow)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_PlacementPick(benchmark::State& state, rewriter::PlacementKind kind) {
  auto frags = static_cast<std::uint64_t>(state.range(0));
  rewriter::MemorySpace s = fragmented_space(frags);
  // Pin a handful of pages, as a real binary's pin map would.
  std::set<std::uint64_t> pinned_pages;
  for (int i = 0; i < 16; ++i)
    pinned_pages.insert((kFragBase + static_cast<std::uint64_t>(i) * 37 * zelf::layout::kPageSize) &
                        ~(zelf::layout::kPageSize - 1));
  auto strategy = rewriter::make_placement(kind, 42, std::move(pinned_pages));
  rewriter::PlacementRequest req;
  req.size = 64;  // fits only the non-dust fragments
  req.min_viable = 7;
  std::uint64_t anchor = kFragBase;
  for (auto _ : state) {
    anchor = kFragBase + (anchor - kFragBase + 104729) % (frags * kFragStride);
    req.preferred = anchor;
    auto iv = strategy->pick(s, req);
    benchmark::DoNotOptimize(iv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PlacementPick, nearfit, rewriter::PlacementKind::kNearfit)
    ->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_CAPTURE(BM_PlacementPick, diversity, rewriter::PlacementKind::kDiversity)
    ->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK_CAPTURE(BM_PlacementPick, pinpage, rewriter::PlacementKind::kPinPage)
    ->Arg(1000)->Arg(10000)->Arg(100000);

const char* kVmProgram = R"(
  .entry main
  .text
  main:
    movi r2, 0
    movi r3, 0
  loop:
    addi r3, 7
    xori r3, 0x5a5a
    addi r2, 1
    cmpi r2, 20000
    jlt loop
    movi r0, 1
    mov r1, r3
    syscall
)";

void BM_VmExecution(benchmark::State& state) {
  auto img = assembler::assemble(kVmProgram);
  for (auto _ : state) {
    auto r = vm::run_program(*img);
    benchmark::DoNotOptimize(r.stats.insns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100003);
}
BENCHMARK(BM_VmExecution);

// The interpreter with the predecoded-instruction cache on vs off, same
// workload as BM_VmExecution. Machine construction (and therefore a cold
// cache build) is inside the timed region, so the on/off gap understates
// the fuzzing steady state where the cache stays warm across restores.
void BM_VmExec(benchmark::State& state) {
  auto img = assembler::assemble(kVmProgram);
  const bool cache = state.range(0) != 0;
  for (auto _ : state) {
    vm::Machine m(*img);
    m.set_decode_cache(cache);
    auto r = m.run();
    if (!r.exited) std::abort();
    benchmark::DoNotOptimize(r.stats.insns);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100003);
  state.SetLabel(cache ? "decode-cache" : "no-cache");
}
BENCHMARK(BM_VmExec)->Arg(0)->Arg(1);

// Bulk syscall I/O: transmit 256 KiB page-run by page-run and drain a
// 64 KiB input stream. Measures Memory::read_block/write_block (memcpy per
// contiguous page run, not byte loops) through the guest-visible path.
const char* kIoProgram = R"(
  .entry main
  .text
  main:
    movi r4, 0
  tx:
    movi r0, 2          ; transmit(1, buf, 4096)
    movi r1, 1
    movi r2, buf
    movi r3, 4096
    syscall
    addi r4, 1
    cmpi r4, 64
    jlt tx
  rx:
    movi r0, 3          ; receive(0, buf, 4096) until EOF
    movi r1, 0
    movi r2, buf
    movi r3, 4096
    syscall
    cmpi r0, 0
    jgt rx
    movi r0, 1
    movi r1, 0
    syscall
  .bss
  buf: .space 4096
)";

void BM_SyscallIO(benchmark::State& state) {
  auto img = assembler::assemble(kIoProgram);
  Bytes input(1 << 16, static_cast<Byte>(0x41));
  for (auto _ : state) {
    vm::Machine m(*img);
    m.set_input(input);
    auto r = m.run();
    if (!r.exited) std::abort();
    benchmark::DoNotOptimize(r.output.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(64 * 4096 + input.size()));
}
BENCHMARK(BM_SyscallIO);

void BM_RewriteCb(benchmark::State& state) {
  const auto& cb = shared_cb(static_cast<std::size_t>(state.range(0)));
  std::size_t text = cb.image.text().bytes.size();
  for (auto _ : state) {
    auto r = rewrite(cb.image, {});
    benchmark::DoNotOptimize(r->image.entry);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text));
  state.SetLabel(cb.spec.name + " (" + std::to_string(text) + "B text)");
}
BENCHMARK(BM_RewriteCb)->Arg(0)->Arg(40)->Arg(61);

// End-to-end rewrite throughput on the synthetic large binary, swept
// across text sizes (x1 ~106 KB up to x50 ~5 MB): the big-binary scaling
// curve. perfbench's `large` workload times x10 and x50 against the parent
// commit on the same host.
//
// Every iteration allocates its own analysis tables and reassembly memory,
// as every serve or batch request does: a rewrite keeps nothing between
// calls.
void BM_RewriteLarge(benchmark::State& state) {
  const auto& cb = shared_large_cb(static_cast<int>(state.range(0)));
  std::size_t text = cb.image.text().bytes.size();
  // One untimed rewrite faults in the input and warms the allocator, so
  // the loop times WARM iterations: what a serve worker pays per request,
  // not the first request's page faults.
  {
    auto r = rewrite(cb.image, {});
    benchmark::DoNotOptimize(r->image.entry);
  }
  for (auto _ : state) {
    auto r = rewrite(cb.image, {});
    benchmark::DoNotOptimize(r->image.entry);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text));
  state.SetLabel(cb.spec.name + " (" + std::to_string(text) + "B text)");
}
// MinTime keeps the big sizes from being judged on two iterations (the
// first of which faults its whole working set cold): a steady-state mean,
// not cold-start jitter.
BENCHMARK(BM_RewriteLarge)->Arg(1)->Arg(10)->Arg(25)->Arg(50)->MinTime(3.0);

// Batch-rewrite a 16-image corpus slice on 1/2/4/8 workers. Wall-clock
// (real time) is the quantity of interest: on a multi-core host the
// speedup vs Arg(1) approaches min(jobs, cores); on a single core it stays
// ~1x and the pool overhead is what's being measured.
void BM_BatchRewrite(benchmark::State& state) {
  static const std::vector<zelf::Image>& images = [] {
    static std::vector<zelf::Image> imgs;
    for (std::size_t i = 0; i < 16; ++i)
      imgs.push_back(shared_cb(i * 3 % shared_corpus().size()).image);
    return std::ref(imgs);
  }().get();
  batch::BatchOptions opts;
  opts.jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = batch::rewrite_batch(images, opts);
    if (r.stats.failed != 0) std::abort();
    benchmark::DoNotOptimize(r.stats.succeeded);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * images.size()));
  // The worker count actually used (requested jobs capped by the corpus
  // size), so a reader of the JSON output can tell pool-scaling rows
  // apart without parsing the benchmark name.
  state.counters["workers"] = benchmark::Counter(
      static_cast<double>(batch::effective_jobs(opts.jobs, images.size())));
}
// Wall-clock (UseRealTime) is the scaling signal; process CPU time is
// recorded alongside so the pool's aggregate cost stays visible (cpu_time
// from the calling thread alone would misleadingly shrink as jobs grow).
BENCHMARK(BM_BatchRewrite)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()->MeasureProcessCPUTime();

void BM_RewriteWithCfi(benchmark::State& state) {
  const auto& cb = shared_cb(5);
  RewriteOptions opts;
  opts.transforms = {"cfi"};
  for (auto _ : state) {
    auto r = rewrite(cb.image, opts);
    benchmark::DoNotOptimize(r->image.entry);
  }
}
BENCHMARK(BM_RewriteWithCfi);

}  // namespace

int main(int argc, char** argv) {
  // The big-size rewrite tables (x25/x50 sweep) sit above glibc's
  // mmap-threshold adaptation cap (32 MB), so by default every iteration
  // hands them straight back to the OS and re-faults ~150 MB of zero
  // pages on the next one -- a step-function allocator artifact at the
  // 32 MB boundary that shows up as superlinear "scaling" between sweep
  // sizes whose buffers fall on opposite sides of it. Pin the threshold
  // above the largest sweep table so the iteration loop measures the
  // rewrite pipeline, not the page allocator: a one-shot rewrite pays the
  // fault cost once and linearly, and the serve layer's long-lived
  // workers recycle their heap across requests exactly like this loop.
  // Setting any threshold by hand also stops glibc from raising the trim
  // threshold as it raises the mmap threshold, which would leave it at
  // 128 KB: every iteration would then trim the heap top it freed back to
  // the OS and fault it in again on the next. Pin the trim threshold above
  // the largest sweep table too.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
