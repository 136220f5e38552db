// Figure 7 reproduction: average file-size, memory and execution overhead
// across the 62 CBs, for the Zipr baseline and Zipr+CFI.
//
// Paper shape: all six bars are low; CFI's bars sit above the baseline's
// in every metric.
#include "bench_util.h"

namespace {

void bar(const char* label, double value) {
  std::printf("    %-22s %6.2f%%  ", label, value * 100);
  int n = static_cast<int>(value * 100 * 6);  // 6 chars per percent
  if (n > 72) n = 72;
  for (int i = 0; i < n; ++i) std::printf("#");
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace zipr;
  using namespace zipr::bench;

  std::printf("== Figure 7: Average overheads for final event CBs ==\n\n");

  // Corpus loops ride batch::parallel_for (jobs=0 = hardware
  // concurrency); averages match the serial path exactly.
  auto base = evaluate(baseline_config());
  auto cfi = evaluate(cfi_config());

  double fs_b = cgc::mean_overhead(base, &cgc::CbMetrics::filesize_overhead);
  double fs_c = cgc::mean_overhead(cfi, &cgc::CbMetrics::filesize_overhead);
  double ex_b = cgc::mean_overhead(base, &cgc::CbMetrics::exec_overhead);
  double ex_c = cgc::mean_overhead(cfi, &cgc::CbMetrics::exec_overhead);
  double me_b = cgc::mean_overhead(base, &cgc::CbMetrics::mem_overhead);
  double me_c = cgc::mean_overhead(cfi, &cgc::CbMetrics::mem_overhead);

  bar("filesize  zipr", fs_b);
  bar("filesize  zipr+cfi", fs_c);
  bar("execution zipr", ex_b);
  bar("execution zipr+cfi", ex_c);
  bar("memory    zipr", me_b);
  bar("memory    zipr+cfi", me_c);
  std::printf("\n");

  ClaimChecker claims;
  claims.check(fs_b < 0.05 && fs_c < 0.10, "average filesize overhead is low");
  claims.check(ex_b < 0.10, "average baseline execution overhead is low");
  claims.check(me_b < 0.10, "average baseline memory overhead is low");
  claims.check(fs_c >= fs_b && ex_c >= ex_b && me_c >= me_b,
               "CFI averages sit above the baseline in every metric");
  return claims.finish();
}
