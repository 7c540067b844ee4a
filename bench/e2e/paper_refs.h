// The paper's reference points: every bar or breakdown total of Figs. 1 and
// 12-16 that carries a number in the paper, 39 in all. Each row mirrors a
// constant of a bench/bench_fig*.cc binary (named in its comment), so the
// two stay comparable. Fig. 16 rows are held out: DESIGN.md section 5
// calibrates the timing model against Section 4 and Figs. 1 and 12-15 only,
// so the distribution sweep measures error on data the model was not tuned
// on.

#ifndef MGS_BENCH_E2E_PAPER_REFS_H_
#define MGS_BENCH_E2E_PAPER_REFS_H_

#include "util/datagen.h"

namespace mgs::e2e {

enum class Sorter { kP2p, kHet2n, kHet3n, kParadis };

struct PaperPoint {
  const char* figure;
  const char* system;  // topo::MakeSystem name
  Sorter sorter;
  int gpus;  // 0 for the CPU-only PARADIS baseline
  double logical_keys;
  Distribution distribution;
  double gpu_budget_bytes;  // HetOptions::gpu_memory_budget (0 = all)
  double paper_s;
  bool held_out;
};

inline constexpr double kFig15Budget = 33e9;  // bench_fig15: kBudget

// clang-format off: one reference point per line.
inline constexpr PaperPoint kPaperPoints[] = {
    // Fig. 1, bench_fig01_headline.cc `bars` (4e9 keys, DGX A100).
    {"fig01", "dgx-a100", Sorter::kParadis, 0, 4e9, Distribution::kUniform, 0, 2.25, false},
    {"fig01", "dgx-a100", Sorter::kP2p, 1, 4e9, Distribution::kUniform, 0, 1.47, false},
    {"fig01", "dgx-a100", Sorter::kP2p, 2, 4e9, Distribution::kUniform, 0, 0.75, false},
    {"fig01", "dgx-a100", Sorter::kP2p, 4, 4e9, Distribution::kUniform, 0, 0.45, false},
    {"fig01", "dgx-a100", Sorter::kHet2n, 2, 4e9, Distribution::kUniform, 0, 1.09, false},
    {"fig01", "dgx-a100", Sorter::kHet2n, 4, 4e9, Distribution::kUniform, 0, 0.75, false},
    // Fig. 12a/b, bench_fig12_ac922_sort.cc breakdown refs (2e9 keys).
    {"fig12", "ac922", Sorter::kP2p, 1, 2e9, Distribution::kUniform, 0, 0.35, false},
    {"fig12", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kUniform, 0, 0.24, false},
    {"fig12", "ac922", Sorter::kP2p, 4, 2e9, Distribution::kUniform, 0, 0.45, false},
    {"fig12", "ac922", Sorter::kHet2n, 1, 2e9, Distribution::kUniform, 0, 0.35, false},
    {"fig12", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kUniform, 0, 0.35, false},
    {"fig12", "ac922", Sorter::kHet2n, 4, 2e9, Distribution::kUniform, 0, 0.45, false},
    // Fig. 13a/b, bench_fig13_delta_sort.cc breakdown refs (2e9 keys).
    {"fig13", "delta-d22x", Sorter::kP2p, 1, 2e9, Distribution::kUniform, 0, 1.37, false},
    {"fig13", "delta-d22x", Sorter::kP2p, 2, 2e9, Distribution::kUniform, 0, 0.74, false},
    {"fig13", "delta-d22x", Sorter::kP2p, 4, 2e9, Distribution::kUniform, 0, 0.64, false},
    {"fig13", "delta-d22x", Sorter::kHet2n, 1, 2e9, Distribution::kUniform, 0, 1.37, false},
    {"fig13", "delta-d22x", Sorter::kHet2n, 2, 2e9, Distribution::kUniform, 0, 0.90, false},
    {"fig13", "delta-d22x", Sorter::kHet2n, 4, 2e9, Distribution::kUniform, 0, 0.64, false},
    // Fig. 14a/b, bench_fig14_dgx_sort.cc breakdown refs (2e9 keys).
    {"fig14", "dgx-a100", Sorter::kP2p, 1, 2e9, Distribution::kUniform, 0, 0.72, false},
    {"fig14", "dgx-a100", Sorter::kP2p, 2, 2e9, Distribution::kUniform, 0, 0.38, false},
    {"fig14", "dgx-a100", Sorter::kP2p, 4, 2e9, Distribution::kUniform, 0, 0.25, false},
    {"fig14", "dgx-a100", Sorter::kP2p, 8, 2e9, Distribution::kUniform, 0, 0.24, false},
    {"fig14", "dgx-a100", Sorter::kHet2n, 1, 2e9, Distribution::kUniform, 0, 0.72, false},
    {"fig14", "dgx-a100", Sorter::kHet2n, 2, 2e9, Distribution::kUniform, 0, 0.56, false},
    {"fig14", "dgx-a100", Sorter::kHet2n, 4, 2e9, Distribution::kUniform, 0, 0.39, false},
    {"fig14", "dgx-a100", Sorter::kHet2n, 8, 2e9, Distribution::kUniform, 0, 0.37, false},
    // Fig. 15 at 60e9 keys, 8 GPUs, bench_fig15_large_data.cc closing
    // "Paper reference" note (HET ~10 s with either scheme, PARADIS ~33 s).
    {"fig15", "dgx-a100", Sorter::kHet2n, 8, 60e9, Distribution::kUniform, kFig15Budget, 10.0, false},
    {"fig15", "dgx-a100", Sorter::kHet3n, 8, 60e9, Distribution::kUniform, kFig15Budget, 10.0, false},
    {"fig15", "dgx-a100", Sorter::kParadis, 0, 60e9, Distribution::kUniform, 0, 33.0, false},
    // Fig. 16, bench_fig16_distributions.cc `refs` (2e9 keys, AC922,
    // 2 GPUs): P2P then HET per distribution. Held out.
    {"fig16", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kUniform, 0, 0.24, true},
    {"fig16", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kUniform, 0, 0.36, true},
    {"fig16", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kNormal, 0, 0.24, true},
    {"fig16", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kNormal, 0, 0.36, true},
    {"fig16", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kSorted, 0, 0.20, true},
    {"fig16", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kSorted, 0, 0.35, true},
    {"fig16", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kReverseSorted, 0, 0.26, true},
    {"fig16", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kReverseSorted, 0, 0.35, true},
    {"fig16", "ac922", Sorter::kP2p, 2, 2e9, Distribution::kNearlySorted, 0, 0.22, true},
    {"fig16", "ac922", Sorter::kHet2n, 2, 2e9, Distribution::kNearlySorted, 0, 0.35, true},
};
// clang-format on

static_assert(sizeof(kPaperPoints) / sizeof(kPaperPoints[0]) == 39);

}  // namespace mgs::e2e

#endif  // MGS_BENCH_E2E_PAPER_REFS_H_
