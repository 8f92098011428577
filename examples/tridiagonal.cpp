// One first-order linear recurrence (Livermore kernel 5,
// x[i] = z[i]*(y[i] - x[i-1])), solved two ways:
//   1. the sequential loop,
//   2. the paper's Möbius IR route — the parallel-prefix idea of the
//      paper's references [2][4], generalized to scattered g/f index maps
//      that a contiguous scan cannot express.
//
//   $ ./tridiagonal
#include <cmath>
#include <cstdio>

#include "core/linear_ir.hpp"
#include "livermore/kernels.hpp"
#include "livermore/parallel.hpp"
#include "support/timer.hpp"

int main() {
  using namespace ir;

  auto ws = livermore::Workspace::standard(1997, 4);  // ~4k elements
  const std::size_t n = ws.loop_n;

  // Route 1: sequential loop.
  auto seq_ws = ws;
  support::Stopwatch watch;
  livermore::kernel05_tridiagonal(seq_ws);
  const double ms1 = watch.lap() * 1e3;

  // Route 2: Möbius IR (threaded).
  auto ir_ws = ws;
  parallel::ThreadPool pool(parallel::ThreadPool::default_threads());
  core::OrdinaryIrOptions options;
  options.pool = &pool;
  watch.lap();  // pool construction is not part of the solver's time
  livermore::kernel05_parallel(ir_ws, options);
  const double ms2 = watch.lap() * 1e3;

  double ir_err = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    ir_err = std::max(ir_err, std::fabs(ir_ws.x[i] - seq_ws.x[i]));
  }

  std::printf("kernel 5, n = %zu\n", n);
  std::printf("  sequential loop : %8.3f ms\n", ms1);
  std::printf("  Moebius IR      : %8.3f ms   max error %.3g  (%zu threads)\n", ms2,
              ir_err, pool.size());
  std::printf("\nboth agree up to floating-point reassociation: %s\n",
              ir_err < 1e-6 ? "yes" : "NO");
  return ir_err < 1e-6 ? 0 : 1;
}
