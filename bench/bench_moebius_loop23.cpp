// EX-L23 — the paper's Section-3 worked example: Livermore loop 23's
// fragment parallelized through the Möbius transformation.
//
// Reports, for growing problem sizes: sequential wall time, Möbius-IR wall
// time (threaded), max element error (reassociation only), and the
// pointer-jumping round count — the paper's O(log n) claim made measurable.
#include <cmath>
#include <cstdio>

#include "core/linear_ir.hpp"
#include "livermore/kernels.hpp"
#include "livermore/parallel.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main() {
  using namespace ir;

  std::printf("EX-L23: loop 23 fragment via the Moebius route\n");
  std::printf("X[k,j] := X[k,j] + 0.175*(Y[k] + X[k-1,j]*Z[k,j])\n\n");

  parallel::ThreadPool pool(parallel::ThreadPool::default_threads());

  support::TextTable table;
  table.set_header({"rows", "seq ms", "IR ms", "rounds", "max err", "match"});

  for (std::size_t scale : {1u, 4u, 16u, 64u}) {
    auto seq = livermore::Workspace::standard(1997);
    auto par = livermore::Workspace::standard(1997);
    // Grow the grid by replicating rows.
    const std::size_t kn = 101 * scale;
    seq.loop_2d = kn;
    par.loop_2d = kn;
    seq.za = livermore::Grid(kn + 2, 7, 0.4);
    par.za = seq.za;
    seq.zz = livermore::Grid(kn + 2, 7, 0.5);
    par.zz = seq.zz;
    seq.y.resize(kn + 2, 0.3);
    par.y = seq.y;

    support::Stopwatch watch;
    livermore::kernel23_paper_fragment(seq);
    const double seq_ms = watch.lap() * 1e3;

    core::OrdinaryIrStats stats;
    core::OrdinaryIrOptions options;
    options.pool = &pool;
    options.stats = &stats;
    livermore::kernel23_fragment_parallel(par, options);
    const double par_ms = watch.lap() * 1e3;

    double max_err = 0.0;
    for (std::size_t i = 0; i < seq.za.data().size(); ++i) {
      max_err = std::max(max_err, std::fabs(seq.za.data()[i] - par.za.data()[i]));
    }
    table.add_row({std::to_string(kn), support::fmt_f(seq_ms, 3),
                   support::fmt_f(par_ms, 3), std::to_string(stats.rounds),
                   support::fmt_g(max_err, 2), max_err < 1e-6 ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("rounds grow as log(rows): the paper's 'calculated in O(log n) steps'\n");
  return 0;
}
