// IR-parallelized Livermore kernels.
//
// These are the payoff of the paper: sequential Livermore loops transformed
// into O(log n)-round parallel programs *without data-dependence analysis
// beyond the (f, g, h) index maps*:
//
//   kernel 3   inner product        -> Möbius chain over a virtual q-cell
//   kernel 5   tri-diagonal         -> LinearIrLoop (x[i] = -z·x[i-1] + z·y)
//   kernel 11  first sum            -> LinearIrLoop
//   kernel 19  linear recurrence    -> LinearIrLoop over the carried stb5
//   kernel 23  2-D implicit hydro   -> SelfLinearIrLoop on the paper's
//                                      fragment (Section 3's worked example)
//   kernel 13  2-D PIC deposition   -> inspector/executor: the particle push
//                                      is embarrassingly parallel; the
//                                      histogram scatter becomes a
//                                      non-distinct-g GIR with op = +
//   kernel 24  first minimum        -> ordinary chain with op = ArgMin
//
// Every function takes the same workspace the sequential kernel takes and
// must produce identical results (tests compare element-wise, allowing only
// floating-point reassociation error).
#pragma once

#include "core/ordinary_ir.hpp"
#include "livermore/data.hpp"

namespace ir::livermore {

/// Kernel 3 (inner product) through the Möbius route.  Returns q.
double kernel03_parallel(Workspace& ws, const core::OrdinaryIrOptions& options = {});

/// Kernel 5 (tri-diagonal elimination) through the Möbius route.
double kernel05_parallel(Workspace& ws, const core::OrdinaryIrOptions& options = {});

/// Kernel 11 (first sum) through the Möbius route.
double kernel11_parallel(Workspace& ws, const core::OrdinaryIrOptions& options = {});

/// Kernel 19 (general linear recurrence, both sweeps) through the Möbius
/// route on the carried scalar chain.
double kernel19_parallel(Workspace& ws, const core::OrdinaryIrOptions& options = {});

/// The paper's loop-23 fragment through the self-referential Möbius form —
/// the Section-3 worked example ("thus, without using any data dependence
/// analysis techniques, we managed to parallelize the loop").
double kernel23_fragment_parallel(Workspace& ws,
                                  const core::OrdinaryIrOptions& options = {});

/// Kernel 13 (2-D PIC): parallel particle push, then the histogram
/// deposition as a general IR with repeated writes (non-distinct g).
double kernel13_parallel(Workspace& ws, parallel::ThreadPool* pool = nullptr);

/// Kernel 21 (matrix product): the px(i,j) accumulations are 325 independent
/// reduction chains interleaved by the k loop — modeled as ONE linear IR
/// over virtual accumulator cells (the "indexed, not one linear chain"
/// classification made constructive).
double kernel21_parallel(Workspace& ws, const core::OrdinaryIrOptions& options = {});

/// The ordinary-IR chain behind kernel 24: A[k] := A[k-1] ⊙ A[k] for
/// k = 1..n-1 over n cells.
core::OrdinaryIrSystem kernel24_chain(std::size_t n);

/// Kernel 24 (first-minimum location): kernel24_chain with ⊙ = ArgMin, which
/// keeps the earlier index on a tie.  kAuto routes the chain to the kScan
/// fold.
double kernel24_parallel(Workspace& ws);

/// Kernel 14 (1-D PIC): the two per-particle phases run as parallel loops;
/// the weighted charge deposition (rh[ir[k]] += w, rh[ir[k]+1] += w') is
/// recorded by an inspector (core/inspector.hpp) and executed as a general
/// IR — the full inspector/executor pattern on a data-dependent scatter.
double kernel14_parallel(Workspace& ws, parallel::ThreadPool* pool = nullptr);

}  // namespace ir::livermore
