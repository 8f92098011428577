// Input shapes shared by the irbench workloads.  The random systems come
// from bench/testing_workloads.hpp, the generators the repository's own
// benches use; the structured ones are the paper's two running examples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/ir_problem.hpp"
#include "testing_workloads.hpp"

namespace irbench {

/// The serving tier's modulus (irserve's default): every u64 workload
/// solves with ModMul over it.
inline constexpr std::uint64_t kModulus = 1'000'000'007ull;

/// X[i+1] := X[i] ⊙ X[i+1], i in [0, n): every iteration reads what the
/// previous one wrote (f(i) = i-1 in writer terms), the kScan route.
inline ir::core::OrdinaryIrSystem chain_system(std::size_t n) {
  ir::core::OrdinaryIrSystem sys;
  sys.cells = n + 1;
  sys.f.resize(n);
  sys.g.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.f[i] = i;
    sys.g[i] = i + 1;
  }
  return sys;
}

/// A[i+2] := A[i+1] · A[i] (the paper's Fibonacci-power example), shifted
/// up by `pad` untouched cells so that systems of one length still differ.
inline ir::core::GeneralIrSystem fib_system(std::size_t n, std::size_t pad) {
  ir::core::GeneralIrSystem sys;
  sys.cells = n + 2 + pad;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(pad + i + 1);
    sys.g.push_back(pad + i + 2);
    sys.h.push_back(pad + i);
  }
  return sys;
}

}  // namespace irbench
