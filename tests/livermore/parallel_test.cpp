#include "livermore/parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/plan.hpp"
#include "livermore/kernels.hpp"

namespace ir::livermore {
namespace {

void expect_near(const std::vector<double>& a, const std::vector<double>& b,
                 std::size_t count, double tol) {
  ASSERT_GE(a.size(), count);
  ASSERT_GE(b.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_NEAR(a[i], b[i], tol * (1.0 + std::fabs(b[i]))) << "index " << i;
  }
}

TEST(LivermoreParallelTest, Kernel3ReductionMatches) {
  auto seq = Workspace::standard(100);
  auto par = Workspace::standard(100);
  const double expect = kernel03_inner_product(seq);
  const double actual = kernel03_parallel(par);
  EXPECT_NEAR(actual, expect, 1e-9 * (1.0 + std::fabs(expect)));
}

TEST(LivermoreParallelTest, Kernel5TridiagonalMatches) {
  auto seq = Workspace::standard(101);
  auto par = Workspace::standard(101);
  kernel05_tridiagonal(seq);
  kernel05_parallel(par);
  expect_near(par.x, seq.x, seq.loop_n, 1e-9);
}

TEST(LivermoreParallelTest, Kernel11FirstSumMatches) {
  auto seq = Workspace::standard(102);
  auto par = Workspace::standard(102);
  kernel11_first_sum(seq);
  kernel11_parallel(par);
  expect_near(par.x, seq.x, seq.loop_n, 1e-9);
}

TEST(LivermoreParallelTest, Kernel19LinearRecurrenceMatches) {
  auto seq = Workspace::standard(103);
  auto par = Workspace::standard(103);
  kernel19_linear_recurrence(seq);
  kernel19_parallel(par);
  expect_near(par.b5, seq.b5, seq.loop_n, 1e-7);
  EXPECT_NEAR(par.q, seq.q, 1e-7 * (1.0 + std::fabs(seq.q)));
}

TEST(LivermoreParallelTest, Kernel23FragmentMatches) {
  auto seq = Workspace::standard(104);
  auto par = Workspace::standard(104);
  kernel23_paper_fragment(seq);
  kernel23_fragment_parallel(par);
  expect_near(par.za.data(), seq.za.data(), seq.za.data().size(), 1e-8);
}

TEST(LivermoreParallelTest, Kernel23FragmentMatchesWithPool) {
  parallel::ThreadPool pool(4);
  core::OrdinaryIrOptions options;
  options.pool = &pool;
  auto seq = Workspace::standard(105);
  auto par = Workspace::standard(105);
  kernel23_paper_fragment(seq);
  kernel23_fragment_parallel(par, options);
  expect_near(par.za.data(), seq.za.data(), seq.za.data().size(), 1e-8);
}

TEST(LivermoreParallelTest, Kernel13PicMatchesExactly) {
  auto seq = Workspace::standard(106);
  auto par = Workspace::standard(106);
  kernel13_pic_2d(seq);
  kernel13_parallel(par);
  // Particle pushes are identical arithmetic: bitwise equality expected.
  EXPECT_EQ(par.p_k13.data(), seq.p_k13.data());
  // Histogram counts are small integers added to zero: exact too.
  EXPECT_EQ(par.h_k13.data(), seq.h_k13.data());
}

TEST(LivermoreParallelTest, Kernel14InspectorExecutorMatches) {
  auto seq = Workspace::standard(109);
  auto par = Workspace::standard(109);
  kernel14_pic_1d(seq);
  kernel14_parallel(par);
  // Particle phases are identical arithmetic; deposition is reassociated.
  EXPECT_EQ(par.xx, seq.xx);
  EXPECT_EQ(par.ir, seq.ir);
  expect_near(par.rh, seq.rh, seq.loop_n, 1e-9);
}

TEST(LivermoreParallelTest, Kernel14WithPoolMatches) {
  parallel::ThreadPool pool(4);
  auto seq = Workspace::standard(110);
  auto par = Workspace::standard(110);
  kernel14_pic_1d(seq);
  kernel14_parallel(par, &pool);
  expect_near(par.rh, seq.rh, seq.loop_n, 1e-9);
}

TEST(LivermoreParallelTest, Kernel13WithPoolMatches) {
  parallel::ThreadPool pool(4);
  auto seq = Workspace::standard(107);
  auto par = Workspace::standard(107);
  kernel13_pic_2d(seq);
  kernel13_parallel(par, &pool);
  EXPECT_EQ(par.h_k13.data(), seq.h_k13.data());
}

TEST(LivermoreParallelTest, Kernel21MatmulMatches) {
  auto seq = Workspace::standard(111);
  auto par = Workspace::standard(111);
  kernel21_matmul(seq);
  kernel21_parallel(par);
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < 13; ++j) {
      EXPECT_NEAR(par.px.at(i, j), seq.px.at(i, j),
                  1e-9 * (1.0 + std::fabs(seq.px.at(i, j))))
          << i << "," << j;
    }
  }
}

TEST(LivermoreParallelTest, Kernel24ArgMinMatches) {
  auto seq = Workspace::standard(112);
  auto par = seq;
  EXPECT_EQ(kernel24_parallel(par), kernel24_first_min(seq));
  // Forced unique minimum.
  auto seq2 = Workspace::standard(113);
  seq2.x[421] = -7.0;
  auto par2 = seq2;
  EXPECT_EQ(kernel24_parallel(par2), 421.0);
  EXPECT_EQ(kernel24_first_min(seq2), 421.0);
  // Tie: the FIRST minimum must win in both.
  auto seq3 = Workspace::standard(114);
  seq3.x[100] = -3.0;
  seq3.x[600] = -3.0;
  auto par3 = seq3;
  EXPECT_EQ(kernel24_parallel(par3), 100.0);
  EXPECT_EQ(kernel24_first_min(seq3), 100.0);
  // kAuto puts the chain on the kScan fold.
  EXPECT_EQ(core::compile_plan(kernel24_chain(par3.loop_n)).engine, core::PlanEngine::kScan);
}

TEST(LivermoreParallelTest, ScaledWorkspacesStillMatch) {
  for (std::size_t scale : {2u, 4u}) {
    auto seq = Workspace::standard(42, scale);
    auto par = Workspace::standard(42, scale);
    kernel05_tridiagonal(seq);
    kernel05_parallel(par);
    expect_near(par.x, seq.x, seq.loop_n, 1e-9);
  }
}

TEST(LivermoreParallelTest, ProcessorCapsDoNotChangeResults) {
  parallel::ThreadPool pool(4);
  auto seq = Workspace::standard(108);
  kernel05_tridiagonal(seq);
  for (std::size_t cap : {1u, 3u, 16u}) {
    auto par = Workspace::standard(108);
    core::OrdinaryIrOptions options;
    options.pool = &pool;
    options.processor_cap = cap;
    kernel05_parallel(par, options);
    expect_near(par.x, seq.x, seq.loop_n, 1e-9);
  }
}

}  // namespace
}  // namespace ir::livermore
