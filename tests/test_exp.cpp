// The owned softmax numerics (tensor/simd.hpp): exp_f32 checked on every
// float in [ln FLT_MIN, 0] against libm, its special values and pinned bit
// patterns, and softmax_row against its written reduction order.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "tensor/simd.hpp"

namespace {

using gnntrans::tensor::exp_f32;
using gnntrans::tensor::F32x4;
using gnntrans::tensor::softmax_row;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kMinArg = -87.33654022216796875f;  // exp_f32's cutoff, ln FLT_MIN
constexpr float kMaxArg = 88.72283172607421875f;

float exp1(float x) {
  const F32x4 v = {x, x, x, x};
  return exp_f32(v)[0];
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Distance in ULPs between two finite floats of the same sign.
std::uint32_t ulps(float a, float b) {
  const std::uint32_t ua = bits(a), ub = bits(b);
  return ua > ub ? ua - ub : ub - ua;
}

struct Sweep {
  std::uint32_t max_ulps = 0;
  std::uint64_t differing = 0;
  std::uint64_t count = 0;
};

/// exp_f32 against std::exp on the floats with bit patterns [lo, hi], four
/// lanes at a time.
Sweep sweep(std::uint32_t lo, std::uint32_t hi, std::uint32_t step = 1) {
  Sweep s;
  F32x4 x;
  int lanes = 0;
  auto flush = [&] {
    const F32x4 y = exp_f32(x);
    for (int l = 0; l < lanes; ++l) {
      const float ref = std::exp(x[l]);
      const std::uint32_t d = ulps(y[l], ref);
      s.max_ulps = std::max(s.max_ulps, d);
      s.differing += d != 0;
    }
    s.count += static_cast<std::uint64_t>(lanes);
    lanes = 0;
  };
  for (std::uint64_t u = lo; u <= hi; u += step) {
    x[lanes++] = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    if (lanes == 4) flush();
  }
  if (lanes) flush();
  return s;
}

class ExpF32Exhaustive : public ::testing::TestWithParam<int> {};

constexpr int kShards = 8;

// Every float in [ln FLT_MIN, -0], as sign-magnitude bit patterns from -0 up
// to the cutoff, split into kShards contiguous slices so ctest -j spreads them.
TEST_P(ExpF32Exhaustive, WithinTwoUlpOfLibm) {
  const std::uint32_t first = bits(-0.0f), last = bits(kMinArg);
  const std::uint32_t span = (last - first) / kShards + 1;
  const std::uint32_t lo = first + span * static_cast<std::uint32_t>(GetParam());
  const std::uint32_t hi = GetParam() == kShards - 1 ? last : lo + span - 1;
  const Sweep s = sweep(lo, hi);
  EXPECT_LE(s.max_ulps, 2u);
  RecordProperty("max_ulps", std::to_string(s.max_ulps));
  RecordProperty("differing", std::to_string(s.differing));
  RecordProperty("count", std::to_string(s.count));
}

INSTANTIATE_TEST_SUITE_P(Shards, ExpF32Exhaustive, ::testing::Range(0, kShards));

TEST(ExpF32, PositiveRangeSampleWithinTwoUlpOfLibm) {
  const Sweep s = sweep(bits(std::numeric_limits<float>::denorm_min()), bits(kMaxArg), 61);
  EXPECT_LE(s.max_ulps, 2u);
  EXPECT_GT(s.count, 10'000'000u);
}

TEST(ExpF32, ExactlyOneAtSignedZeros) {
  EXPECT_EQ(bits(exp1(0.0f)), bits(1.0f));
  EXPECT_EQ(bits(exp1(-0.0f)), bits(1.0f));
}

TEST(ExpF32, PlusZeroBelowTheCutoffAndAtMinusInf) {
  EXPECT_GE(exp1(kMinArg), std::numeric_limits<float>::min());
  for (const float x : {std::nextafter(kMinArg, -kInf), -87.5f, -103.0f, -104.0f, -1e30f,
                        std::numeric_limits<float>::lowest(), -kInf})
    EXPECT_EQ(bits(exp1(x)), 0u) << x;
}

TEST(ExpF32, OverflowAndNaN) {
  EXPECT_TRUE(std::isfinite(exp1(kMaxArg)));
  EXPECT_EQ(exp1(std::nextafter(kMaxArg, kInf)), kInf);
  EXPECT_EQ(exp1(1e30f), kInf);
  EXPECT_EQ(exp1(kInf), kInf);
  EXPECT_TRUE(std::isnan(exp1(std::numeric_limits<float>::quiet_NaN())));
}

TEST(ExpF32, LanesAreIndependent) {
  const F32x4 x = {-kInf, -1.0f, 0.0f, -50.0f};
  const F32x4 y = exp_f32(x);
  for (int l = 0; l < 4; ++l) EXPECT_EQ(bits(y[l]), bits(exp1(x[l]))) << l;
}

// Pinned output bits: a compiler flag that changes the arithmetic moves some
// of them. The last twelve inputs are ones where FMA contraction (-mfma with
// -ffp-contract=fast) moves the result by one ULP; -ffast-math moves nearly
// all of them.
TEST(ExpF32, GoldenBitPatterns) {
  const std::vector<std::pair<float, std::uint32_t>> golden = {
      {-1e-6f, 0x3F7FFFEFu},
      {-0.125f, 0x3F61EB51u},
      {-0.3f, 0x3F3DA643u},
      {-0.5f, 0x3F1B4598u},
      {-0.6931472f, 0x3F000000u},
      {-1.0f, 0x3EBC5AB2u},
      {-1.5f, 0x3E647C3Cu},
      {-2.0f, 0x3E0A9555u},
      {-3.14159f, 0x3D310131u},
      {-5.0f, 0x3BDCC9FFu},
      {-7.25f, 0x3A3A2AFFu},
      {-10.0f, 0x383E6BCEu},
      {-15.5f, 0x3447389Cu},
      {-20.0f, 0x310DA433u},
      {-33.3f, 0x2778B2EAu},
      {-42.0f, 0x2129B22Au},
      {-50.0f, 0x1B692BEBu},
      {-63.75f, 0x1182869Bu},
      {-75.0f, 0x095E884Fu},
      {-80.0f, 0x05BFECBAu},
      {-86.5f, 0x0113BC74u},
      {-87.3f, 0x0084C38Bu},
      {kMinArg, 0x00800026u},
      {0.5f, 0x3FD3094Cu},
      {1.0f, 0x402DF854u},
      {10.0f, 0x46AC14EEu},
      {50.0f, 0x638C881Fu},
      {88.0f, 0x7EF882B7u},
      {-0.0811869502f, 0x3F6C0996u},
      {-0.155082479f, 0x3F5B3966u},
      {-0.304522008f, 0x3F3CCB37u},
      {-3.7788074f, 0x3CBB2FC5u},
      {-11.4165211f, 0x3738C05Du},
      {-24.7605057f, 0x2D9B3782u},
      {-29.3377304f, 0x2A4C4ED8u},
      {-38.499958f, 0x23AF9E5Au},
      {-52.6130676f, 0x1988BFC9u},
      {-83.1840286f, 0x037E600Fu},
      {1.73317778f, 0x40B5134Fu},
      {57.953167f, 0x69433108u},
  };
  for (const auto& [x, expected] : golden)
    EXPECT_EQ(bits(exp1(x)), expected) << "x = " << x;
}

// ---- softmax_row against its written spec ----

/// The spec, element by element: max over the row, e_j = exp_f32(x_j - max),
/// lane sums l = j mod 4 in key order, (l0 + l1) + (l2 + l3), then e_j / sum.
std::vector<float> spec_softmax(const std::vector<float>& x) {
  float max_v = -kInf;
  for (const float v : x) max_v = std::max(max_v, v);
  std::vector<float> e(x.size());
  float lane[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (std::size_t j = 0; j < x.size(); ++j) {
    e[j] = exp1(x[j] - max_v);
    lane[j % 4] += e[j];
  }
  const float denom = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  for (float& v : e) v /= denom;
  return e;
}

TEST(SoftmaxRow, MatchesTheWrittenSpecBitwise) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> score(-30.0f, 30.0f);
  std::bernoulli_distribution masked(0.3);
  for (std::size_t m = 1; m <= 41; ++m)
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<float> x(m);
      for (float& v : x) v = masked(rng) ? -kInf : score(rng);
      x[rng() % m] = score(rng);  // at least one unmasked key
      const std::vector<float> expected = spec_softmax(x);
      std::vector<float> row = x;
      softmax_row(row.data(), m);
      for (std::size_t j = 0; j < m; ++j) {
        ASSERT_EQ(bits(row[j]), bits(expected[j])) << "m=" << m << " j=" << j;
        if (x[j] == -kInf) {
          ASSERT_EQ(bits(row[j]), 0u);
        }
      }
    }
}

}  // namespace
