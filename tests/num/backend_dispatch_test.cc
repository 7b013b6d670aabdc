// Backend registry and runtime-dispatch behaviour: selection priority,
// the ZSS_KERNEL_BACKEND override, fallback-with-warning for unknown or
// unavailable names, and cross-backend agreement of sparse_accum_rows
// on the degenerate kept-row sets (empty / full / singleton) that the
// vector tails and skip branches must get right. The numeric contract
// every backend is held to is docs/exactness.md.
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "num/activations.h"
#include "num/kernels.h"
#include "num/reference_kernels.h"
#include "num/rng.h"
#include "num/simd/backend.h"

namespace zss::num::simd {
namespace {

class BackendDispatchTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("ZSS_KERNEL_BACKEND");
    set_backend_for_testing(nullptr);  // drop cache; next use re-resolves
  }
};

TEST_F(BackendDispatchTest, RegistryListsAllFourBackendsUniformly) {
  std::vector<std::string> names;
  for (const KernelBackend* b : registered_backends()) {
    names.push_back(b->name);
    ASSERT_NE(b->description, nullptr);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"avx512", "avx2", "neon",
                                             "scalar"}));
}

TEST_F(BackendDispatchTest, ScalarIsAlwaysAvailableAndImplemented) {
  EXPECT_TRUE(kScalarBackend.usable());
  const auto available = available_backends();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.back(), &kScalarBackend);
}

TEST_F(BackendDispatchTest, Avx512IsARegisteredStub) {
  EXPECT_FALSE(kAvx512Backend.implemented());
  EXPECT_FALSE(kAvx512Backend.usable());
}

TEST_F(BackendDispatchTest, AutoSelectionPicksHighestPriorityAvailable) {
  std::string warning;
  const KernelBackend& chosen = resolve_backend(nullptr, &warning);
  EXPECT_TRUE(warning.empty());
  EXPECT_EQ(&chosen, available_backends().front());
  // Empty string means auto-select too.
  EXPECT_EQ(&resolve_backend("", &warning), &chosen);
}

TEST_F(BackendDispatchTest, ExplicitNameSelectsThatBackend) {
  std::string warning;
  const KernelBackend& chosen = resolve_backend("scalar", &warning);
  EXPECT_EQ(&chosen, &kScalarBackend);
  EXPECT_TRUE(warning.empty());
}

TEST_F(BackendDispatchTest, UnknownNameFallsBackToScalarWithWarning) {
  std::string warning;
  const KernelBackend& chosen = resolve_backend("avx9000", &warning);
  EXPECT_EQ(&chosen, &kScalarBackend);
  EXPECT_NE(warning.find("unknown kernel backend 'avx9000'"),
            std::string::npos)
      << warning;
  EXPECT_NE(warning.find("scalar"), std::string::npos) << warning;
}

TEST_F(BackendDispatchTest, UnavailableNameFallsBackToScalarWithWarning) {
  // avx512 is a registered stub everywhere, so this path is portable.
  std::string warning;
  const KernelBackend& chosen = resolve_backend("avx512", &warning);
  EXPECT_EQ(&chosen, &kScalarBackend);
  EXPECT_NE(warning.find("avx512"), std::string::npos) << warning;
  EXPECT_FALSE(warning.empty());
}

TEST_F(BackendDispatchTest, EnvVarOverridesActiveBackend) {
  setenv("ZSS_KERNEL_BACKEND", "scalar", 1);
  set_backend_for_testing(nullptr);  // force re-resolution from env
  EXPECT_STREQ(active_backend().name, "scalar");
}

TEST_F(BackendDispatchTest, EnvVarWithUnknownNameStillYieldsScalar) {
  setenv("ZSS_KERNEL_BACKEND", "definitely-not-a-backend", 1);
  set_backend_for_testing(nullptr);
  EXPECT_STREQ(active_backend().name, "scalar");
}

// --- int8 slot uniformity and the missing-slot fallback ---------------

TEST_F(BackendDispatchTest, Int8SlotsAreAllOrNothingPerBackend) {
  // A backend either fills all three int8 slots or none: the per-call
  // fallback in num/kernels.cc switches the whole int8 table at once,
  // so a half-filled registration would silently mix schedules (legal
  // bitwise, but a registration bug worth failing loudly on).
  for (const KernelBackend* b : registered_backends()) {
    const bool any = b->gemm_a_bt_i8 != nullptr ||
                     b->sparse_accum_rows_i8 != nullptr ||
                     b->sparse_accum_rows_multi_i8 != nullptr;
    if (any) {
      EXPECT_NE(b->gemm_a_bt_i8, nullptr) << b->name;
      EXPECT_NE(b->sparse_accum_rows_i8, nullptr) << b->name;
      EXPECT_NE(b->sparse_accum_rows_multi_i8, nullptr) << b->name;
      EXPECT_TRUE(b->implemented_i8()) << b->name;
    } else {
      EXPECT_FALSE(b->implemented_i8()) << b->name;
    }
  }
  // Every *implemented* backend in this repo carries the int8 table;
  // only the avx512 stub is allowed to lack it.
  for (const KernelBackend* b : registered_backends()) {
    if (b->implemented()) {
      EXPECT_TRUE(b->implemented_i8()) << b->name;
    }
  }
}

TEST_F(BackendDispatchTest, ImplementedBackendsCarryTheActivationSlots) {
  for (const KernelBackend* b : registered_backends()) {
    EXPECT_EQ(b->sigmoid != nullptr, b->tanh != nullptr) << b->name;
    if (b->implemented()) {
      EXPECT_TRUE(b->implemented_activations()) << b->name;
    }
  }
}

TEST_F(BackendDispatchTest, MissingActivationSlotsFallBackToScalar) {
  KernelBackend gutted = kScalarBackend;
  gutted.name = "gutted-no-activations";
  gutted.sigmoid = nullptr;
  gutted.tanh = nullptr;
  ASSERT_FALSE(gutted.implemented_activations());
  set_backend_for_testing(&gutted);
  const std::vector<float> x = {-3.0f, -0.5f, 0.0f, 0.25f, 4.0f};
  std::vector<float> s(x.size());
  std::vector<float> t(x.size());
  num::sigmoid(x, s);  // must not dispatch through a null slot
  num::tanh_act(x, t);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(s[k], num::sigmoid(x[k]));
    EXPECT_EQ(t[k], num::tanh_act(x[k]));
  }
}

TEST_F(BackendDispatchTest, MissingInt8SlotsFallBackToScalarNotCrash) {
  // Regression: an env-overridden (or future) backend that predates the
  // int8 slots leaves them nullptr. The int8 entry points must degrade
  // to the scalar table per call — never dispatch through a null slot.
  KernelBackend gutted = kScalarBackend;  // available + fp32-complete
  gutted.name = "gutted-no-int8";
  gutted.gemm_a_bt_i8 = nullptr;
  gutted.sparse_accum_rows_i8 = nullptr;
  gutted.sparse_accum_rows_multi_i8 = nullptr;
  ASSERT_TRUE(gutted.implemented());
  ASSERT_FALSE(gutted.implemented_i8());
  set_backend_for_testing(&gutted);

  Rng rng(4242);
  const Index dh = 19;
  const Index batch = 3;
  MatrixI8 a(batch, dh);
  MatrixI8 b(4 * dh, dh);
  for (std::int8_t& v : a.flat()) {
    v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  }
  for (std::int8_t& v : b.flat()) {
    v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  }
  MatrixI32 got;
  gemm_a_bt_i8(a, b, got);  // must not crash
  MatrixI32 want;
  reference::gemm_a_bt_i8(a, b, want);
  ASSERT_TRUE(got.same_shape(want));
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.size()) *
                            sizeof(std::int32_t)),
            0);

  const std::vector<Index> positions{0, 7, dh - 1};
  std::vector<std::int8_t> values;
  for (std::size_t e = 0; e < positions.size(); ++e) {
    for (Index lane = 0; lane < batch; ++lane) {
      values.push_back(static_cast<std::int8_t>(rng.uniform(-127.0, 128.0)));
    }
  }
  MatrixI32 out(batch, 4 * dh, 0);
  MatrixI32 out_ref(batch, 4 * dh, 0);
  MatrixI8 packed(dh, 4 * dh);
  for (std::int8_t& v : packed.flat()) {
    v = static_cast<std::int8_t>(rng.uniform(-127.0, 128.0));
  }
  sparse_accum_rows_i8(packed, positions, values, out);
  reference::sparse_accum_rows_i8(packed, positions, values, out_ref);
  EXPECT_EQ(std::memcmp(out.data(), out_ref.data(),
                        static_cast<std::size_t>(out.size()) *
                            sizeof(std::int32_t)),
            0);

  std::vector<Index> csr_positions;
  std::vector<Index> row_start{0};
  std::vector<std::int8_t> csr_values;
  for (Index lane = 0; lane < batch; ++lane) {
    for (Index j = lane; j < dh; j += 2) {
      csr_positions.push_back(j);
      csr_values.push_back(
          static_cast<std::int8_t>(rng.uniform(-127.0, 128.0)));
    }
    row_start.push_back(static_cast<Index>(csr_positions.size()));
  }
  out.fill(0);
  out_ref.fill(0);
  sparse_accum_rows_multi_i8(packed, csr_positions, row_start, csr_values,
                             out);
  reference::sparse_accum_rows_multi_i8(packed, csr_positions, row_start,
                                        csr_values, out_ref);
  EXPECT_EQ(std::memcmp(out.data(), out_ref.data(),
                        static_cast<std::size_t>(out.size()) *
                            sizeof(std::int32_t)),
            0);
}

// --- cross-backend agreement on degenerate kept-row sets --------------

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0);
}

class SparseAccumKeptSetsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_backend_for_testing(nullptr); }

  // Runs sparse_accum_rows under every available backend and against
  // the reference loops; all results must agree bit for bit.
  void check(std::span<const Index> positions, Index batch) {
    Rng rng(991);
    const Index dh = 37;  // odd on purpose: exercises every vector tail
    const Matrix packed = random_matrix(dh, 4 * dh, rng);
    std::vector<float> values;
    for (std::size_t e = 0; e < positions.size(); ++e) {
      for (Index b = 0; b < batch; ++b) {
        values.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
    const Matrix start(batch, 4 * dh, 0.25f);
    Matrix expected = start;
    reference::sparse_accum_rows(packed, positions, values, expected);
    for (const KernelBackend* backend : available_backends()) {
      set_backend_for_testing(backend);
      Matrix out = start;
      sparse_accum_rows(packed, positions, values, out);
      SCOPED_TRACE(backend->name);
      expect_bitwise_equal(out, expected);
    }
  }
};

TEST_F(SparseAccumKeptSetsTest, EmptyKeptSetLeavesOutputUntouched) {
  check({}, 1);
  check({}, 5);
}

TEST_F(SparseAccumKeptSetsTest, SingletonKeptSet) {
  const std::vector<Index> one{17};
  check(one, 1);
  check(one, 5);
}

TEST_F(SparseAccumKeptSetsTest, FullKeptSetEqualsDenseAccumulation) {
  std::vector<Index> all;
  for (Index j = 0; j < 37; ++j) all.push_back(j);
  check(all, 1);
  check(all, 5);
}

}  // namespace
}  // namespace zss::num::simd
