#include "store/segment_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "num/matrix.h"
#include "num/rng.h"
#include "store/io.h"
#include "faulty_env.h"

// Functional coverage of the durable spill tier (docs/store.md): exact
// fp32 round-trips (dense and offset-encoded, including the -0.0 dense
// fallback), latest-record-wins reopen recovery, erase/consume
// semantics, compaction (threshold-driven and TTL-expiring) and the
// write-error degradation policy. The byte-offset crash matrix lives
// in fault_injection_test.cc.
namespace zss::store {
namespace {

constexpr num::Index kDh = 24;

/// Deterministic state with the shapes the tier must preserve exactly:
/// pruned-style zeros in h, full-precision c, and odd-rounded values
/// whose bits would change under any lossy re-encode.
void fill_state(std::uint64_t seed, double zero_frac, num::Matrix& h,
                num::Matrix& c) {
  num::Rng rng(seed);
  h.resize(1, kDh);
  c.resize(1, kDh);
  for (num::Index j = 0; j < kDh; ++j) {
    h(0, j) = rng.uniform() < zero_frac
                  ? 0.0f
                  : static_cast<float>(rng.normal() * 0.37);
    c(0, j) = static_cast<float>(rng.normal() * 1.1);
  }
}

void expect_bits_equal(const num::Matrix& a, const num::Matrix& b) {
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0);
}

StoreConfig config(bool encoded = false) {
  StoreConfig cfg;
  cfg.path = "seg";
  cfg.encoded = encoded;
  return cfg;
}

TEST(SegmentStoreTest, DenseRoundTripIsBitExact) {
  MemEnv env;
  SegmentStore store(env, config(), kDh);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.spilling_enabled());

  num::Matrix h, c;
  fill_state(1, 0.7, h, c);
  const RecordMeta meta{/*generation=*/3, /*steps=*/41, /*arrival_us=*/900};
  ASSERT_TRUE(store.spill(7, meta, h, c));
  EXPECT_EQ(store.live_records(), 1u);
  ASSERT_NE(store.find(7), nullptr);
  EXPECT_EQ(store.find(7)->steps, 41u);

  num::Matrix h2, c2;
  RecordMeta got;
  ASSERT_EQ(store.restore_into(7, &got, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);
  expect_bits_equal(c, c2);
  EXPECT_EQ(got.generation, 3u);
  EXPECT_EQ(got.steps, 41u);
  EXPECT_EQ(got.arrival_us, 900);

  // Consumed: the RAM copy is authoritative again.
  EXPECT_EQ(store.find(7), nullptr);
  EXPECT_EQ(store.restore_into(7, nullptr, h2, c2), RestoreResult::kMissing);
  EXPECT_EQ(store.spilled(), 1u);
  EXPECT_EQ(store.restored(), 1u);
}

TEST(SegmentStoreTest, EncodedRoundTripShrinksAndStaysBitExact) {
  MemEnv env;
  SegmentStore sparse_store(env, config(/*encoded=*/true), kDh);
  num::Matrix h, c;
  fill_state(2, 0.85, h, c);  // very sparse h: encoding must shrink
  ASSERT_TRUE(sparse_store.spill(1, {}, h, c));
  EXPECT_EQ(sparse_store.spill_fallback_dense(), 0u);

  MemEnv dense_env;
  SegmentStore dense_store(dense_env, config(/*encoded=*/false), kDh);
  ASSERT_TRUE(dense_store.spill(1, {}, h, c));
  EXPECT_LT(sparse_store.file_bytes(), dense_store.file_bytes());

  num::Matrix h2, c2;
  ASSERT_EQ(sparse_store.restore_into(1, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);
  expect_bits_equal(c, c2);
}

TEST(SegmentStoreTest, NegativeZeroForcesDenseFallbackAndKeepsItsSign) {
  MemEnv env;
  SegmentStore store(env, config(/*encoded=*/true), kDh);
  num::Matrix h, c;
  fill_state(3, 0.8, h, c);
  h(0, 5) = -0.0f;  // the offset encoding would restore this as +0.0f
  ASSERT_TRUE(store.spill(9, {}, h, c));
  EXPECT_EQ(store.spill_fallback_dense(), 1u);

  num::Matrix h2, c2;
  ASSERT_EQ(store.restore_into(9, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);
  EXPECT_TRUE(std::signbit(h2(0, 5)));
  EXPECT_EQ(h2(0, 5), 0.0f);
}

TEST(SegmentStoreTest, DenseStatesFallBackWhenEncodingWouldNotShrink) {
  MemEnv env;
  SegmentStore store(env, config(/*encoded=*/true), kDh);
  num::Matrix h, c;
  fill_state(4, 0.0, h, c);  // no zeros: encoded form would be larger
  ASSERT_TRUE(store.spill(2, {}, h, c));
  EXPECT_EQ(store.spill_fallback_dense(), 1u);
  num::Matrix h2, c2;
  ASSERT_EQ(store.restore_into(2, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);
  expect_bits_equal(c, c2);
}

TEST(SegmentStoreTest, ReopenRecoversLatestRecordPerSession) {
  MemEnv env;
  num::Matrix h_old, c_old, h_new, c_new;
  fill_state(5, 0.6, h_old, c_old);
  fill_state(6, 0.6, h_new, c_new);
  {
    SegmentStore store(env, config(), kDh);
    ASSERT_TRUE(store.spill(11, {/*generation=*/0, /*steps=*/1, 100}, h_old,
                            c_old));
    ASSERT_TRUE(store.spill(12, {/*generation=*/0, /*steps=*/2, 110}, h_old,
                            c_old));
    // Supersede 11: the later record must win after reopen.
    ASSERT_TRUE(store.spill(11, {/*generation=*/1, /*steps=*/9, 200}, h_new,
                            c_new));
    EXPECT_GT(store.dead_bytes(), 0u);
  }
  SegmentStore reopened(env, config(), kDh);
  EXPECT_EQ(reopened.recovered_records(), 3u);
  EXPECT_EQ(reopened.live_records(), 2u);
  EXPECT_GT(reopened.dead_bytes(), 0u);

  num::Matrix h2, c2;
  RecordMeta meta;
  ASSERT_EQ(reopened.restore_into(11, &meta, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h_new, h2);
  EXPECT_EQ(meta.generation, 1u);
  EXPECT_EQ(meta.steps, 9u);
  ASSERT_EQ(reopened.restore_into(12, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h_old, h2);
}

TEST(SegmentStoreTest, MismatchedHiddenDimStartsFresh) {
  MemEnv env;
  num::Matrix h, c;
  fill_state(7, 0.5, h, c);
  {
    SegmentStore store(env, config(), kDh);
    ASSERT_TRUE(store.spill(1, {}, h, c));
  }
  // A store of a different width cannot serve these payloads; it must
  // start a fresh segment, not misinterpret them.
  SegmentStore other(env, config(), kDh + 8);
  EXPECT_TRUE(other.ok());
  EXPECT_EQ(other.recovered_records(), 0u);
  EXPECT_EQ(other.live_records(), 0u);
}

TEST(SegmentStoreTest, EraseDropsWithoutReading) {
  MemEnv env;
  SegmentStore store(env, config(), kDh);
  num::Matrix h, c;
  fill_state(8, 0.5, h, c);
  ASSERT_TRUE(store.spill(5, {}, h, c));
  store.erase(5);
  EXPECT_EQ(store.find(5), nullptr);
  EXPECT_GT(store.dead_bytes(), 0u);
  store.erase(5);  // idempotent
}

TEST(SegmentStoreTest, ExplicitCompactionDropsDeadAndExpired) {
  MemEnv env;
  SegmentStore store(env, config(), kDh);
  num::Matrix h, c;
  fill_state(9, 0.5, h, c);
  ASSERT_TRUE(store.spill(1, {/*generation=*/0, /*steps=*/1, /*arrival=*/10},
                          h, c));
  ASSERT_TRUE(store.spill(2, {/*generation=*/0, /*steps=*/1, /*arrival=*/500},
                          h, c));
  ASSERT_TRUE(store.spill(3, {/*generation=*/0, /*steps=*/1, /*arrival=*/900},
                          h, c));
  store.erase(3);
  const std::uint64_t before = store.file_bytes();

  // Drop the erased record and everything that arrived before t=100.
  ASSERT_TRUE(store.compact(/*expire_before_us=*/100));
  EXPECT_EQ(store.compactions(), 1u);
  EXPECT_LT(store.file_bytes(), before);
  EXPECT_EQ(store.dead_bytes(), 0u);
  EXPECT_EQ(store.live_records(), 1u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_EQ(store.find(3), nullptr);

  num::Matrix h2, c2;
  ASSERT_EQ(store.restore_into(2, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);

  // The store still appends fine on the post-compaction handle.
  ASSERT_TRUE(store.spill(4, {}, h, c));
  ASSERT_EQ(store.restore_into(4, nullptr, h2, c2), RestoreResult::kOk);
}

TEST(SegmentStoreTest, ThresholdCompactionTriggersUnderChurn) {
  MemEnv env;
  StoreConfig cfg = config();
  cfg.compact_min_bytes = 1024;  // small file, compaction must engage
  SegmentStore store(env, cfg, kDh);
  num::Matrix h, c;
  for (int i = 0; i < 200; ++i) {
    fill_state(static_cast<std::uint64_t>(100 + i), 0.5, h, c);
    // One session rewritten over and over: almost everything is dead.
    ASSERT_TRUE(store.spill(1, {0, static_cast<std::uint64_t>(i), 0}, h, c));
  }
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_EQ(store.live_records(), 1u);
  num::Matrix h2, c2;
  RecordMeta meta;
  ASSERT_EQ(store.restore_into(1, &meta, h2, c2), RestoreResult::kOk);
  EXPECT_EQ(meta.steps, 199u);  // the final write
  expect_bits_equal(h, h2);
  expect_bits_equal(c, c2);
}

TEST(SegmentStoreTest, WriteErrorPolicyRetriesThenDegradesToRamOnly) {
  MemEnv mem;
  FaultInjectingEnv env(mem);
  SegmentStore store(env, config(), kDh);
  num::Matrix h, c;
  fill_state(10, 0.5, h, c);
  ASSERT_TRUE(store.spill(1, {}, h, c));

  // Every further write tears at the current tail: all attempts fail.
  env.last_opened()->fail_after_written_bytes(
      env.last_opened()->written_bytes());
  num::Matrix h3, c3;
  fill_state(11, 0.5, h3, c3);
  EXPECT_FALSE(store.spill(2, {}, h3, c3));
  EXPECT_EQ(store.write_errors(), 3u);  // cfg default max_write_attempts
  EXPECT_FALSE(store.spilling_enabled());
  EXPECT_TRUE(store.ok());  // still readable, just not writable

  // Committed records survive the degradation and still restore.
  num::Matrix h2, c2;
  ASSERT_EQ(store.restore_into(1, nullptr, h2, c2), RestoreResult::kOk);
  expect_bits_equal(h, h2);
  // Further spills are refused outright, without burning retries.
  EXPECT_FALSE(store.spill(3, {}, h3, c3));
  EXPECT_EQ(store.write_errors(), 3u);
}

TEST(SegmentStoreTest, CorruptRecordDegradesToMissingNotAbort) {
  MemEnv env;
  SegmentStore store(env, config(), kDh);
  num::Matrix h, c;
  fill_state(12, 0.5, h, c);
  ASSERT_TRUE(store.spill(1, {}, h, c));

  // Bit rot in the payload, after the record was committed and indexed.
  std::vector<std::uint8_t>* bytes = env.bytes("seg");
  ASSERT_NE(bytes, nullptr);
  bytes->back() ^= 0x40;

  num::Matrix h2(1, kDh, 123.0f), c2(1, kDh, 123.0f);
  ASSERT_EQ(store.restore_into(1, nullptr, h2, c2), RestoreResult::kCorrupt);
  EXPECT_EQ(store.restore_corrupt(), 1u);
  EXPECT_EQ(h2(0, 0), 123.0f) << "corrupt restore must not touch outputs";
  // Dropped: the next lookup is a plain miss.
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_EQ(store.restore_into(1, nullptr, h2, c2), RestoreResult::kMissing);
}

TEST(SegmentStoreTest, ShortReadOnRestoreCountsAsCorrupt) {
  MemEnv mem;
  FaultInjectingEnv env(mem);
  SegmentStore store(env, config(), kDh);
  num::Matrix h, c;
  fill_state(13, 0.5, h, c);
  ASSERT_TRUE(store.spill(1, {}, h, c));
  env.last_opened()->short_next_read(10);
  num::Matrix h2, c2;
  EXPECT_EQ(store.restore_into(1, nullptr, h2, c2), RestoreResult::kCorrupt);
  EXPECT_EQ(store.restore_corrupt(), 1u);
}

TEST(SegmentStoreTest, LeftoverCompactionTmpIsDeletedOnOpen) {
  MemEnv env;
  {
    auto tmp = env.open("seg.tmp", /*truncate_existing=*/true);
    const char junk[] = "incomplete compaction";
    tmp->write_at(0, junk, sizeof junk);
  }
  num::Matrix h, c;
  fill_state(14, 0.5, h, c);
  {
    SegmentStore store(env, config(), kDh);
    ASSERT_TRUE(store.spill(1, {}, h, c));
  }
  EXPECT_FALSE(env.exists("seg.tmp"));
}

}  // namespace
}  // namespace zss::store
