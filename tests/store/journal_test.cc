#include "store/journal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "store/io.h"
#include "faulty_env.h"

// The write-ahead journal's crash matrix (docs/store.md "Session
// journal"). The valid-prefix invariant is tested exhaustively: the
// journal file is truncated at EVERY byte offset and recovery must
// come back with exactly the committed record prefix and a truncated
// tail — no crash window is special-cased. Plus the surrounding
// failure modes: bit rot at every region of a record, fsync failures
// degrading to undurable serving, torn checkpoint writes, a crash
// between the checkpoint rename and the journal truncate (the
// watermark window), and orphaned .tmp cleanup.
namespace zss::store {
namespace {

constexpr num::Index kWidth = 4;
constexpr std::uint64_t kFileHeader = 16;
constexpr std::uint64_t kRecHeader = 72;
constexpr std::uint64_t kUpdateSize = kRecHeader + 2 * kWidth * sizeof(float);

struct Rec {
  JournalRecordKind kind;
  std::uint64_t id;
  std::uint64_t gen;
  std::uint64_t steps;
  std::int64_t arrival;
  std::uint64_t dsteps;
  std::uint64_t digest;
  std::vector<float> h;
  std::vector<float> c;
};

/// A deterministic mixed-kind record sequence (payload and no-payload
/// records interleave so prefix boundaries land at varying offsets).
std::vector<Rec> make_records(int n) {
  std::vector<Rec> recs;
  for (int i = 0; i < n; ++i) {
    Rec r;
    r.id = static_cast<std::uint64_t>(100 + i % 3);
    r.gen = static_cast<std::uint64_t>(i % 2);
    r.steps = static_cast<std::uint64_t>(i);
    r.arrival = 1000 * i;
    r.dsteps = static_cast<std::uint64_t>(i);
    r.digest = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
    if (i % 3 == 2) {
      r.kind = JournalRecordKind::kCreate;
    } else {
      r.kind = JournalRecordKind::kUpdate;
      for (num::Index j = 0; j < kWidth; ++j) {
        r.h.push_back(0.25f * static_cast<float>(i + j));
        r.c.push_back(-0.5f * static_cast<float>(i) + static_cast<float>(j));
      }
    }
    recs.push_back(std::move(r));
  }
  return recs;
}

std::uint64_t size_of(const Rec& r) {
  return r.kind == JournalRecordKind::kUpdate ? kUpdateSize : kRecHeader;
}

void append_all(Journal& j, const std::vector<Rec>& recs) {
  for (const Rec& r : recs) {
    ASSERT_TRUE(j.append(r.kind, r.id, r.gen, r.steps, r.arrival, r.dsteps,
                         r.digest, r.h.empty() ? nullptr : r.h.data(),
                         r.c.empty() ? nullptr : r.c.data()));
    ASSERT_TRUE(j.commit());
  }
}

void expect_prefix(Journal& j, const std::vector<Rec>& recs,
                   std::size_t expect_n) {
  std::size_t i = 0;
  j.replay([&](const JournalRecord& r) {
    ASSERT_LT(i, expect_n) << "replayed past the valid prefix";
    const Rec& want = recs[i];
    EXPECT_EQ(r.kind, want.kind) << "record " << i;
    EXPECT_EQ(r.lsn, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(r.id, want.id);
    EXPECT_EQ(r.generation, want.gen);
    EXPECT_EQ(r.steps, want.steps);
    EXPECT_EQ(r.arrival_us, want.arrival);
    EXPECT_EQ(r.digest_steps, want.dsteps);
    EXPECT_EQ(r.digest, want.digest);
    if (want.kind == JournalRecordKind::kUpdate) {
      ASSERT_NE(r.h, nullptr);
      ASSERT_NE(r.c, nullptr);
      EXPECT_EQ(std::memcmp(r.h, want.h.data(), kWidth * sizeof(float)), 0)
          << "h payload bits differ at record " << i;
      EXPECT_EQ(std::memcmp(r.c, want.c.data(), kWidth * sizeof(float)), 0)
          << "c payload bits differ at record " << i;
    } else {
      EXPECT_EQ(r.h, nullptr);
    }
    ++i;
  });
  EXPECT_EQ(i, expect_n) << "valid prefix shorter than committed";
}

TEST(JournalTest, AppendCommitReopenReplaysEverythingBitExact) {
  MemEnv env;
  const auto recs = make_records(12);
  {
    Journal j(env, {.path = "j"}, kWidth);
    ASSERT_TRUE(j.ok());
    append_all(j, recs);
    EXPECT_EQ(j.appended(), recs.size());
  }
  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.recovered_records(), recs.size());
  EXPECT_EQ(j.truncated_tail_bytes(), 0u);
  EXPECT_EQ(j.recovered_max_arrival_us(), recs.back().arrival);
  expect_prefix(j, recs, recs.size());
}

// The tentpole matrix: crash at EVERY byte offset of the journal file.
// For each offset L, the file is cut to L bytes (what a torn write /
// power cut leaves) and recovery must yield exactly the record prefix
// that fits entirely within L, truncate the rest, and leave the
// journal writable.
TEST(JournalTest, KillAtEveryByteOffsetRecoversTheValidPrefix) {
  MemEnv golden_env;
  const auto recs = make_records(10);
  {
    Journal j(golden_env, {.path = "j"}, kWidth);
    append_all(j, recs);
  }
  const std::vector<std::uint8_t> full = *golden_env.bytes("j");

  // Prefix-sum record boundaries.
  std::vector<std::uint64_t> ends;  // file offset where record i ends
  std::uint64_t off = kFileHeader;
  for (const Rec& r : recs) {
    off += size_of(r);
    ends.push_back(off);
  }
  ASSERT_EQ(off, full.size()) << "layout drifted from the documented format";

  for (std::uint64_t cut = 0; cut <= full.size(); ++cut) {
    MemEnv env;
    {
      auto f = env.open("j", true);
      ASSERT_EQ(f->write_at(0, full.data(), cut), cut);
    }
    Journal j(env, {.path = "j"}, kWidth);
    ASSERT_TRUE(j.ok()) << "cut=" << cut;

    std::size_t expect_n = 0;
    while (expect_n < ends.size() && ends[expect_n] <= cut) ++expect_n;
    if (cut < kFileHeader) {
      // Crash inside the very first header write: an empty journal,
      // rewritten fresh.
      EXPECT_EQ(j.recovered_records(), 0u) << "cut=" << cut;
      EXPECT_EQ(j.file_bytes(), kFileHeader);
      expect_n = 0;
    } else {
      EXPECT_EQ(j.recovered_records(), expect_n) << "cut=" << cut;
      const std::uint64_t prefix_end =
          expect_n == 0 ? kFileHeader : ends[expect_n - 1];
      EXPECT_EQ(j.file_bytes(), prefix_end) << "cut=" << cut;
      EXPECT_EQ(j.truncated_tail_bytes(), cut - prefix_end) << "cut=" << cut;
    }
    {
      SCOPED_TRACE("cut=" + std::to_string(cut));
      expect_prefix(j, recs, expect_n);
    }

    // The recovered journal must still be writable, with LSNs
    // continuing past everything it has ever seen (never reused).
    ASSERT_TRUE(j.enabled());
    const Rec& extra = recs[0];
    ASSERT_TRUE(j.append(extra.kind, 999, 0, 1, 99'000, 1, 42,
                         extra.h.empty() ? nullptr : extra.h.data(),
                         extra.c.empty() ? nullptr : extra.c.data()));
    ASSERT_TRUE(j.commit());
  }
}

// Bit rot at every byte of one record: CRC catches it, the record and
// everything after it (valid-PREFIX semantics) are discarded, earlier
// records survive.
TEST(JournalTest, BitRotAtEveryByteOfARecordCutsThePrefixThere) {
  MemEnv golden_env;
  const auto recs = make_records(6);
  {
    Journal j(golden_env, {.path = "j"}, kWidth);
    append_all(j, recs);
  }
  const std::vector<std::uint8_t> full = *golden_env.bytes("j");

  // Rot every byte of record 3 (an update record with payload).
  std::uint64_t rec_start = kFileHeader;
  for (int i = 0; i < 3; ++i) rec_start += size_of(recs[i]);
  const std::uint64_t rec_end = rec_start + size_of(recs[3]);
  for (std::uint64_t off = rec_start; off < rec_end; ++off) {
    MemEnv env;
    {
      auto f = env.open("j", true);
      ASSERT_EQ(f->write_at(0, full.data(), full.size()), full.size());
    }
    (*env.bytes("j"))[off] ^= 0x40;
    Journal j(env, {.path = "j"}, kWidth);
    ASSERT_TRUE(j.ok());
    // Corruption in the LSN field can masquerade as a skippable or
    // larger LSN but never passes the CRC; whatever the field hit, the
    // prefix must stop at or before record 3 and include records 0..2.
    EXPECT_EQ(j.recovered_records(), 3u) << "rotten byte at " << off;
    {
      SCOPED_TRACE("rot at " + std::to_string(off));
      expect_prefix(j, recs, 3);
    }
  }

  // Rot in the FILE header with committed records behind it: starting
  // fresh would silently orphan all of them, so the journal refuses to
  // open and leaves the file byte-for-byte untouched for forensics.
  for (std::uint64_t off = 0; off < kFileHeader; ++off) {
    MemEnv env;
    {
      auto f = env.open("j", true);
      ASSERT_EQ(f->write_at(0, full.data(), full.size()), full.size());
    }
    std::vector<std::uint8_t> rotten = full;
    rotten[off] ^= 0x01;
    (*env.bytes("j"))[off] ^= 0x01;
    Journal j(env, {.path = "j"}, kWidth);
    EXPECT_FALSE(j.ok()) << "header rot at " << off;
    EXPECT_FALSE(j.open_error().empty()) << "header rot at " << off;
    EXPECT_EQ(*env.bytes("j"), rotten) << "file mutated at rot " << off;
  }

  // The same rot on a record-free journal (header only) is a torn
  // first write, not lost history: recovery starts fresh.
  for (std::uint64_t off = 0; off < kFileHeader; ++off) {
    MemEnv env;
    {
      auto f = env.open("j", true);
      ASSERT_EQ(f->write_at(0, full.data(), kFileHeader), kFileHeader);
    }
    (*env.bytes("j"))[off] ^= 0x01;
    Journal j(env, {.path = "j"}, kWidth);
    ASSERT_TRUE(j.ok()) << "header rot at " << off;
    EXPECT_EQ(j.recovered_records(), 0u);
    EXPECT_EQ(j.file_bytes(), kFileHeader);
  }
}

TEST(JournalTest, FsyncFailureDisablesJournalButKeepsCommittedPrefix) {
  MemEnv base;
  FaultInjectingEnv env(base);
  const auto recs = make_records(5);
  FaultyFile* jf = nullptr;
  env.on_open = [&](const std::string& name, FaultyFile& f) {
    if (name == "j") jf = &f;
  };
  {
    Journal j(env, {.path = "j", .max_write_attempts = 3}, kWidth);
    ASSERT_TRUE(j.ok());
    // Three committed records...
    for (int i = 0; i < 3; ++i) {
      const Rec& r = recs[static_cast<std::size_t>(i)];
      ASSERT_TRUE(j.append(r.kind, r.id, r.gen, r.steps, r.arrival, r.dsteps,
                           r.digest, r.h.empty() ? nullptr : r.h.data(),
                           r.c.empty() ? nullptr : r.c.data()));
      ASSERT_TRUE(j.commit());
    }
    // ...then the disk stops syncing: bounded retries, then degrade.
    ASSERT_NE(jf, nullptr);
    jf->fail_syncs(100);
    const Rec& r = recs[3];
    ASSERT_TRUE(j.append(r.kind, r.id, r.gen, r.steps, r.arrival, r.dsteps,
                         r.digest, r.h.empty() ? nullptr : r.h.data(),
                         r.c.empty() ? nullptr : r.c.data()));
    EXPECT_FALSE(j.commit()) << "a failed group commit must be reported";
    EXPECT_FALSE(j.enabled()) << "write-error policy must disable, not loop";
    EXPECT_GE(j.write_errors(), 3u);
    // Disabled journal refuses further work — undurable, not wedged.
    EXPECT_FALSE(j.append(r.kind, r.id, r.gen, r.steps, r.arrival, r.dsteps,
                          r.digest, r.h.empty() ? nullptr : r.h.data(),
                          r.c.empty() ? nullptr : r.c.data()));
  }
  // The three committed records survive; the unsynced fourth may too
  // (MemEnv kept its bytes) — recovery accepts any valid prefix, which
  // is allowed to exceed the committed prefix, never to fall short.
  Journal j(base, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_GE(j.recovered_records(), 3u);
}

TEST(JournalTest, TornAppendWriteDegradesAndLeavesRecoverableFile) {
  MemEnv base;
  FaultInjectingEnv env(base);
  FaultyFile* jf = nullptr;
  env.on_open = [&](const std::string& name, FaultyFile& f) {
    if (name == "j") jf = &f;
  };
  const auto recs = make_records(4);
  {
    Journal j(env, {.path = "j", .max_write_attempts = 2}, kWidth);
    append_all(j, recs);
    // The disk dies mid-record: the write tears, retries fail outright.
    jf->fail_after_written_bytes(jf->written_bytes() + 10);
    const Rec& r = recs[0];
    EXPECT_FALSE(j.append(r.kind, 7, 0, 1, 50'000, 1, 1,
                          r.h.empty() ? nullptr : r.h.data(),
                          r.c.empty() ? nullptr : r.c.data()));
    EXPECT_FALSE(j.enabled());
    EXPECT_GE(j.write_errors(), 2u);
  }
  Journal j(base, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.recovered_records(), recs.size())
      << "the torn suffix must not cost any committed record";
  expect_prefix(j, recs, recs.size());
}

TEST(JournalTest, CheckpointTruncatesAndWatermarkSkipsCoveredRecords) {
  MemEnv env;
  const auto recs = make_records(8);
  std::vector<CheckpointSession> sessions(1);
  sessions[0].id = 100;
  sessions[0].generation = 1;
  sessions[0].steps = 7;
  sessions[0].arrival_us = 7'000;
  sessions[0].h.assign(kWidth, 1.5f);
  sessions[0].c.assign(kWidth, -2.5f);
  std::vector<CheckpointDigest> digests(2);
  digests[0] = {100, 7, 0xabcdef01ULL};
  digests[1] = {101, 3, 0x12345678ULL};

  {
    Journal j(env, {.path = "j", .checkpoint_bytes = 64}, kWidth);
    append_all(j, recs);
    EXPECT_TRUE(j.wants_checkpoint());
    ASSERT_TRUE(j.checkpoint(sessions, digests));
    EXPECT_EQ(j.file_bytes(), kFileHeader) << "journal must truncate";
    EXPECT_FALSE(j.wants_checkpoint());
    // Two post-checkpoint records.
    const Rec& r = recs[0];
    ASSERT_TRUE(j.append(JournalRecordKind::kUpdate, 100, 1, 8, 8'000, 8, 9,
                         r.h.data(), r.c.data()));
    ASSERT_TRUE(j.append(JournalRecordKind::kErase, 101, 0, 3, 9'000, 3, 0));
    ASSERT_TRUE(j.commit());
  }

  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j.checkpoint_sessions().size(), 1u);
  const CheckpointSession& s = j.checkpoint_sessions()[0];
  EXPECT_EQ(s.id, 100u);
  EXPECT_EQ(s.generation, 1u);
  EXPECT_EQ(s.steps, 7u);
  EXPECT_EQ(s.arrival_us, 7'000);
  EXPECT_EQ(std::memcmp(s.h.data(), sessions[0].h.data(),
                        kWidth * sizeof(float)),
            0);
  ASSERT_EQ(j.checkpoint_digests().size(), 2u);
  EXPECT_EQ(j.checkpoint_digests()[1].id, 101u);
  EXPECT_EQ(j.checkpoint_digests()[1].digest, 0x12345678ULL);
  // Only the two post-watermark records replay; LSNs continue.
  EXPECT_EQ(j.recovered_records(), 2u);
  std::vector<std::uint64_t> lsns;
  j.replay([&](const JournalRecord& r) { lsns.push_back(r.lsn); });
  ASSERT_EQ(lsns.size(), 2u);
  EXPECT_EQ(lsns[0], recs.size() + 1);
  EXPECT_EQ(lsns[1], recs.size() + 2);
}

// The mid-compaction crash window the watermark exists for: the
// checkpoint rename committed, but the process died before the journal
// truncate. The stale journal suffix is entirely covered by the
// checkpoint and must be skipped, not double-applied.
TEST(JournalTest, CrashBetweenCheckpointRenameAndTruncateIsHarmless) {
  MemEnv env;
  const auto recs = make_records(6);
  std::vector<CheckpointSession> sessions;
  std::vector<CheckpointDigest> digests(1);
  digests[0] = {100, 6, 0xfeedULL};
  std::vector<std::uint8_t> pre_truncate_journal;
  {
    Journal j(env, {.path = "j", .checkpoint_bytes = 64}, kWidth);
    append_all(j, recs);
    pre_truncate_journal = *env.bytes("j");
    ASSERT_TRUE(j.checkpoint(sessions, digests));
  }
  // Resurrect the pre-truncate journal beside the committed checkpoint
  // — byte-exactly the crash-between state.
  *env.bytes("j") = pre_truncate_journal;

  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.recovered_records(), 0u)
      << "covered records replayed — absolute state double-applied";
  ASSERT_EQ(j.checkpoint_digests().size(), 1u);
  EXPECT_EQ(j.checkpoint_digests()[0].digest, 0xfeedULL);
  std::size_t replayed = 0;
  j.replay([&](const JournalRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
  // New appends continue past every LSN the stale suffix used.
  ASSERT_TRUE(j.append(JournalRecordKind::kErase, 1, 0, 0, 10'000, 0, 0));
  ASSERT_TRUE(j.commit());
  Journal j2(env, {.path = "j"}, kWidth);
  std::vector<std::uint64_t> lsns;
  j2.replay([&](const JournalRecord& r) { lsns.push_back(r.lsn); });
  ASSERT_EQ(lsns.size(), 1u);
  EXPECT_GT(lsns[0], recs.size());
}

TEST(JournalTest, TornCheckpointWriteKeepsJournalAuthoritative) {
  MemEnv base;
  FaultInjectingEnv env(base);
  env.on_open = [&](const std::string& name, FaultyFile& f) {
    if (name == "j.ckpt.tmp") f.fail_after_written_bytes(8);
  };
  const auto recs = make_records(5);
  Journal j(env, {.path = "j", .checkpoint_bytes = 64}, kWidth);
  append_all(j, recs);
  const std::uint64_t bytes_before = j.file_bytes();
  EXPECT_FALSE(j.checkpoint({}, {})) << "a torn checkpoint must not commit";
  EXPECT_TRUE(j.enabled()) << "a failed checkpoint is not a journal failure";
  EXPECT_EQ(j.file_bytes(), bytes_before) << "journal must stay untruncated";
  EXPECT_FALSE(base.exists("j.ckpt")) << "no partial checkpoint visible";

  // Everything still recovers from the journal alone.
  Journal j2(base, {.path = "j"}, kWidth);
  EXPECT_EQ(j2.recovered_records(), recs.size());
}

TEST(JournalTest, CorruptCheckpointIsDiscardedWholeNeverPartiallyApplied) {
  MemEnv env;
  const auto recs = make_records(6);
  std::vector<CheckpointDigest> digests(1);
  digests[0] = {100, 6, 0xfeedULL};
  {
    Journal j(env, {.path = "j", .checkpoint_bytes = 64}, kWidth);
    append_all(j, recs);
    ASSERT_TRUE(j.checkpoint({}, digests));
    ASSERT_TRUE(j.append(JournalRecordKind::kErase, 1, 0, 0, 10'000, 0, 0));
    ASSERT_TRUE(j.commit());
  }
  // One lazy bit flips in the checkpoint body.
  (*env.bytes("j.ckpt"))[20] ^= 0x80;

  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok()) << "corrupt checkpoint must degrade, never abort";
  EXPECT_EQ(j.checkpoint_corrupt(), 1u);
  EXPECT_TRUE(j.checkpoint_sessions().empty());
  EXPECT_TRUE(j.checkpoint_digests().empty());
  // With the watermark gone, the journal suffix replays on its own.
  EXPECT_EQ(j.recovered_records(), 1u);
}

TEST(JournalTest, OrphanedTmpFilesAreRemovedAndCounted) {
  MemEnv env;
  for (const char* name : {"j.tmp", "j.ckpt.tmp"}) {
    auto f = env.open(name, true);
    const char junk[] = "half-written checkpoint debris";
    ASSERT_EQ(f->write_at(0, junk, sizeof junk), sizeof junk);
  }
  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.orphans_removed(), 2u);
  EXPECT_FALSE(env.exists("j.tmp"));
  EXPECT_FALSE(env.exists("j.ckpt.tmp"));
}

TEST(JournalTest, WidthMismatchRefusesToOpenAndPreservesTheFile) {
  MemEnv env;
  const auto recs = make_records(4);
  {
    Journal j(env, {.path = "j"}, kWidth);
    append_all(j, recs);
  }
  const std::vector<std::uint8_t> before = *env.bytes("j");

  // A journal written at width 4 opened at width 8 is the same spill
  // dir under a different model — a configuration error, not
  // corruption. Truncating (the old behavior) would silently destroy
  // committed history; the journal must refuse and explain instead.
  {
    Journal j(env, {.path = "j"}, 2 * kWidth);
    EXPECT_FALSE(j.ok());
    EXPECT_FALSE(j.open_error().empty());
    EXPECT_NE(j.open_error().find("state_width"), std::string::npos);
    EXPECT_EQ(j.recovered_records(), 0u);
  }
  EXPECT_EQ(*env.bytes("j"), before) << "refused open must not mutate";

  // Reopened at the right width, every committed record is still there.
  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j.open_error().empty());
  EXPECT_EQ(j.recovered_records(), recs.size());
  expect_prefix(j, recs, recs.size());
}

TEST(JournalTest, CheckpointWidthMismatchAlsoRefusesToOpen) {
  MemEnv env;
  const auto recs = make_records(6);
  {
    Journal j(env, {.path = "j", .checkpoint_bytes = 1}, kWidth);
    append_all(j, recs);
    // Force a checkpoint so the durable history lives in j.ckpt.
    std::vector<CheckpointSession> sessions;
    CheckpointSession s;
    s.id = 7;
    s.h.assign(static_cast<std::size_t>(kWidth), 1.0f);
    s.c.assign(static_cast<std::size_t>(kWidth), 2.0f);
    sessions.push_back(std::move(s));
    ASSERT_TRUE(j.checkpoint(sessions, {}));
  }
  const std::vector<std::uint8_t> ckpt_before = *env.bytes("j.ckpt");

  // The checkpoint is CRC-valid, just the wrong shape: discarding it as
  // "corrupt" (and truncating on the next checkpoint) would erase the
  // committed population, so the open refuses outright.
  {
    Journal j(env, {.path = "j"}, 2 * kWidth);
    EXPECT_FALSE(j.ok());
    EXPECT_FALSE(j.open_error().empty());
    EXPECT_EQ(j.checkpoint_corrupt(), 0u)
        << "a healthy foreign checkpoint is not corruption";
  }
  EXPECT_EQ(*env.bytes("j.ckpt"), ckpt_before);

  // Right width: the checkpoint population is intact.
  Journal j(env, {.path = "j"}, kWidth);
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j.checkpoint_sessions().size(), 1u);
  EXPECT_EQ(j.checkpoint_sessions()[0].id, 7u);
}

}  // namespace
}  // namespace zss::store
