// Write-ahead session journal — the durability layer that turns the
// durable *tier* (store/segment_store.h) into a durable *server*.
//
// PR 6 made evicted sessions crash-safe; a kill -9 still vaporized
// every RAM-resident session. A Journal logs every committed session
// state transition of one shard — create, post-batch h/c update, TTL
// reset, evict-to-spill, erase — as CRC32C-framed records appended to
// "<path>", so a restarted server replays the valid prefix and
// reconstructs the shard's full session population (and its per-session
// digest table) exactly as the crashed instance last committed it.
//
// One journal belongs to one shard (the shared-nothing discipline of
// SessionStore and SegmentStore carries through), and reuses the same
// injectable Env/File I/O so the fault matrix drives every byte offset
// deterministically.
//
// On-disk format (host little-endian; docs/store.md "Session journal"):
//
//   file header   16 B  magic "ZSSJNL1\0" | u32 state_width | u32 crc32c
//   record        72 B header + payload
//     u32 crc          CRC32C over header bytes [4..72) + payload
//     u32 kind         RecordKind below
//     u64 lsn          strictly increasing, never reused after truncation
//     u64 session id
//     u64 generation
//     u64 steps
//     i64 arrival_us
//     u64 digest_steps rolling per-session digest after this update
//     u64 digest
//     u32 payload_len  0, or 2 * state_width * 4 for kUpdate
//     u32 reserved     zero
//   payload (kUpdate only)
//     state_width f32 of packed h, then state_width f32 of packed c
//
// Checkpoint + truncate compaction: once the journal exceeds
// JournalConfig::checkpoint_bytes the owner serializes the shard's
// entire live state (sessions in LRU order plus the full digest table)
// into "<path>.ckpt" via the tmp+sync+rename pattern, then truncates
// the journal back to its header. The checkpoint stores the LSN of the
// last record it covers; recovery replays only records with a larger
// LSN. That watermark is what makes the checkpoint/truncate window
// crash-safe even though records carry absolute (non-idempotent with
// respect to ordering) state: a crash after the rename but before the
// truncate replays an already-covered suffix whose every record is
// skipped by LSN.
//
// Invariants (tests/store/journal_test.cc, every-byte-offset matrix):
//  * Valid prefix: a record is committed once append + commit() (sync)
//    returned true. Reopening after a crash at ANY byte offset of the
//    write path recovers every committed record and truncates the torn
//    tail.
//  * A corrupt checkpoint (CRC mismatch, torn write) is discarded whole
//    — recovery degrades to replaying the journal alone and counts it
//    in checkpoint_corrupt(); never an abort, never a partial apply.
//  * Write errors: bounded retries, then the journal disables itself
//    (enabled() == false) and the shard keeps serving undurably —
//    surfaced in stats, not thrown. Exactly SegmentStore's policy.
//  * A leftover "<path>.tmp" / "<path>.ckpt.tmp" is an incomplete
//    checkpoint that never reached its rename; it is deleted on open
//    (orphans_removed() counts them for the startup diagnostics).
//  * A journal (or checkpoint) whose header carries a different
//    state_width is a configuration error — the same spill dir opened
//    under a different model — not corruption. Opening REFUSES
//    (ok() == false, open_error() explains) and leaves every byte on
//    disk untouched, instead of truncating committed history.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "num/types.h"
#include "store/io.h"

namespace zss::store {

/// Group-commit fsync policy. kBatch syncs once per commit() call (the
/// shard calls it at every batch boundary, before responses are
/// delivered — so every client-visible response is durable). kNone
/// never syncs: the OS decides, and the crash-consistency guarantee
/// weakens to "whatever the kernel flushed" (still torn-tail-safe).
enum class JournalSync { kBatch, kNone };

struct JournalConfig {
  /// Journal file path; the checkpoint lives at "<path>.ckpt" and both
  /// use "<...>.tmp" staging beside them.
  std::string path;
  JournalSync sync = JournalSync::kBatch;
  /// Write attempts per append/commit before the journal disables
  /// itself.
  int max_write_attempts = 3;
  /// Journal bytes past which wants_checkpoint() turns true. The owner
  /// checkpoints at a batch boundary, never mid-batch.
  std::uint64_t checkpoint_bytes = std::uint64_t{4} << 20;
};

/// One logged session transition, also the unit recovery replays.
enum class JournalRecordKind : std::uint32_t {
  kCreate = 1,    // session born fresh (zero state) at arrival_us
  kUpdate = 2,    // post-batch absolute state: h/c payload + digest
  kTtlReset = 3,  // resident session restarted from zero, new generation
  kEvict = 4,     // evicted to the spill tier (segment record exists)
  kErase = 5,     // gone entirely (sweep, or eviction without spill)
};

/// A recovered record, handed to the replay visitor in LSN order.
/// `h`/`c` point into the journal's scratch buffer (state_width floats
/// each) and are valid only during the visit; null for payload-less
/// kinds.
struct JournalRecord {
  JournalRecordKind kind = JournalRecordKind::kCreate;
  std::uint64_t lsn = 0;
  std::uint64_t id = 0;
  std::uint64_t generation = 0;
  std::uint64_t steps = 0;
  std::int64_t arrival_us = 0;
  std::uint64_t digest_steps = 0;
  std::uint64_t digest = 0;
  const float* h = nullptr;
  const float* c = nullptr;
};

/// One session serialized into (or out of) a checkpoint. Checkpoints
/// are rare and whole-shard, so plain owning vectors are fine here —
/// the append hot path never touches this type.
struct CheckpointSession {
  std::uint64_t id = 0;
  std::uint64_t generation = 0;
  std::uint64_t steps = 0;
  std::int64_t arrival_us = 0;
  std::vector<float> h;  // state_width floats
  std::vector<float> c;
};

/// One digest-table entry serialized into (or out of) a checkpoint.
struct CheckpointDigest {
  std::uint64_t id = 0;
  std::uint64_t steps = 0;
  std::uint64_t digest = 0;
};

class Journal {
 public:
  /// Opens (or creates) the journal at cfg.path via `env` and runs
  /// recovery: orphaned .tmp files removed, the checkpoint loaded and
  /// CRC-verified, the journal's valid prefix scanned and the torn
  /// tail truncated. `env` must outlive the journal. Never throws;
  /// ok() reports whether the journal is usable.
  Journal(Env& env, JournalConfig cfg, num::Index state_width);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Non-empty when the constructor refused to open the file rather
  /// than risk destroying committed history (state_width mismatch, or
  /// header bit rot ahead of live records). ok() is false; the file is
  /// untouched. Plain open failures (unreachable path) leave this
  /// empty — they degrade to undurable serving as before.
  const std::string& open_error() const { return open_error_; }

  /// False once the write-error policy has tripped (or open failed);
  /// the owner keeps serving without durability.
  bool enabled() const { return ok() && !disabled_; }

  /// Append one transition. `h`/`c` (state_width floats each) are
  /// required for kUpdate and ignored otherwise. The record is staged
  /// in the file but NOT durable until commit() — callers must not
  /// deliver a response that depends on it before commit() returns
  /// true. False = the journal just disabled itself.
  bool append(JournalRecordKind kind, std::uint64_t id,
              std::uint64_t generation, std::uint64_t steps,
              std::int64_t arrival_us, std::uint64_t digest_steps,
              std::uint64_t digest, const float* h = nullptr,
              const float* c = nullptr);

  /// Group-commit barrier: syncs everything appended since the last
  /// commit (kBatch) or is a no-op (kNone). True when every append
  /// since the last commit is durable.
  bool commit();

  /// True once the journal grew past checkpoint_bytes; the owner
  /// should checkpoint() at the next batch boundary.
  bool wants_checkpoint() const {
    return enabled() && tail_ > cfg_.checkpoint_bytes;
  }

  /// Serializes the shard's entire live state to "<path>.ckpt"
  /// (tmp+sync+rename) with the current LSN watermark, then truncates
  /// the journal to its header. `sessions` must be in LRU order, least
  /// recently used first, so recovery can rebuild the exact LRU list.
  /// False on I/O failure (the previous checkpoint and journal stay
  /// authoritative).
  bool checkpoint(const std::vector<CheckpointSession>& sessions,
                  const std::vector<CheckpointDigest>& digests);

  /// Recovery output, populated at construction: the checkpoint's
  /// sessions/digests (empty when none), then replay() for the journal
  /// suffix. recover_into-style consumers should take these, apply the
  /// replay visitor, then clear_recovered() to drop the memory.
  const std::vector<CheckpointSession>& checkpoint_sessions() const {
    return ckpt_sessions_;
  }
  const std::vector<CheckpointDigest>& checkpoint_digests() const {
    return ckpt_digests_;
  }

  /// Streams the recovered journal records (LSN > checkpoint watermark,
  /// valid prefix only) through `fn` in file order == LSN order.
  void replay(const std::function<void(const JournalRecord&)>& fn);

  /// Drops the recovery buffers once the owner has applied them.
  void clear_recovered();

  num::Index state_width() const { return width_; }
  std::uint64_t file_bytes() const { return tail_; }
  /// Newest arrival stamp across the checkpoint and every recovered
  /// record — the floor a restarted server must stamp new arrivals
  /// above to keep per-shard arrivals monotone.
  std::int64_t recovered_max_arrival_us() const { return max_arrival_us_; }

  /// Lifetime counters (monotone).
  std::uint64_t appended() const { return appended_; }
  std::uint64_t commits() const { return commits_; }
  std::uint64_t write_errors() const { return write_errors_; }
  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t recovered_records() const { return recovered_records_; }
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }
  std::uint64_t checkpoint_corrupt() const { return checkpoint_corrupt_; }
  /// Orphaned .tmp files removed on open — a crashed instance's debris,
  /// surfaced so startup can tell the operator recovery ran.
  std::uint64_t orphans_removed() const { return orphans_removed_; }

 private:
  bool write_file_header();
  void recover();
  bool load_checkpoint();
  void disable() { disabled_ = true; }

  Env& env_;
  JournalConfig cfg_;
  num::Index width_;
  std::unique_ptr<File> file_;
  std::string open_error_;
  std::uint64_t tail_ = 0;     // append offset == valid-prefix length
  std::uint64_t next_lsn_ = 1;
  std::uint64_t watermark_lsn_ = 0;  // checkpoint covers LSNs <= this
  bool disabled_ = false;
  bool dirty_ = false;  // appends since the last successful commit
  std::vector<std::uint8_t> scratch_;
  std::vector<float> replay_state_;  // h/c staging for the replay visitor

  std::vector<CheckpointSession> ckpt_sessions_;
  std::vector<CheckpointDigest> ckpt_digests_;
  std::int64_t max_arrival_us_ = 0;

  std::uint64_t appended_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t recovered_records_ = 0;
  std::uint64_t truncated_tail_bytes_ = 0;
  std::uint64_t checkpoint_corrupt_ = 0;
  std::uint64_t orphans_removed_ = 0;
};

}  // namespace zss::store
