// Durable spill tier — an append-only segment file of checksummed
// session-state records plus an in-memory index.
//
// The serving layer's LRU cap used to be a *forget* policy: evicting a
// session destroyed its h/c state. With a SegmentStore attached
// (serve/session.h::SessionStore::set_spill) it becomes a *tiering*
// policy: the victim's state is appended here on eviction and read
// back, bit-for-bit, when the session returns. One store belongs to
// one shard (shared-nothing, single-threaded), mirroring the
// one-store-one-shard discipline of SessionStore itself.
//
// On-disk format (host little-endian; docs/store.md):
//
//   file header   16 B  magic "ZSSSEG1\0" | u32 dh | u32 crc32c
//   record        48 B header + payload
//     u32 crc        CRC32C over header bytes [4..48) + payload
//     u32 flags      bit0 = payload is offset-encoded
//     u64 session id
//     u64 generation
//     u64 steps
//     i64 arrival_us arrival stamp of the evicted session's last request
//     u32 payload_len
//     u32 reserved (zero)
//   payload
//     dense:   dh f32 of h, then dh f32 of c
//     encoded: u32 kept | kept u16 offsets | kept f32 h values |
//              dh f32 of c   (sparse::encode of h, batch of one)
//
// Invariants the fault-injection matrix enforces
// (tests/store/fault_injection_test.cc):
//
//  * Valid prefix: a record is *committed* once spill() returned true
//    (full write + successful sync). Reopening after a crash at ANY
//    byte offset of the write path recovers every committed record and
//    truncates the torn tail — nothing committed is lost, nothing
//    torn is served.
//  * Restores verify the CRC; a corrupt record degrades to "record
//    absent" (the caller falls back to fresh zero state — the pre-spill
//    behavior) and bumps restore_corrupt(). Never an abort.
//  * Write errors: each spill retries a bounded number of times, then
//    the store disables itself (spilling_enabled() == false) and the
//    shard keeps serving RAM-only. Surfaced in stats, not thrown.
//  * Compaction rewrites live records to "<path>.tmp", syncs, then
//    commits with one atomic rename. A crash at any point leaves
//    either the old file or the complete new one; a leftover .tmp is
//    deleted on open (the base file is always authoritative).
//
// Restored state must be bitwise-identical to never-evicted state.
// The one hazard is the offset encoding, which drops values equal to
// 0.0f — including -0.0f, which would come back as +0.0f. A record
// whose h contains a negative zero therefore falls back to the dense
// payload (spill_fallback_dense() counts these), keeping the fp32
// round-trip exact in all cases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "num/matrix.h"
#include "num/types.h"
#include "store/io.h"

namespace zss::store {

struct StoreConfig {
  /// Segment file path (compaction uses "<path>.tmp" beside it).
  std::string path;
  /// Spill h through the paper's offset encoding (sparse::encode) when
  /// that is smaller than dense — pruned state is ~90% zeros, so the
  /// spilled form is ~10% of the dense bytes (PAPER.md). Records fall
  /// back to dense when encoding would lose bits (-0.0) or grow.
  bool encoded = false;
  /// Write attempts per spill before the store disables itself.
  int max_write_attempts = 3;
  /// Compact when dead payload bytes exceed this fraction of the file
  /// and the file is at least compact_min_bytes.
  double compact_dead_ratio = 0.5;
  std::uint64_t compact_min_bytes = 64 * 1024;
};

/// Metadata of a spilled record — what the tiering policy needs to
/// decide (TTL check against the new arrival) before paying for the
/// payload read.
struct RecordMeta {
  std::uint64_t generation = 0;
  std::uint64_t steps = 0;
  std::int64_t arrival_us = 0;
};

enum class RestoreResult { kOk, kMissing, kCorrupt };

class SegmentStore {
 public:
  /// Session ids are serve::SessionId; spelled as the raw integer here
  /// so store/ stays a leaf the serve layer depends on, not a cycle.
  using serve_id_t = std::uint64_t;

  /// Opens (or creates) the segment at cfg.path via `env` and runs
  /// recovery: leftover .tmp removed, records scanned, torn tail
  /// truncated, index rebuilt latest-record-wins. `env` must outlive
  /// the store. Never throws; ok() reports whether the store is
  /// usable (if not, it behaves as permanently disabled).
  SegmentStore(Env& env, StoreConfig cfg, num::Index hidden_dim);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// False once the write-error policy has tripped (or open failed);
  /// the owner keeps serving RAM-only.
  bool spilling_enabled() const { return ok() && !disabled_; }

  /// Appends a record for `id` (superseding any earlier one). True
  /// once the record is durable (written + synced). False = all
  /// attempts failed; the store is now disabled and the state is lost
  /// to the disk tier (the RAM copy the caller is about to drop was
  /// the last one — exactly the pre-spill eviction semantics).
  bool spill(serve_id_t id, const RecordMeta& meta, const num::Matrix& h,
             const num::Matrix& c);

  /// Metadata peek without payload I/O. Null when no record exists.
  const RecordMeta* find(serve_id_t id) const;

  /// Reads the record back into h/c (resized to 1 x dh). kOk: bits are
  /// exactly what spill() was given, record consumed (index entry
  /// dropped — the RAM copy is authoritative again). kCorrupt: CRC or
  /// read failure; record dropped, restore_corrupt() bumped, h/c
  /// untouched. kMissing: no record.
  RestoreResult restore_into(serve_id_t id, RecordMeta* meta, num::Matrix& h,
                             num::Matrix& c);

  /// Drops the record without reading it (e.g. its TTL has expired —
  /// it could never be restored).
  void erase(serve_id_t id);

  /// Rewrites live records to a fresh file and atomically swaps it in.
  /// Records whose arrival stamp is older than `expire_before_us` are
  /// dropped (pass INT64_MIN to keep everything). Crash-safe at every
  /// point; false on I/O failure (old file stays authoritative).
  bool compact(std::int64_t expire_before_us = INT64_MIN);

  num::Index hidden_dim() const { return dh_; }
  std::uint64_t live_records() const { return index_.size(); }
  std::uint64_t file_bytes() const { return tail_; }
  std::uint64_t dead_bytes() const { return dead_bytes_; }

  /// Lifetime counters (monotone).
  std::uint64_t spilled() const { return spilled_; }
  std::uint64_t restored() const { return restored_; }
  std::uint64_t restore_corrupt() const { return restore_corrupt_; }
  std::uint64_t write_errors() const { return write_errors_; }
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t spill_fallback_dense() const { return spill_fallback_dense_; }
  std::uint64_t recovered_records() const { return recovered_records_; }
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;  // record start (header) in the file
    std::uint32_t length = 0;  // header + payload bytes
    RecordMeta meta;
  };

  bool write_file_header();
  void recover();
  void mark_dead(const IndexEntry& e) { dead_bytes_ += e.length; }
  void disable() { disabled_ = true; }
  void serialize_record(serve_id_t id, const RecordMeta& meta,
                        const num::Matrix& h, const num::Matrix& c,
                        std::vector<std::uint8_t>& buf);
  void maybe_compact();

  Env& env_;
  StoreConfig cfg_;
  num::Index dh_;
  std::unique_ptr<File> file_;
  std::uint64_t tail_ = 0;  // append offset == valid-prefix length
  bool disabled_ = false;
  std::unordered_map<serve_id_t, IndexEntry> index_;
  std::uint64_t dead_bytes_ = 0;
  std::vector<std::uint8_t> scratch_;

  std::uint64_t spilled_ = 0;
  std::uint64_t restored_ = 0;
  std::uint64_t restore_corrupt_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t spill_fallback_dense_ = 0;
  std::uint64_t recovered_records_ = 0;
  std::uint64_t truncated_tail_bytes_ = 0;
};

}  // namespace zss::store
