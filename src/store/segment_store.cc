#include "store/segment_store.h"

#include <cmath>
#include <cstring>

#include "sparse/encoding.h"
#include "store/crc32c.h"

namespace zss::store {

namespace {

constexpr std::uint8_t kMagic[8] = {'Z', 'S', 'S', 'S', 'E', 'G', '1', '\0'};
constexpr std::uint64_t kFileHeaderSize = 16;
constexpr std::uint64_t kRecordHeaderSize = 48;
constexpr std::uint32_t kFlagEncoded = 1u << 0;

// Record header byte layout (after the u32 crc at offset 0):
//   [4]  u32 flags   [8]  u64 id      [16] u64 generation
//   [24] u64 steps   [32] i64 arrival [40] u32 payload_len
//   [44] u32 reserved
template <typename T>
void put(std::vector<std::uint8_t>& buf, std::size_t off, T v) {
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T get(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

bool has_negative_zero(const float* v, num::Index n) {
  for (num::Index i = 0; i < n; ++i) {
    if (v[i] == 0.0f && std::signbit(v[i])) return true;
  }
  return false;
}

}  // namespace

SegmentStore::SegmentStore(Env& env, StoreConfig cfg, num::Index hidden_dim)
    : env_(env), cfg_(std::move(cfg)), dh_(hidden_dim) {
  ZSS_EXPECTS(hidden_dim >= 1);
  ZSS_EXPECTS(!cfg_.path.empty());
  ZSS_EXPECTS(cfg_.max_write_attempts >= 1);
  // A leftover .tmp is an incomplete compaction that never reached its
  // rename commit point: the base file is authoritative, the tmp is
  // garbage.
  const std::string tmp = cfg_.path + ".tmp";
  if (env_.exists(tmp)) env_.remove(tmp);
  file_ = env_.open(cfg_.path, /*truncate_existing=*/false);
  if (file_ == nullptr) return;  // degraded from birth: RAM-only
  recover();
}

bool SegmentStore::write_file_header() {
  std::vector<std::uint8_t> hdr(kFileHeaderSize, 0);
  std::memcpy(hdr.data(), kMagic, sizeof(kMagic));
  put<std::uint32_t>(hdr, 8, static_cast<std::uint32_t>(dh_));
  put<std::uint32_t>(hdr, 12, crc32c(0, hdr.data(), 12));
  if (file_->write_at(0, hdr.data(), hdr.size()) != hdr.size()) return false;
  if (!file_->truncate(kFileHeaderSize)) return false;
  if (!file_->sync()) return false;
  tail_ = kFileHeaderSize;
  return true;
}

void SegmentStore::recover() {
  index_.clear();
  dead_bytes_ = 0;

  const std::uint64_t fsize = file_->size();
  std::vector<std::uint8_t> hdr(kFileHeaderSize);
  const bool header_ok =
      fsize >= kFileHeaderSize &&
      file_->read_at(0, hdr.data(), hdr.size()) == hdr.size() &&
      std::memcmp(hdr.data(), kMagic, sizeof(kMagic)) == 0 &&
      get<std::uint32_t>(hdr.data() + 8) == static_cast<std::uint32_t>(dh_) &&
      get<std::uint32_t>(hdr.data() + 12) == crc32c(0, hdr.data(), 12);
  if (!header_ok) {
    // Empty file, a crash inside the very first header write, or a
    // different hidden_dim: nothing here can be served, start fresh.
    if (!write_file_header()) {
      file_.reset();  // unusable medium
    }
    return;
  }

  // Scan forward, record by record. The append path syncs before
  // acknowledging, so the committed records form a prefix; the first
  // short read or CRC mismatch marks the torn tail, which is cut off.
  const std::uint64_t dense_payload =
      static_cast<std::uint64_t>(dh_) * 2 * sizeof(float);
  const std::uint64_t max_payload = dense_payload + 4 +
                                    static_cast<std::uint64_t>(dh_) * 2;
  std::uint64_t off = kFileHeaderSize;
  std::vector<std::uint8_t> rec;
  while (off + kRecordHeaderSize <= fsize) {
    rec.resize(kRecordHeaderSize);
    if (file_->read_at(off, rec.data(), kRecordHeaderSize) !=
        kRecordHeaderSize) {
      break;
    }
    const auto payload_len = get<std::uint32_t>(rec.data() + 40);
    if (payload_len > max_payload ||
        off + kRecordHeaderSize + payload_len > fsize) {
      break;  // garbage length or payload runs past EOF: torn
    }
    rec.resize(kRecordHeaderSize + payload_len);
    if (file_->read_at(off + kRecordHeaderSize, rec.data() + kRecordHeaderSize,
                       payload_len) != payload_len) {
      break;
    }
    const auto stored_crc = get<std::uint32_t>(rec.data());
    if (stored_crc != crc32c(0, rec.data() + 4, rec.size() - 4)) break;

    IndexEntry e;
    e.offset = off;
    e.length = static_cast<std::uint32_t>(rec.size());
    e.meta.generation = get<std::uint64_t>(rec.data() + 16);
    e.meta.steps = get<std::uint64_t>(rec.data() + 24);
    e.meta.arrival_us = get<std::int64_t>(rec.data() + 32);
    const auto id = get<std::uint64_t>(rec.data() + 8);
    auto [it, inserted] = index_.try_emplace(id, e);
    if (!inserted) {
      mark_dead(it->second);  // superseded by this later record
      it->second = e;
    }
    ++recovered_records_;
    off += rec.size();
  }

  if (off < fsize) {
    truncated_tail_bytes_ += fsize - off;
    if (!file_->truncate(off) || !file_->sync()) {
      file_.reset();
      index_.clear();
      return;
    }
  }
  tail_ = off;
}

void SegmentStore::serialize_record(serve_id_t id, const RecordMeta& meta,
                                    const num::Matrix& h, const num::Matrix& c,
                                    std::vector<std::uint8_t>& buf) {
  const auto dh = static_cast<std::size_t>(dh_);
  const std::size_t dense_payload = dh * 2 * sizeof(float);

  std::uint32_t flags = 0;
  std::size_t payload_len = dense_payload;
  sparse::EncodedState<float> enc;
  if (cfg_.encoded) {
    // The offset encoding drops every value == 0.0f, which would turn
    // a -0.0f into +0.0f on restore — a bit-exactness loss. Such
    // records (and records the encoding would not shrink) go dense.
    if (has_negative_zero(h.data(), dh_)) {
      ++spill_fallback_dense_;
    } else {
      enc = sparse::encode(std::span<const float>(h.data(), dh),
                           sparse::EncoderConfig{});
      const std::size_t kept = static_cast<std::size_t>(enc.kept_positions());
      const std::size_t enc_payload =
          4 + kept * (sizeof(std::uint16_t) + sizeof(float)) +
          dh * sizeof(float);
      if (enc_payload < dense_payload) {
        flags |= kFlagEncoded;
        payload_len = enc_payload;
      } else {
        ++spill_fallback_dense_;
      }
    }
  }

  buf.assign(kRecordHeaderSize + payload_len, 0);
  put<std::uint32_t>(buf, 4, flags);
  put<std::uint64_t>(buf, 8, id);
  put<std::uint64_t>(buf, 16, meta.generation);
  put<std::uint64_t>(buf, 24, meta.steps);
  put<std::int64_t>(buf, 32, meta.arrival_us);
  put<std::uint32_t>(buf, 40, static_cast<std::uint32_t>(payload_len));

  std::size_t p = kRecordHeaderSize;
  if (flags & kFlagEncoded) {
    const std::size_t kept = static_cast<std::size_t>(enc.kept_positions());
    put<std::uint32_t>(buf, p, static_cast<std::uint32_t>(kept));
    p += 4;
    for (std::size_t i = 0; i < kept; ++i) {
      put<std::uint16_t>(buf, p,
                         static_cast<std::uint16_t>(enc.entries[i].offset));
      p += 2;
    }
    // An all-zero h keeps nothing and its values vector may be unallocated.
    if (kept > 0) {
      std::memcpy(buf.data() + p, enc.values.data(), kept * sizeof(float));
    }
    p += kept * sizeof(float);
  } else {
    std::memcpy(buf.data() + p, h.data(), dh * sizeof(float));
    p += dh * sizeof(float);
  }
  std::memcpy(buf.data() + p, c.data(), dh * sizeof(float));
  p += dh * sizeof(float);
  ZSS_ASSERT(p == buf.size());

  put<std::uint32_t>(buf, 0, crc32c(0, buf.data() + 4, buf.size() - 4));
}

bool SegmentStore::spill(serve_id_t id, const RecordMeta& meta,
                         const num::Matrix& h, const num::Matrix& c) {
  if (!spilling_enabled()) return false;
  ZSS_EXPECTS(h.cols() == dh_ && c.cols() == dh_);
  serialize_record(id, meta, h, c, scratch_);

  // Bounded retry, each attempt from the same tail offset so a torn
  // prefix is simply overwritten. A record is committed only once both
  // the write and the sync succeeded; anything less leaves the file's
  // valid prefix exactly where it was (recovery cuts the debris).
  bool committed = false;
  for (int attempt = 0; attempt < cfg_.max_write_attempts; ++attempt) {
    if (file_->write_at(tail_, scratch_.data(), scratch_.size()) ==
            scratch_.size() &&
        file_->sync()) {
      committed = true;
      break;
    }
    ++write_errors_;
  }
  if (!committed) {
    // Degrade: stop spilling, keep serving RAM-only. Best-effort tail
    // cleanup; if even that fails, recovery handles the debris later.
    file_->truncate(tail_);
    disable();
    return false;
  }

  IndexEntry e;
  e.offset = tail_;
  e.length = static_cast<std::uint32_t>(scratch_.size());
  e.meta = meta;
  auto [it, inserted] = index_.try_emplace(id, e);
  if (!inserted) {
    mark_dead(it->second);
    it->second = e;
  }
  tail_ += scratch_.size();
  ++spilled_;
  maybe_compact();
  return true;
}

const RecordMeta* SegmentStore::find(serve_id_t id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &it->second.meta;
}

RestoreResult SegmentStore::restore_into(serve_id_t id, RecordMeta* meta,
                                         num::Matrix& h, num::Matrix& c) {
  const auto it = index_.find(id);
  if (it == index_.end() || !ok()) return RestoreResult::kMissing;
  const IndexEntry e = it->second;

  // Every restore re-verifies the CRC: the index proves a record was
  // committed once, not that the medium preserved it since.
  scratch_.resize(e.length);
  const bool intact =
      file_->read_at(e.offset, scratch_.data(), e.length) == e.length &&
      get<std::uint32_t>(scratch_.data()) ==
          crc32c(0, scratch_.data() + 4, scratch_.size() - 4);
  // Consumed either way: on success the RAM copy becomes authoritative
  // (a later spill writes a fresh record; keeping this one would risk
  // restoring stale state if that spill fails), on corruption the
  // record is useless.
  mark_dead(e);
  index_.erase(it);
  if (!intact) {
    ++restore_corrupt_;
    return RestoreResult::kCorrupt;
  }

  const auto dh = static_cast<std::size_t>(dh_);
  const auto flags = get<std::uint32_t>(scratch_.data() + 4);
  if (meta != nullptr) *meta = e.meta;
  h.resize(1, dh_);
  c.resize(1, dh_);
  const std::uint8_t* p = scratch_.data() + kRecordHeaderSize;
  if (flags & kFlagEncoded) {
    const auto kept = get<std::uint32_t>(p);
    p += 4;
    sparse::EncodedState<float> enc;
    enc.batch = 1;
    enc.dense_size = dh_;
    enc.entries.resize(kept);
    enc.values.resize(kept);
    for (std::uint32_t i = 0; i < kept; ++i) {
      enc.entries[i].offset = get<std::uint16_t>(p + i * 2);
    }
    p += kept * 2;
    std::memcpy(enc.values.data(), p, kept * sizeof(float));
    p += kept * sizeof(float);
    const num::Matrix dense = sparse::decode(enc);
    std::memcpy(h.data(), dense.data(), dh * sizeof(float));
  } else {
    std::memcpy(h.data(), p, dh * sizeof(float));
    p += dh * sizeof(float);
  }
  std::memcpy(c.data(), p, dh * sizeof(float));
  ++restored_;
  return RestoreResult::kOk;
}

void SegmentStore::erase(serve_id_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  mark_dead(it->second);
  index_.erase(it);
}

void SegmentStore::maybe_compact() {
  if (tail_ < cfg_.compact_min_bytes) return;
  const std::uint64_t payload = tail_ - kFileHeaderSize;
  if (payload > 0 &&
      static_cast<double>(dead_bytes_) >
          cfg_.compact_dead_ratio * static_cast<double>(payload)) {
    compact();
  }
}

bool SegmentStore::compact(std::int64_t expire_before_us) {
  if (!ok()) return false;
  const std::string tmp = cfg_.path + ".tmp";
  auto out = env_.open(tmp, /*truncate_existing=*/true);
  if (out == nullptr) return false;

  // Copy the live records (raw bytes — CRCs stay valid) behind a fresh
  // header, drop the expired ones, then commit with one atomic rename.
  std::vector<std::uint8_t> hdr(kFileHeaderSize, 0);
  std::memcpy(hdr.data(), kMagic, sizeof(kMagic));
  put<std::uint32_t>(hdr, 8, static_cast<std::uint32_t>(dh_));
  put<std::uint32_t>(hdr, 12, crc32c(0, hdr.data(), 12));
  if (out->write_at(0, hdr.data(), hdr.size()) != hdr.size()) return false;

  std::unordered_map<serve_id_t, IndexEntry> new_index;
  new_index.reserve(index_.size());
  std::uint64_t new_tail = kFileHeaderSize;
  std::vector<std::uint8_t> rec;
  for (const auto& [id, e] : index_) {
    if (e.meta.arrival_us < expire_before_us) continue;
    rec.resize(e.length);
    if (file_->read_at(e.offset, rec.data(), e.length) != e.length) {
      return false;
    }
    if (out->write_at(new_tail, rec.data(), rec.size()) != rec.size()) {
      return false;
    }
    IndexEntry ne = e;
    ne.offset = new_tail;
    new_index.emplace(id, ne);
    new_tail += rec.size();
  }
  if (!out->sync()) return false;
  out.reset();

  // The commit point. Before it the old file is authoritative (a crash
  // leaves the .tmp for the next open to delete); after it the new one
  // is complete and synced.
  if (!env_.rename(tmp, cfg_.path)) return false;
  auto reopened = env_.open(cfg_.path, /*truncate_existing=*/false);
  if (reopened == nullptr) {
    // The compacted file is durable but we lost our handle; degrade.
    file_.reset();
    index_.clear();
    return false;
  }
  file_ = std::move(reopened);
  index_ = std::move(new_index);
  tail_ = new_tail;
  dead_bytes_ = 0;
  ++compactions_;
  return true;
}

}  // namespace zss::store
