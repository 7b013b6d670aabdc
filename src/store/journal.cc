#include "store/journal.h"

#include <algorithm>
#include <cstring>

#include "store/crc32c.h"

namespace zss::store {

namespace {

constexpr std::uint8_t kMagic[8] = {'Z', 'S', 'S', 'J', 'N', 'L', '1', '\0'};
constexpr std::uint8_t kCkptMagic[8] = {'Z', 'S', 'S', 'J', 'C',
                                        'K', '1', '\0'};
constexpr std::uint64_t kFileHeaderSize = 16;
constexpr std::uint64_t kRecordHeaderSize = 72;
constexpr std::uint64_t kCkptHeaderSize = 40;
constexpr std::uint64_t kCkptDigestEntrySize = 24;

// Record header byte layout (after the u32 crc at offset 0):
//   [4]  u32 kind     [8]  u64 lsn         [16] u64 id
//   [24] u64 gen      [32] u64 steps       [40] i64 arrival
//   [48] u64 d_steps  [56] u64 digest      [64] u32 payload_len
//   [68] u32 reserved
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

bool valid_kind(std::uint32_t k) {
  return k >= static_cast<std::uint32_t>(JournalRecordKind::kCreate) &&
         k <= static_cast<std::uint32_t>(JournalRecordKind::kErase);
}

}  // namespace

Journal::Journal(Env& env, JournalConfig cfg, num::Index state_width)
    : env_(env), cfg_(std::move(cfg)), width_(state_width) {
  ZSS_EXPECTS(state_width >= 1);
  ZSS_EXPECTS(!cfg_.path.empty());
  ZSS_EXPECTS(cfg_.max_write_attempts >= 1);
  // Leftover .tmp files are incomplete checkpoints that never reached
  // their rename commit point; the base files are authoritative.
  for (const std::string& tmp : {cfg_.path + ".tmp", cfg_.path + ".ckpt.tmp"}) {
    if (env_.exists(tmp)) {
      env_.remove(tmp);
      ++orphans_removed_;
    }
  }
  file_ = env_.open(cfg_.path, /*truncate_existing=*/false);
  if (file_ == nullptr) return;  // degraded from birth: undurable
  load_checkpoint();
  if (!open_error_.empty()) {
    // The checkpoint provably belongs to a different model shape:
    // refuse the whole journal rather than replay records into the
    // wrong shape or truncate history that another configuration owns.
    file_.reset();
    return;
  }
  recover();
}

bool Journal::write_file_header() {
  std::vector<std::uint8_t> hdr(kFileHeaderSize, 0);
  std::memcpy(hdr.data(), kMagic, sizeof(kMagic));
  put<std::uint32_t>(hdr, 8, static_cast<std::uint32_t>(width_));
  put<std::uint32_t>(hdr, 12, crc32c(0, hdr.data(), 12));
  if (file_->write_at(0, hdr.data(), hdr.size()) != hdr.size()) return false;
  if (!file_->truncate(kFileHeaderSize)) return false;
  if (!file_->sync()) return false;
  tail_ = kFileHeaderSize;
  return true;
}

bool Journal::load_checkpoint() {
  const std::string ckpt = cfg_.path + ".ckpt";
  if (!env_.exists(ckpt)) return false;
  auto in = env_.open(ckpt, /*truncate_existing=*/false);
  if (in == nullptr) {
    ++checkpoint_corrupt_;
    return false;
  }

  // A checkpoint is all-or-nothing: read the whole image, verify one
  // trailing CRC over everything before it, and only then parse. Any
  // failure discards the checkpoint whole (degrade to journal-only
  // replay) — never a partial apply.
  const std::uint64_t fsize = in->size();
  if (fsize < kCkptHeaderSize + sizeof(std::uint32_t)) {
    ++checkpoint_corrupt_;
    return false;
  }
  std::vector<std::uint8_t> img(fsize);
  if (in->read_at(0, img.data(), fsize) != fsize) {
    ++checkpoint_corrupt_;
    return false;
  }
  const auto stored_crc = get<std::uint32_t>(img.data() + fsize - 4);
  if (std::memcmp(img.data(), kCkptMagic, sizeof(kCkptMagic)) != 0 ||
      stored_crc != crc32c(0, img.data(), fsize - 4)) {
    ++checkpoint_corrupt_;
    return false;
  }
  const auto ckpt_width = get<std::uint32_t>(img.data() + 8);
  if (ckpt_width != static_cast<std::uint32_t>(width_)) {
    // CRC-valid but a different state_width: a healthy checkpoint of a
    // different model, not corruption. Discarding it would silently
    // erase committed session history on the next truncate — refuse to
    // open instead (the constructor resets file_ when it sees this).
    open_error_ = "checkpoint " + ckpt + " holds state_width " +
                  std::to_string(ckpt_width) + " but this model needs " +
                  std::to_string(width_) +
                  "; refusing to open (move/delete the spill dir or point "
                  "it elsewhere)";
    return false;
  }

  const auto last_lsn = get<std::uint64_t>(img.data() + 16);
  const auto n_sessions = get<std::uint64_t>(img.data() + 24);
  const auto n_digests = get<std::uint64_t>(img.data() + 32);
  const std::uint64_t w = static_cast<std::uint64_t>(width_);
  const std::uint64_t session_entry = 32 + 2 * w * sizeof(float);
  // Overflow-safe size accounting: every count is bounded by the file
  // size before any multiply can wrap.
  const std::uint64_t body = fsize - kCkptHeaderSize - 4;
  if (n_digests > body / kCkptDigestEntrySize ||
      n_sessions > body / session_entry ||
      n_digests * kCkptDigestEntrySize + n_sessions * session_entry != body) {
    ++checkpoint_corrupt_;
    return false;
  }

  std::vector<CheckpointDigest> digests;
  digests.reserve(n_digests);
  const std::uint8_t* p = img.data() + kCkptHeaderSize;
  for (std::uint64_t i = 0; i < n_digests; ++i) {
    CheckpointDigest d;
    d.id = get<std::uint64_t>(p);
    d.steps = get<std::uint64_t>(p + 8);
    d.digest = get<std::uint64_t>(p + 16);
    digests.push_back(d);
    p += kCkptDigestEntrySize;
  }
  std::vector<CheckpointSession> sessions;
  sessions.reserve(n_sessions);
  for (std::uint64_t i = 0; i < n_sessions; ++i) {
    CheckpointSession s;
    s.id = get<std::uint64_t>(p);
    s.generation = get<std::uint64_t>(p + 8);
    s.steps = get<std::uint64_t>(p + 16);
    s.arrival_us = get<std::int64_t>(p + 24);
    s.h.resize(w);
    s.c.resize(w);
    std::memcpy(s.h.data(), p + 32, w * sizeof(float));
    std::memcpy(s.c.data(), p + 32 + w * sizeof(float), w * sizeof(float));
    max_arrival_us_ = std::max(max_arrival_us_, s.arrival_us);
    sessions.push_back(std::move(s));
    p += session_entry;
  }

  watermark_lsn_ = last_lsn;
  next_lsn_ = last_lsn + 1;
  ckpt_sessions_ = std::move(sessions);
  ckpt_digests_ = std::move(digests);
  return true;
}

void Journal::recover() {
  const std::uint64_t fsize = file_->size();
  std::vector<std::uint8_t> hdr(kFileHeaderSize);
  bool header_ok = false;
  if (fsize >= kFileHeaderSize &&
      file_->read_at(0, hdr.data(), hdr.size()) == hdr.size() &&
      std::memcmp(hdr.data(), kMagic, sizeof(kMagic)) == 0 &&
      get<std::uint32_t>(hdr.data() + 12) == crc32c(0, hdr.data(), 12)) {
    const auto file_width = get<std::uint32_t>(hdr.data() + 8);
    if (file_width != static_cast<std::uint32_t>(width_)) {
      // A healthy journal written at a different state_width — the
      // same spill dir reopened under a different model. Truncating
      // here would silently destroy all committed session history, so
      // refuse to open and leave the file byte-for-byte untouched.
      open_error_ = "journal " + cfg_.path + " holds state_width " +
                    std::to_string(file_width) + " but this model needs " +
                    std::to_string(width_) +
                    "; refusing to open (move/delete the spill dir or "
                    "point it elsewhere)";
      file_.reset();
      return;
    }
    header_ok = true;
  }
  if (!header_ok) {
    if (fsize > kFileHeaderSize) {
      // Bad magic or checksum with records behind it: header bit rot
      // on a populated journal, not a torn first write. Starting fresh
      // would orphan every committed record — refuse instead.
      open_error_ = "journal " + cfg_.path +
                    " has a corrupt file header ahead of " +
                    std::to_string(fsize - kFileHeaderSize) +
                    " bytes of records; refusing to open";
      file_.reset();
      return;
    }
    // Empty file or a crash inside the very first header write: no
    // records can exist yet (the checkpoint, if any, still stands on
    // its own), start the journal fresh.
    if (!write_file_header()) file_.reset();
    return;
  }

  // Scan forward, record by record; the first short read, garbage
  // length, unknown kind or CRC mismatch marks the torn tail. The
  // records themselves are replayed later (replay() re-reads the file)
  // — this pass only establishes the valid prefix, the LSN horizon and
  // the newest arrival stamp.
  const std::uint64_t update_payload =
      static_cast<std::uint64_t>(width_) * 2 * sizeof(float);
  std::uint64_t off = kFileHeaderSize;
  std::vector<std::uint8_t> rec;
  while (off + kRecordHeaderSize <= fsize) {
    rec.resize(kRecordHeaderSize);
    if (file_->read_at(off, rec.data(), kRecordHeaderSize) !=
        kRecordHeaderSize) {
      break;
    }
    const auto kind = get<std::uint32_t>(rec.data() + 4);
    const auto payload_len = get<std::uint32_t>(rec.data() + 64);
    const std::uint64_t want_payload =
        kind == static_cast<std::uint32_t>(JournalRecordKind::kUpdate)
            ? update_payload
            : 0;
    if (!valid_kind(kind) || payload_len != want_payload ||
        off + kRecordHeaderSize + payload_len > fsize) {
      break;
    }
    rec.resize(kRecordHeaderSize + payload_len);
    if (file_->read_at(off + kRecordHeaderSize, rec.data() + kRecordHeaderSize,
                       payload_len) != payload_len) {
      break;
    }
    const auto stored_crc = get<std::uint32_t>(rec.data());
    if (stored_crc != crc32c(0, rec.data() + 4, rec.size() - 4)) break;

    const auto lsn = get<std::uint64_t>(rec.data() + 8);
    next_lsn_ = std::max(next_lsn_, lsn + 1);
    if (lsn > watermark_lsn_) {
      max_arrival_us_ =
          std::max(max_arrival_us_, get<std::int64_t>(rec.data() + 40));
      ++recovered_records_;
    }
    off += rec.size();
  }

  if (off < fsize) {
    truncated_tail_bytes_ += fsize - off;
    if (!file_->truncate(off) || !file_->sync()) {
      file_.reset();
      return;
    }
  }
  tail_ = off;
}

void Journal::replay(const std::function<void(const JournalRecord&)>& fn) {
  if (!ok()) return;
  const std::uint64_t w = static_cast<std::uint64_t>(width_);
  const std::uint64_t update_payload = w * 2 * sizeof(float);
  replay_state_.resize(2 * w);
  std::uint64_t off = kFileHeaderSize;
  std::vector<std::uint8_t> rec;
  // recover() already validated [header, tail_) whole; this pass just
  // decodes. A record failing re-validation here means the medium
  // changed under us mid-recovery — stop at the last good prefix.
  while (off + kRecordHeaderSize <= tail_) {
    rec.resize(kRecordHeaderSize);
    if (file_->read_at(off, rec.data(), kRecordHeaderSize) !=
        kRecordHeaderSize) {
      break;
    }
    const auto payload_len = get<std::uint32_t>(rec.data() + 64);
    if (payload_len > update_payload ||
        off + kRecordHeaderSize + payload_len > tail_) {
      break;
    }
    rec.resize(kRecordHeaderSize + payload_len);
    if (file_->read_at(off + kRecordHeaderSize, rec.data() + kRecordHeaderSize,
                       payload_len) != payload_len) {
      break;
    }

    JournalRecord r;
    r.kind = static_cast<JournalRecordKind>(get<std::uint32_t>(rec.data() + 4));
    r.lsn = get<std::uint64_t>(rec.data() + 8);
    r.id = get<std::uint64_t>(rec.data() + 16);
    r.generation = get<std::uint64_t>(rec.data() + 24);
    r.steps = get<std::uint64_t>(rec.data() + 32);
    r.arrival_us = get<std::int64_t>(rec.data() + 40);
    r.digest_steps = get<std::uint64_t>(rec.data() + 48);
    r.digest = get<std::uint64_t>(rec.data() + 56);
    if (payload_len != 0) {
      std::memcpy(replay_state_.data(), rec.data() + kRecordHeaderSize,
                  payload_len);
      r.h = replay_state_.data();
      r.c = replay_state_.data() + w;
    }
    off += rec.size();
    // The checkpoint already covers LSNs up to the watermark; replaying
    // them would double-apply non-idempotent absolute state.
    if (r.lsn <= watermark_lsn_) continue;
    fn(r);
  }
}

void Journal::clear_recovered() {
  ckpt_sessions_.clear();
  ckpt_sessions_.shrink_to_fit();
  ckpt_digests_.clear();
  ckpt_digests_.shrink_to_fit();
}

bool Journal::append(JournalRecordKind kind, std::uint64_t id,
                     std::uint64_t generation, std::uint64_t steps,
                     std::int64_t arrival_us, std::uint64_t digest_steps,
                     std::uint64_t digest, const float* h, const float* c) {
  if (!enabled()) return false;
  const std::uint64_t w = static_cast<std::uint64_t>(width_);
  const std::size_t payload_len =
      kind == JournalRecordKind::kUpdate ? 2 * w * sizeof(float) : 0;
  ZSS_EXPECTS(payload_len == 0 || (h != nullptr && c != nullptr));

  scratch_.assign(kRecordHeaderSize + payload_len, 0);
  put<std::uint32_t>(scratch_, 4, static_cast<std::uint32_t>(kind));
  put<std::uint64_t>(scratch_, 8, next_lsn_);
  put<std::uint64_t>(scratch_, 16, id);
  put<std::uint64_t>(scratch_, 24, generation);
  put<std::uint64_t>(scratch_, 32, steps);
  put<std::int64_t>(scratch_, 40, arrival_us);
  put<std::uint64_t>(scratch_, 48, digest_steps);
  put<std::uint64_t>(scratch_, 56, digest);
  put<std::uint32_t>(scratch_, 64, static_cast<std::uint32_t>(payload_len));
  if (payload_len != 0) {
    std::memcpy(scratch_.data() + kRecordHeaderSize, h, w * sizeof(float));
    std::memcpy(scratch_.data() + kRecordHeaderSize + w * sizeof(float), c,
                w * sizeof(float));
  }
  put<std::uint32_t>(scratch_, 0,
                     crc32c(0, scratch_.data() + 4, scratch_.size() - 4));

  // Bounded retry from the same tail offset (a torn prefix is simply
  // overwritten). Unlike the spill tier, the append does NOT sync —
  // commit() is the group-commit barrier at the batch boundary.
  bool written = false;
  for (int attempt = 0; attempt < cfg_.max_write_attempts; ++attempt) {
    if (file_->write_at(tail_, scratch_.data(), scratch_.size()) ==
        scratch_.size()) {
      written = true;
      break;
    }
    ++write_errors_;
  }
  if (!written) {
    // Degrade: stop journaling, keep serving undurably. Best-effort
    // tail cleanup; recovery cuts any debris either way.
    file_->truncate(tail_);
    disable();
    return false;
  }
  tail_ += scratch_.size();
  ++next_lsn_;
  ++appended_;
  dirty_ = true;
  return true;
}

bool Journal::commit() {
  if (!enabled()) return false;
  if (!dirty_) return true;
  if (cfg_.sync == JournalSync::kBatch) {
    bool synced = false;
    for (int attempt = 0; attempt < cfg_.max_write_attempts; ++attempt) {
      if (file_->sync()) {
        synced = true;
        break;
      }
      ++write_errors_;
    }
    if (!synced) {
      // A failed fsync leaves the unsynced suffix in limbo; the RAM
      // state is still authoritative, so degrade to undurable rather
      // than guess what the medium kept.
      disable();
      return false;
    }
  }
  dirty_ = false;
  ++commits_;
  return true;
}

bool Journal::checkpoint(const std::vector<CheckpointSession>& sessions,
                         const std::vector<CheckpointDigest>& digests) {
  if (!enabled()) return false;
  const std::uint64_t w = static_cast<std::uint64_t>(width_);
  const std::uint64_t session_entry = 32 + 2 * w * sizeof(float);
  const std::uint64_t watermark = next_lsn_ - 1;

  std::vector<std::uint8_t> img(kCkptHeaderSize +
                                    digests.size() * kCkptDigestEntrySize +
                                    sessions.size() * session_entry + 4,
                                0);
  std::memcpy(img.data(), kCkptMagic, sizeof(kCkptMagic));
  put<std::uint32_t>(img, 8, static_cast<std::uint32_t>(width_));
  put<std::uint64_t>(img, 16, watermark);
  put<std::uint64_t>(img, 24, sessions.size());
  put<std::uint64_t>(img, 32, digests.size());
  std::size_t p = kCkptHeaderSize;
  for (const CheckpointDigest& d : digests) {
    put<std::uint64_t>(img, p, d.id);
    put<std::uint64_t>(img, p + 8, d.steps);
    put<std::uint64_t>(img, p + 16, d.digest);
    p += kCkptDigestEntrySize;
  }
  for (const CheckpointSession& s : sessions) {
    ZSS_EXPECTS(s.h.size() == w && s.c.size() == w);
    put<std::uint64_t>(img, p, s.id);
    put<std::uint64_t>(img, p + 8, s.generation);
    put<std::uint64_t>(img, p + 16, s.steps);
    put<std::int64_t>(img, p + 24, s.arrival_us);
    std::memcpy(img.data() + p + 32, s.h.data(), w * sizeof(float));
    std::memcpy(img.data() + p + 32 + w * sizeof(float), s.c.data(),
                w * sizeof(float));
    p += session_entry;
  }
  put<std::uint32_t>(img, img.size() - 4, crc32c(0, img.data(), img.size() - 4));

  // tmp + sync + rename: the rename is the commit point. A crash before
  // it leaves the previous checkpoint + full journal authoritative (the
  // .tmp is deleted on the next open); a crash after it but before the
  // journal truncate just replays a suffix the new watermark skips.
  const std::string ckpt = cfg_.path + ".ckpt";
  const std::string tmp = ckpt + ".tmp";
  auto out = env_.open(tmp, /*truncate_existing=*/true);
  if (out == nullptr) return false;
  if (out->write_at(0, img.data(), img.size()) != img.size() ||
      !out->sync()) {
    ++write_errors_;
    out.reset();
    env_.remove(tmp);
    return false;
  }
  out.reset();
  if (!env_.rename(tmp, ckpt)) {
    env_.remove(tmp);
    return false;
  }

  watermark_lsn_ = watermark;
  ++checkpoints_;
  if (!file_->truncate(kFileHeaderSize) || !file_->sync()) {
    // The checkpoint is durable and the watermark makes the stale
    // journal suffix harmless, but the handle misbehaved — degrade.
    ++write_errors_;
    disable();
    return true;
  }
  tail_ = kFileHeaderSize;
  dirty_ = false;
  return true;
}

}  // namespace zss::store
