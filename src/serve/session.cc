#include "serve/session.h"

#include <algorithm>

namespace zss::serve {

SessionStore::SessionStore(num::Index hidden_dim, SessionTtl ttl,
                           num::Index layers)
    : dh_(hidden_dim), layers_(layers), ttl_(ttl) {
  ZSS_EXPECTS(hidden_dim >= 1);
  ZSS_EXPECTS(layers >= 1);
  ZSS_EXPECTS(ttl.max_sessions >= 0);
}

void SessionStore::lru_unlink(Session& s) {
  if (s.lru_prev_ != nullptr) {
    s.lru_prev_->lru_next_ = s.lru_next_;
  } else {
    lru_head_ = s.lru_next_;
  }
  if (s.lru_next_ != nullptr) {
    s.lru_next_->lru_prev_ = s.lru_prev_;
  } else {
    lru_tail_ = s.lru_prev_;
  }
  s.lru_prev_ = s.lru_next_ = nullptr;
}

void SessionStore::lru_push_front(Session& s) {
  s.lru_prev_ = nullptr;
  s.lru_next_ = lru_head_;
  if (lru_head_ != nullptr) lru_head_->lru_prev_ = &s;
  lru_head_ = &s;
  if (lru_tail_ == nullptr) lru_tail_ = &s;
}

void SessionStore::pack_state(const Session& s) {
  spill_h_.reshape(1, state_width());
  spill_c_.reshape(1, state_width());
  for (num::Index l = 0; l < layers_; ++l) {
    const auto hl = s.h[static_cast<std::size_t>(l)].row(0);
    const auto cl = s.c[static_cast<std::size_t>(l)].row(0);
    std::copy(hl.begin(), hl.end(),
              spill_h_.row(0).begin() + static_cast<std::size_t>(l * dh_));
    std::copy(cl.begin(), cl.end(),
              spill_c_.row(0).begin() + static_cast<std::size_t>(l * dh_));
  }
}

void SessionStore::unpack_state(Session& s, const float* h, const float* c) {
  for (num::Index l = 0; l < layers_; ++l) {
    const auto off = static_cast<std::size_t>(l * dh_);
    const auto n = static_cast<std::size_t>(dh_);
    std::copy(h + off, h + off + n,
              s.h[static_cast<std::size_t>(l)].row(0).begin());
    std::copy(c + off, c + off + n,
              s.c[static_cast<std::size_t>(l)].row(0).begin());
  }
}

void SessionStore::journal_note(store::JournalRecordKind kind,
                                const Session& s) {
  if (journal_ == nullptr || !journal_->enabled()) return;
  journal_->append(kind, s.id, s.generation, s.steps, s.last_arrival_us,
                   /*digest_steps=*/0, /*digest=*/0);
  journal_active_.store(journal_->enabled(), std::memory_order_relaxed);
}

void SessionStore::evict(Session& s, bool spill_state) {
  ZSS_ASSERT(!s.pinned);
  lru_unlink(s);
  bump(evicted_);
  bool tiered = false;
  if (spill_state && spill_ != nullptr && spill_->spilling_enabled()) {
    // Tiering: the victim's exact bits move to the disk tier, the L
    // per-layer rows packed side by side into one state_width() record.
    // A failed spill (the store just disabled itself) degrades to the
    // pre-spill forget semantics for this and every later eviction.
    pack_state(s);
    if (spill_->spill(s.id, {s.generation, s.steps, s.last_arrival_us},
                      spill_h_, spill_c_)) {
      bump(spilled_);
      tiered = true;
    }
    spill_active_.store(spill_->spilling_enabled(),
                        std::memory_order_relaxed);
  }
  // kEvict promises recovery a spill record to fall back on; a forgotten
  // (or failed-spill) victim is an erase — its state is simply gone.
  journal_note(tiered ? store::JournalRecordKind::kEvict
                      : store::JournalRecordKind::kErase,
               s);
  sessions_.erase(s.id);  // invalidates &s
}

Session& SessionStore::get_or_create(SessionId id, std::int64_t arrival_us) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) {
    Session& s = it->second;
    // Lazy TTL: compared against the session's *own* previous arrival,
    // so the decision is independent of batching, sharding and wake
    // timing — the property the live/replay bit-identity rests on.
    if (ttl_.ttl_us >= 0 && arrival_us - s.last_arrival_us > ttl_.ttl_us) {
      for (auto& m : s.h) m.fill(0.0f);
      for (auto& m : s.c) m.fill(0.0f);
      s.steps = 0;
      ++s.generation;
      bump(ttl_resets_);
      s.last_arrival_us = arrival_us;
      journal_note(store::JournalRecordKind::kTtlReset, s);
    }
    s.last_arrival_us = arrival_us;
    lru_unlink(s);
    lru_push_front(s);
    return s;
  }

  if (ttl_.max_sessions > 0) {
    // Cap decisions are computed over the *stamp-defined alive set* —
    // sessions within the TTL of this arrival — never over physical
    // size(). The map can still hold expired sessions the sweep has
    // not reclaimed yet, and sweep timing follows batch boundaries,
    // which live serving and virtual-clock replay legitimately
    // disagree on: deciding from stamps alone makes the eviction's
    // grouping-independence direct, instead of resting on the subtler
    // invariant that a raw size() check only ever evicts zombies first
    // (fuzz-enforced either way). Expired sessions form a tail suffix
    // (LRU order == last-arrival order), so one walk both counts the
    // alive set and lands on its oldest member.
    num::Index alive = size();
    Session* victim = lru_tail_;
    if (ttl_.ttl_us >= 0) {
      while (victim != nullptr &&
             arrival_us - victim->last_arrival_us > ttl_.ttl_us) {
        victim = victim->lru_prev_;
        --alive;
      }
    }
    if (alive >= ttl_.max_sessions) {
      // Victim: least-recently-arrived alive unpinned session. Pinned
      // sessions carry the newest arrivals (per-shard arrivals are
      // monotone), so with max_sessions > max_batch the oldest alive
      // session is never pinned; the walk is belt-and-braces, not a
      // policy.
      while (victim != nullptr && victim->pinned) {
        victim = victim->lru_prev_;
      }
      if (victim != nullptr) evict(*victim, /*spill_state=*/true);
    }
  }

  Session& s = sessions_.try_emplace(id).first->second;
  s.id = id;
  s.h.resize(static_cast<std::size_t>(layers_));
  s.c.resize(static_cast<std::size_t>(layers_));
  for (num::Index l = 0; l < layers_; ++l) {
    s.h[static_cast<std::size_t>(l)].resize(1, dh_, 0.0f);
    s.c[static_cast<std::size_t>(l)].resize(1, dh_, 0.0f);
  }
  s.last_arrival_us = arrival_us;
  lru_push_front(s);

  // Tiering: a miss in RAM may be a hit in the spill tier. Every
  // branch below is a pure function of this session's own record and
  // arrival stamps, so the decision — like the lazy TTL rule — cannot
  // depend on batching or shard count.
  if (spill_ != nullptr) {
    if (const store::RecordMeta* m = spill_->find(id)) {
      if (ttl_.ttl_us >= 0 && arrival_us - m->arrival_us > ttl_.ttl_us) {
        // Expired on disk: the record could only restore into a TTL
        // reset, so drop it unread. Same transition (and counter) as
        // the lazy reset of a resident session — the oracle equality.
        s.generation = m->generation + 1;
        spill_->erase(id);
        bump(ttl_resets_);
        journal_note(store::JournalRecordKind::kCreate, s);
        return s;
      }
      store::RecordMeta meta;
      const auto r = spill_->restore_into(id, &meta, spill_h_, spill_c_);
      if (r == store::RestoreResult::kOk) {
        // Unpack the state_width() record back into per-layer rows.
        // No journal record: the spill tier's on-disk record survives a
        // restore (only its index entry is consumed), so a crash before
        // this session's next kUpdate recovers it from the spill tier
        // with exactly these bits; recover_from()'s reconcile pass
        // erases the stale record once a kUpdate supersedes it.
        unpack_state(s, spill_h_.data(), spill_c_.data());
        s.steps = meta.steps;
        s.generation = meta.generation;
        bump(restored_);
        return s;
      }
      // kCorrupt: degrade to the pre-spill behavior — a fresh
      // generation-zero session (h/c are untouched by a failed
      // restore, so they still hold the zero fill from above).
      bump(restore_corrupt_);
    }
  }
  bump(created_);
  journal_note(store::JournalRecordKind::kCreate, s);
  return s;
}

num::Index SessionStore::sweep_expired(std::int64_t newest_arrival_us) {
  if (ttl_.ttl_us < 0) return 0;
  num::Index freed = 0;
  // The LRU order equals last-arrival order (arrivals are monotone per
  // shard), so expired sessions form a suffix from the tail.
  Session* s = lru_tail_;
  while (s != nullptr &&
         newest_arrival_us - s->last_arrival_us > ttl_.ttl_us) {
    Session* prev = s->lru_prev_;
    if (!s->pinned) {
      // No spill: any future request of an expired session arrives
      // past its TTL, so a record here could never be restored.
      evict(*s, /*spill_state=*/false);
      ++freed;
    }
    s = prev;
  }
  return freed;
}

void SessionStore::commit_step(Session& s, std::uint64_t row_digest) {
  SessionDigest after;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    SessionDigest& d = digests_[s.id];
    fold_row_digest(d, row_digest);
    after = d;
  }
  if (journal_ == nullptr || !journal_->enabled()) return;
  // The kUpdate record is absolute: packed post-step state plus the
  // post-fold digest, so replay needs no arithmetic — and so the last
  // committed record alone fully determines the session.
  pack_state(s);
  journal_->append(store::JournalRecordKind::kUpdate, s.id, s.generation,
                   s.steps, s.last_arrival_us, after.steps, after.digest,
                   spill_h_.data(), spill_c_.data());
  journal_active_.store(journal_->enabled(), std::memory_order_relaxed);
}

void SessionStore::commit_batch() {
  if (journal_ == nullptr || !journal_->enabled()) return;
  journal_->commit();
  journal_active_.store(journal_->enabled(), std::memory_order_relaxed);
}

bool SessionStore::maybe_checkpoint() {
  if (journal_ == nullptr || !journal_->wants_checkpoint()) return false;
  std::vector<store::CheckpointSession> sessions;
  sessions.reserve(sessions_.size());
  // Least-recently-used first, so recovery's push-front replay rebuilds
  // the exact LRU order.
  for (Session* s = lru_tail_; s != nullptr; s = s->lru_prev_) {
    store::CheckpointSession cs;
    cs.id = s->id;
    cs.generation = s->generation;
    cs.steps = s->steps;
    cs.arrival_us = s->last_arrival_us;
    pack_state(*s);
    const auto w = static_cast<std::size_t>(state_width());
    cs.h.assign(spill_h_.data(), spill_h_.data() + w);
    cs.c.assign(spill_c_.data(), spill_c_.data() + w);
    sessions.push_back(std::move(cs));
  }
  std::vector<store::CheckpointDigest> digests;
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    digests.reserve(digests_.size());
    for (const auto& [id, d] : digests_) {
      digests.push_back({id, d.steps, d.digest});
    }
  }
  const bool written = journal_->checkpoint(sessions, digests);
  journal_active_.store(journal_->enabled(), std::memory_order_relaxed);
  return written;
}

void SessionStore::recover_from(store::Journal& journal) {
  ZSS_EXPECTS(sessions_.empty());
  const auto ensure = [this](SessionId id) -> Session& {
    auto [it, inserted] = sessions_.try_emplace(id);
    Session& s = it->second;
    if (inserted) {
      s.id = id;
      s.h.resize(static_cast<std::size_t>(layers_));
      s.c.resize(static_cast<std::size_t>(layers_));
      for (num::Index l = 0; l < layers_; ++l) {
        s.h[static_cast<std::size_t>(l)].resize(1, dh_, 0.0f);
        s.c[static_cast<std::size_t>(l)].resize(1, dh_, 0.0f);
      }
    } else {
      lru_unlink(s);
    }
    lru_push_front(s);
    return s;
  };
  const auto drop = [this](SessionId id) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    lru_unlink(it->second);
    sessions_.erase(it);
  };

  // 1. The checkpoint population, least-recently-used first.
  for (const store::CheckpointSession& cs : journal.checkpoint_sessions()) {
    Session& s = ensure(cs.id);
    s.generation = cs.generation;
    s.steps = cs.steps;
    s.last_arrival_us = cs.arrival_us;
    unpack_state(s, cs.h.data(), cs.c.data());
  }
  {
    std::lock_guard<std::mutex> lock(digest_mu_);
    for (const store::CheckpointDigest& cd : journal.checkpoint_digests()) {
      digests_[cd.id] = SessionDigest{cd.steps, cd.digest};
    }
  }

  // 2. The journal suffix, in LSN order. Every record is applied
  // mechanically — absolute state, no recomputation — so recovery is a
  // pure function of the committed log.
  journal.replay([this, &ensure, &drop](const store::JournalRecord& r) {
    switch (r.kind) {
      case store::JournalRecordKind::kCreate:
      case store::JournalRecordKind::kTtlReset: {
        Session& s = ensure(r.id);
        for (auto& m : s.h) m.fill(0.0f);
        for (auto& m : s.c) m.fill(0.0f);
        s.generation = r.generation;
        s.steps = 0;
        s.last_arrival_us = r.arrival_us;
        break;
      }
      case store::JournalRecordKind::kUpdate: {
        // May re-materialize a session the checkpoint knew as evicted:
        // a spill restore logs nothing, so the first kUpdate after it
        // is the create.
        Session& s = ensure(r.id);
        s.generation = r.generation;
        s.steps = r.steps;
        s.last_arrival_us = r.arrival_us;
        unpack_state(s, r.h, r.c);
        std::lock_guard<std::mutex> lock(digest_mu_);
        digests_[r.id] = SessionDigest{r.digest_steps, r.digest};
        break;
      }
      case store::JournalRecordKind::kEvict:
      case store::JournalRecordKind::kErase:
        drop(r.id);
        break;
    }
  });
  journal.clear_recovered();

  // 3. Reconcile the spill tier: a journal-resident session supersedes
  // any spill record left behind by an eviction the journal later saw
  // returning (restores consume only the RAM index — the reopened file
  // resurrects the entry). Without this, a future eviction-and-return
  // could restore pre-crash state.
  if (spill_ != nullptr) {
    for (const auto& [id, s] : sessions_) spill_->erase(id);
  }

  journal_active_.store(journal.enabled(), std::memory_order_relaxed);
}

SessionDigest SessionStore::digest_of(SessionId id) const {
  std::lock_guard<std::mutex> lock(digest_mu_);
  const auto it = digests_.find(id);
  return it == digests_.end() ? SessionDigest{} : it->second;
}

DigestTable SessionStore::digests_copy() const {
  std::lock_guard<std::mutex> lock(digest_mu_);
  return digests_;
}

Session* SessionStore::find(SessionId id) {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

const Session* SessionStore::find(SessionId id) const {
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace zss::serve
