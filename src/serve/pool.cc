#include "serve/pool.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "num/rng.h"

namespace zss::serve {

namespace {

// SplitMix64 — the session ids in a trace are often small consecutive
// integers, so a plain modulo would pile them onto the first shards;
// the mix spreads any id distribution.
std::uint64_t mix64(std::uint64_t x) {
  return num::splitmix64_mix(x + num::kSplitMix64Golden);
}

}  // namespace

EnginePool::EnginePool(const ServeModel& model, const PoolConfig& config) {
  build_shards(model, config);
}

EnginePool::EnginePool(const nn::LstmCell& cell,
                       const core::StatePruner& pruner,
                       const PoolConfig& config) {
  const nn::LstmCell* const cells[] = {&cell};
  const core::StatePruner* const pruners[] = {&pruner};
  ServeModel model;
  model.cells = cells;
  model.pruners = pruners;
  build_shards(model, config);
}

void EnginePool::build_shards(const ServeModel& model,
                              const PoolConfig& config) {
  ZSS_EXPECTS(config.shards >= 1);
  // The journal is a layer on the spill dir (same directory, same
  // shared-nothing file-per-shard layout); journal without a dir is a
  // configuration error, not a silent no-op.
  ZSS_EXPECTS(!config.spill.journal || !config.spill.dir.empty());
  shards_.reserve(static_cast<std::size_t>(config.shards));
  for (num::Index i = 0; i < config.shards; ++i) {
    shards_.push_back(std::make_unique<EngineShard>(
        model, config.policy, config.encoder, config.session_ttl,
        config.quant));
  }
  const EngineShard& first = *shards_.front();
  model_info_.name = model.name;
  model_info_.layers = first.engine().layers();
  model_info_.dh = first.engine().hidden_dim();
  model_info_.vocab =
      model.vocab > 0
          ? model.vocab
          : (model.embedding != nullptr ? model.embedding->vocab()
                                        : first.engine().input_dim());
  model_info_.quant = first.engine().quantized();
  if (config.spill.dir.empty()) return;

  store::Env* env = config.spill.env;
  if (env == nullptr) {
    owned_env_ = std::make_unique<store::PosixEnv>();
    env = owned_env_.get();
  }
  // One segment file (and journal) per shard: the disk tier inherits
  // the pool's shared-nothing partitioning, so no cross-shard
  // synchronization and no interleaved appends. Records are
  // state_width() wide — the L per-layer rows packed side by side
  // (serve/session.h).
  for (num::Index i = 0; i < config.shards; ++i) {
    SessionStore& sessions = shards_[static_cast<std::size_t>(i)]->sessions();
    const std::string base = config.spill.dir + "/shard_" + std::to_string(i);
    store::StoreConfig sc;
    sc.path = base + ".seg";
    sc.encoded = config.spill.encoded;
    spills_.push_back(std::make_unique<store::SegmentStore>(
        *env, sc, sessions.state_width()));
    sessions.set_spill(spills_.back().get());
    if (!config.spill.journal) continue;
    store::JournalConfig jc;
    jc.path = base + ".jnl";
    jc.sync = config.spill.journal_sync;
    jc.checkpoint_bytes = config.spill.journal_checkpoint_bytes;
    journals_.push_back(
        std::make_unique<store::Journal>(*env, jc, sessions.state_width()));
    store::Journal& journal = *journals_.back();
    sessions.set_journal(&journal);
    // Cold recovery: replay this shard's committed history into the
    // fresh store (recover_from also reconciles the spill tier). The
    // spill must already be attached — restored-then-updated sessions
    // erase their stale spill records during the reconcile pass.
    sessions.recover_from(journal);
    recovered_sessions_ += static_cast<std::uint64_t>(sessions.size());
    recovered_max_arrival_us_ =
        std::max(recovered_max_arrival_us_, journal.recovered_max_arrival_us());
  }
}

num::Index EnginePool::shard_of(SessionId id) const {
  return static_cast<num::Index>(mix64(id) %
                                 static_cast<std::uint64_t>(shards_.size()));
}

void EnginePool::enqueue(const Request& r) {
  shards_[static_cast<std::size_t>(shard_of(r.session))]->enqueue(r);
}

num::Index EnginePool::process_ready(std::int64_t now_us,
                                     const ResponseSink& sink) {
  num::Index served = 0;
  for (auto& s : shards_) served += s->process_ready(now_us, sink);
  return served;
}

num::Index EnginePool::flush(std::int64_t now_us, const ResponseSink& sink) {
  num::Index served = 0;
  for (auto& s : shards_) served += s->flush(now_us, sink);
  return served;
}

num::Index EnginePool::drain_parallel(std::int64_t now_us,
                                      std::span<const ResponseSink> shard_sinks) {
  ZSS_EXPECTS(shard_sinks.size() == shards_.size());
  const std::size_t n = shards_.size();
  std::vector<num::Index> served(n, 0);
  std::vector<std::thread> workers;
  workers.reserve(n - 1);
  // Same shape as num::parallel_for: spawn n-1 workers, run the last
  // shard on the calling thread. Shards are shared-nothing, so this is
  // bit-identical to the sequential flush at any thread count.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    workers.emplace_back([this, i, now_us, &shard_sinks, &served] {
      served[i] = shards_[i]->flush(now_us, shard_sinks[i]);
    });
  }
  served[n - 1] = shards_[n - 1]->flush(now_us, shard_sinks[n - 1]);
  for (auto& w : workers) w.join();

  num::Index total = 0;
  for (num::Index s : served) total += s;
  return total;
}

num::Index EnginePool::pending() const {
  num::Index n = 0;
  for (const auto& s : shards_) n += s->pending();
  return n;
}

void EnginePool::reset_stats() {
  for (auto& s : shards_) s->reset_stats();
}

DigestTable EnginePool::merged_digests() const {
  DigestTable out;
  for (const auto& s : shards_) {
    DigestTable t = s->sessions().digests_copy();
    // Hash-pinned sessions: per-shard tables are disjoint, so insert
    // never collides and the union is exact.
    out.insert(t.begin(), t.end());
  }
  return out;
}

std::uint64_t EnginePool::orphans_removed() const {
  std::uint64_t n = 0;
  for (const auto& j : journals_) {
    if (j != nullptr) n += j->orphans_removed();
  }
  return n;
}

}  // namespace zss::serve
