// One serving shard: a stacked engine, its sessions, and a batcher.
//
// A shard is the unit of parallelism in the pool: it owns everything it
// touches (per-layer engines + workspaces, session store, request
// queue, staging buffers), so shards never share mutable state and the
// pool can run them on one thread each with deterministic results — the
// same shared-nothing partitioning discipline as num::parallel_for,
// applied at the request level instead of the row level. The LstmCells,
// StatePruners and Embedding are borrowed read-only and may back every
// shard.
//
// Determinism guarantee (test-enforced, tests/serve/shard_determinism
// _test.cc): a session's output stream depends only on its own request
// stream, never on which batch-mates or shard served it. This follows
// from the bit-exactness contract (docs/exactness.md) — with the
// per-lane skip path a lane accumulates exactly its own kept positions
// whatever the batch around it — plus one restriction this constructor
// enforces: the pruner
// must be batch-composition-independent (kTargetSparsity derives its
// threshold from a whole-batch quantile, so it is rejected; export a
// trained model's threshold via StatePruner::effective_threshold and
// serve with PrunerConfig::fixed instead).
//
// Zero-allocation contract: once every session in play exists and the
// warm-up batches ran, process_ready()/flush() perform no heap
// allocations (engine reserve() at construction, staging matrices
// resized within capacity, ring-buffered queue).
#pragma once

#include <atomic>
#include <vector>

#include "core/sparse_inference.h"
#include "core/stacked_engine.h"
#include "serve/batcher.h"
#include "serve/model.h"
#include "serve/request.h"
#include "serve/session.h"

namespace zss::serve {

/// Counters for one measurement epoch of a shard (reset_stats() starts
/// a new epoch; the engine's cumulative stats reset with it).
struct ShardStats {
  num::Index requests = 0;
  num::Index batches = 0;
  double busy_us = 0.0;  // wall-clock spent inside step_batch
  /// CPU time this shard's thread spent inside step_batch. Unlike
  /// busy_us this does not count time spent descheduled, so it is the
  /// right numerator for capacity/scaling claims on machines with
  /// fewer cores than shards (bench_serving records both).
  double cpu_us = 0.0;

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }
};

class EngineShard {
 public:
  /// Serves `model` (cells/pruners/embedding borrowed; the pointer
  /// lists are copied, the pointees must outlive the shard). Rejects
  /// batch-composition-dependent pruning — see the determinism note
  /// above. A bounded session store (ttl.max_sessions > 0) must leave
  /// room for every pinned lane plus an eviction victim:
  /// max_sessions > max_batch.
  /// `quant` selects the engines' datapath: default fp32, or the int8
  /// quantized mode (core::QuantConfig::int8()). Quantized shards keep
  /// the full determinism guarantee — every quantization scale is
  /// fixed at construction, so no batch-composition dependence can
  /// enter through the datapath (docs/exactness.md "int8").
  EngineShard(const ServeModel& model, const BatchPolicy& policy,
              sparse::EncoderConfig encoder = {}, SessionTtl ttl = {},
              core::QuantConfig quant = {});

  /// Single-layer convenience (the synthetic-load benches and most
  /// tests): serve one borrowed cell/pruner with one-hot inputs.
  EngineShard(const nn::LstmCell& cell, const core::StatePruner& pruner,
              const BatchPolicy& policy,
              sparse::EncoderConfig encoder = {}, SessionTtl ttl = {},
              core::QuantConfig quant = {});

  void enqueue(const Request& r) { batcher_.enqueue(r); }

  /// Serves at most one batch, and only if the policy says one is due
  /// at `now_us`. Returns the number of requests consumed from the
  /// queue (0 = not due): served ones plus any answered `err timeout`
  /// — every consumed request produces exactly one sink call either
  /// way.
  num::Index process_ready(std::int64_t now_us, const ResponseSink& sink);

  /// Serves everything queued, ignoring max-wait (trace end, shutdown,
  /// closed-loop benches). Batches still respect max_batch and session
  /// conflicts. Returns requests consumed (served + timed out), as
  /// process_ready.
  num::Index flush(std::int64_t now_us, const ResponseSink& sink);

  num::Index pending() const { return batcher_.pending(); }
  const RequestBatcher& batcher() const { return batcher_; }
  const core::StackedEngine& engine() const { return engine_; }
  SessionStore& sessions() { return sessions_; }
  const SessionStore& sessions() const { return sessions_; }

  const ShardStats& stats() const { return stats_; }

  /// Lifetime count of requests answered `err timeout` (deadline
  /// expiry). Relaxed atomic: written by the shard's worker thread,
  /// read by the live server's stats path.
  std::uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

  /// Starts a new measurement epoch: clears the shard counters AND the
  /// engines' cumulative InferenceStats (the documented reset between
  /// batcher epochs — benches call this per configuration).
  void reset_stats();

 private:
  void init(const BatchPolicy& policy);
  /// Answers every popped request whose deadline passed with a
  /// timed_out Response and compacts the rest in place (FIFO order
  /// preserved). Returns the new batch size.
  num::Index drop_expired(num::Index batch, std::int64_t now_us,
                          const ResponseSink& sink);
  num::Index step_batch(std::int64_t now_us, const ResponseSink& sink);
  void build_input(num::Index batch);

  std::vector<const nn::LstmCell*> cells_;
  std::vector<const core::StatePruner*> pruners_;
  const nn::Embedding* embedding_;
  core::StackedEngine engine_;
  SessionStore sessions_;
  RequestBatcher batcher_;
  ShardStats stats_;
  std::atomic<std::uint64_t> timeouts_{0};
  std::vector<Request> batch_;    // reused pop_batch target
  std::vector<Session*> lanes_;   // sessions of the batch being served
  std::vector<std::uint64_t> row_digests_;  // per-lane, reused
  std::vector<num::Index> ids_;   // embedding row indices, reused
  num::Matrix x_;                 // (B x input_dim) staging
  std::vector<num::Matrix> h_;    // per-layer gathered state (B x dh)
  std::vector<num::Matrix> c_;
  num::Matrix dense_top_;         // top layer's dense h (B x dh)
};

}  // namespace zss::serve
