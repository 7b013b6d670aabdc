#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "core/stacked_engine.h"
#include "nn/embedding.h"
#include "nn/lstm_cell.h"
#include "num/parallel.h"
#include "num/rng.h"
#include "serve/pool.h"
#include "serve/trace.h"

// Multi-layer serving determinism: an L-layer model served through the
// pool must be bit-identical to a batch-of-one StackedEngine oracle —
// at any shard count, any max_batch, at any parallel_for thread count,
// with or without an embedding input mapping, fp32 or int8. Under
// TTL/cap churn (which the oracle does not model) shard counts and
// batch sizes must agree with the 1-shard run. These tests drive
// EngineShard::flush() directly — the drain path of the live `flush`
// verb and shutdown (replay settles through process_ready —
// serve/trace.cc).
namespace zss::serve {
namespace {

constexpr num::Index kDx = 6;
constexpr num::Index kDh = 16;

using OutputLog = std::map<SessionId, std::vector<std::vector<float>>>;

/// Restores the global parallel_for worker count on scope exit.
struct ThreadGuard {
  explicit ThreadGuard(int n) { num::set_num_threads(n); }
  ~ThreadGuard() { num::set_num_threads(1); }
};

class StackedShardTest : public ::testing::Test {
 protected:
  StackedShardTest() : rng_(161803) {
    trace_ = synthetic_trace(/*requests=*/180, /*sessions=*/7, /*vocab=*/kDx,
                             /*mean_gap_us=*/40, rng_);
    // Back-to-back same-session arrivals: each one ends its batch at a
    // same-session conflict (serve/batcher.h).
    for (int k = 0; k < 4; ++k) {
      TraceEvent e;
      e.arrival_us = trace_.back().arrival_us;
      e.session = 2;
      e.token = static_cast<num::Index>(k) % kDx;
      trace_.push_back(e);
    }
  }

  void build(num::Index layers) {
    cells_.clear();
    pruners_.clear();
    cell_ptrs_.clear();
    pruner_ptrs_.clear();
    num::Rng rng(42);  // model weights fixed across build() calls
    for (num::Index l = 0; l < layers; ++l) {
      cells_.emplace_back(l == 0 ? kDx : kDh, kDh, rng);
      pruners_.emplace_back(core::PrunerConfig::fixed(
          0.05f + 0.02f * static_cast<float>(l)));
    }
    for (const auto& c : cells_) cell_ptrs_.push_back(&c);
    for (const auto& p : pruners_) pruner_ptrs_.push_back(&p);
  }

  ServeModel model() const {
    ServeModel m;
    m.cells = cell_ptrs_;
    m.pruners = pruner_ptrs_;
    return m;
  }

  /// Ground truth: per-session StackedEngine, batch of one, trace
  /// order. Logs stored top-layer h (what Response.h views) and the
  /// dense top tap (what Response.dense_h views).
  void oracle(num::Index layers, OutputLog& stored, OutputLog& dense) {
    core::StackedEngine engine(cell_ptrs_, pruner_ptrs_);
    struct State {
      std::vector<num::Matrix> h, c;
    };
    std::map<SessionId, State> states;
    num::Matrix x(1, kDx), top;
    for (const TraceEvent& e : trace_) {
      auto [it, fresh] = states.try_emplace(e.session);
      if (fresh) {
        it->second.h.resize(static_cast<std::size_t>(layers));
        it->second.c.resize(static_cast<std::size_t>(layers));
        for (num::Index l = 0; l < layers; ++l) {
          it->second.h[static_cast<std::size_t>(l)].resize(1, kDh, 0.0f);
          it->second.c[static_cast<std::size_t>(l)].resize(1, kDh, 0.0f);
        }
      }
      x.fill(0.0f);
      x(0, e.token % kDx) = 1.0f;
      engine.step(x, it->second.h, it->second.c, &top);
      const auto h_row = it->second.h.back().row(0);
      stored[e.session].emplace_back(h_row.begin(), h_row.end());
      const auto d_row = top.row(0);
      dense[e.session].emplace_back(d_row.begin(), d_row.end());
    }
  }

  /// Enqueues the whole trace and flushes every shard once.
  void run_flush(num::Index shards, num::Index max_batch, OutputLog& stored,
                 OutputLog& dense, SessionTtl ttl = {},
                 core::QuantConfig quant = {}) {
    PoolConfig config;
    config.shards = shards;
    config.policy.max_batch = max_batch;
    config.session_ttl = ttl;
    config.quant = quant;
    EnginePool pool(model(), config);
    std::uint64_t seq = 0;
    for (const TraceEvent& e : trace_) {
      Request r;
      r.session = e.session;
      r.token = e.token;
      r.arrival_us = e.arrival_us;
      r.seq = seq++;
      pool.enqueue(r);
    }
    const ResponseSink sink = [&](const Response& r) {
      stored[r.session].emplace_back(r.h.begin(), r.h.end());
      dense[r.session].emplace_back(r.dense_h.begin(), r.dense_h.end());
    };
    const std::int64_t end_us = trace_.back().arrival_us + 1;
    num::Index served = 0;
    for (num::Index s = 0; s < shards; ++s) {
      served += pool.shard(s).flush(end_us, sink);
    }
    EXPECT_EQ(served, static_cast<num::Index>(trace_.size()));
  }

  num::Rng rng_;
  std::deque<nn::LstmCell> cells_;
  std::deque<core::StatePruner> pruners_;
  std::vector<const nn::LstmCell*> cell_ptrs_;
  std::vector<const core::StatePruner*> pruner_ptrs_;
  std::vector<TraceEvent> trace_;
};

TEST_F(StackedShardTest, LayerSweepMatchesOracleBitwise) {
  for (const num::Index layers : {1, 2, 3}) {
    build(layers);
    OutputLog want_stored, want_dense;
    oracle(layers, want_stored, want_dense);
    for (const num::Index shards : {1, 2}) {
      OutputLog stored, dense;
      run_flush(shards, /*max_batch=*/8, stored, dense);
      EXPECT_EQ(stored, want_stored)
          << "layers " << layers << " shards " << shards;
      EXPECT_EQ(dense, want_dense)
          << "dense tap: layers " << layers << " shards " << shards;
    }
  }
}

TEST_F(StackedShardTest, WorkerThreadsMatchOracleBitwise) {
  // parallel_for splits kernel rows across workers. Values must not
  // move.
  build(3);
  OutputLog want_stored, want_dense;
  oracle(3, want_stored, want_dense);
  for (const int threads : {2, 4}) {
    ThreadGuard guard(threads);
    OutputLog stored, dense;
    run_flush(/*shards=*/1, /*max_batch=*/4, stored, dense);
    EXPECT_EQ(stored, want_stored) << "threads " << threads;
    EXPECT_EQ(dense, want_dense) << "threads " << threads;
  }
}

TEST_F(StackedShardTest, BatchSizeSweepMatchesOracleBitwise) {
  build(2);
  OutputLog want_stored, want_dense;
  oracle(2, want_stored, want_dense);
  for (const num::Index max_batch : {1, 2, 3, 8}) {
    OutputLog stored, dense;
    run_flush(/*shards=*/1, max_batch, stored, dense);
    EXPECT_EQ(stored, want_stored) << "max_batch " << max_batch;
  }
}

TEST_F(StackedShardTest, TtlChurnShardAndBatchInvariant) {
  // Lazy TTL resets depend only on a session's own arrivals, so they
  // may not change with shard count or batch size.
  build(2);
  SessionTtl ttl;
  ttl.ttl_us = 900;  // several resets over the ~7200us trace
  OutputLog want_stored, want_dense;
  run_flush(/*shards=*/1, /*max_batch=*/4, want_stored, want_dense, ttl);
  ThreadGuard guard(3);
  for (const num::Index shards : {1, 2}) {
    for (const num::Index max_batch : {1, 4}) {
      OutputLog stored, dense;
      run_flush(shards, max_batch, stored, dense, ttl);
      EXPECT_EQ(stored, want_stored)
          << "shards " << shards << " max_batch " << max_batch;
      EXPECT_EQ(dense, want_dense)
          << "shards " << shards << " max_batch " << max_batch;
    }
  }
}

TEST_F(StackedShardTest, SessionCapBatchInvariant) {
  // A capped store: eviction may never hit a pinned lane
  // (max_sessions > max_batch is construction-enforced), and the LRU
  // victim depends only on the request prefix, never on batch size.
  // The cap is per shard, so only batch sizes are compared.
  build(2);
  SessionTtl ttl;
  ttl.ttl_us = 1500;
  ttl.max_sessions = 9;
  OutputLog want_stored, want_dense;
  run_flush(/*shards=*/1, /*max_batch=*/4, want_stored, want_dense, ttl);
  ThreadGuard guard(2);
  for (const num::Index max_batch : {1, 2, 8}) {
    OutputLog stored, dense;
    run_flush(/*shards=*/1, max_batch, stored, dense, ttl);
    EXPECT_EQ(stored, want_stored) << "max_batch " << max_batch;
  }
}

TEST_F(StackedShardTest, QuantStackedShardSweepBitwiseIdentical) {
  build(2);
  const core::QuantConfig int8 = core::QuantConfig::int8();
  OutputLog want, want_dense;
  run_flush(/*shards=*/1, /*max_batch=*/8, want, want_dense, {}, int8);
  for (const num::Index shards : {1, 2}) {
    for (const num::Index max_batch : {1, 3}) {
      OutputLog stored, dense;
      run_flush(shards, max_batch, stored, dense, {}, int8);
      EXPECT_EQ(stored, want)
          << "shards " << shards << " max_batch " << max_batch;
    }
  }
}

TEST_F(StackedShardTest, EmbeddingInputMapsTokensToRows) {
  // The embedding path: tokens index rows instead of one-hot columns.
  // Served output must equal a hand-stepped oracle fed embedding rows.
  build(2);
  num::Rng erng(5);
  nn::Embedding embed(/*vocab=*/kDx * 3, /*dim=*/kDx, erng);
  ServeModel m = model();
  m.embedding = &embed;
  m.vocab = embed.vocab();

  PoolConfig config;
  config.policy.max_batch = 4;
  EnginePool pool(m, config);
  EXPECT_EQ(pool.model_info().vocab, embed.vocab());

  std::uint64_t seq = 0;
  for (const TraceEvent& e : trace_) {
    Request r;
    r.session = e.session;
    r.token = e.token;
    r.arrival_us = e.arrival_us;
    r.seq = seq++;
    pool.enqueue(r);
  }
  OutputLog stored;
  const ResponseSink sink = [&](const Response& r) {
    stored[r.session].emplace_back(r.h.begin(), r.h.end());
  };
  pool.shard(0).flush(trace_.back().arrival_us + 1, sink);

  core::StackedEngine engine(cell_ptrs_, pruner_ptrs_);
  struct State {
    std::vector<num::Matrix> h, c;
  };
  std::map<SessionId, State> states;
  OutputLog want;
  num::Matrix x;
  std::vector<num::Index> id(1);
  for (const TraceEvent& e : trace_) {
    auto [it, fresh] = states.try_emplace(e.session);
    if (fresh) {
      it->second.h.resize(2);
      it->second.c.resize(2);
      for (int l = 0; l < 2; ++l) {
        it->second.h[l].resize(1, kDh, 0.0f);
        it->second.c[l].resize(1, kDh, 0.0f);
      }
    }
    id[0] = e.token % embed.vocab();
    embed.forward(id, x);
    engine.step(x, it->second.h, it->second.c);
    const auto row = it->second.h.back().row(0);
    want[e.session].emplace_back(row.begin(), row.end());
  }
  EXPECT_EQ(stored, want);
}

}  // namespace
}  // namespace zss::serve
