#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/sparse_inference.h"
#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "nn/packed_weights.h"
#include "num/kernels.h"
#include "num/rng.h"
#include "quant/quantize.h"
#include "serve/pool.h"
#include "serve/protocol.h"
#include "serve/shard.h"
#include "serve/worker.h"
#include "sparse/encoding.h"
#include "store/io.h"
#include "store/journal.h"
#include "store/segment_store.h"

namespace perfbench {

namespace {

using namespace zss;

/// Upper bound on the lanes the microbenchmarks replay, so the traced
/// run's length does not grow with the offered rate.
constexpr std::size_t kMaxLanes = 6000;
/// Request-id ranges of the span families (ids must not collide: the
/// self-time pass groups spans by request id).
constexpr std::uint64_t kBatchIds = std::uint64_t{1} << 32;
constexpr std::uint64_t kProtocolIds = std::uint64_t{2} << 32;
constexpr std::uint64_t kJournalIds = std::uint64_t{3} << 32;
constexpr std::uint64_t kSpillIds = std::uint64_t{4} << 32;

struct SinkRec {
  std::uint64_t seq = 0;
  std::uint64_t session = 0;
  int batch = 0;
  std::uint64_t digest = 0;
};

struct Composition {
  std::vector<std::uint64_t> sessions;
  std::vector<int> tokens;
};

/// The served model, built exactly as zss_serve builds its random cell.
struct Model {
  explicit Model(const Workload& w)
      : rng(kModelSeed),
        cell(w.dx, w.dh, rng),
        pruner(core::PrunerConfig::fixed(w.threshold)) {
    if (w.quant) quant = core::QuantConfig::int8();
  }
  num::Rng rng;
  nn::LstmCell cell;
  core::StatePruner pruner;
  core::QuantConfig quant;
};

/// Times the engine's phases by calling, on copies of one batch's
/// state, the same public kernels SparseLstmEngine::step calls, in the
/// same order. Elementwise work (gates, cell update, requant/LUT) has
/// no public entry point; it is the remainder of engine.step.
class PhaseReplica {
 public:
  PhaseReplica(const core::SparseLstmEngine& engine, const Workload& w,
               const core::StatePruner& pruner)
      : engine_(engine), w_(w), pruner_(pruner) {}

  void run(const num::Matrix& x, const num::Matrix& h, SpanLog* spans,
           std::uint64_t id) {
    const num::Index B = x.rows();
    const num::Index dh = w_.dh;
    auto timed = [&](int name, auto&& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      spans->add(name, -1, t0, now_ns(), id);
    };
    if (!w_.quant) {
      const nn::PackedLstmWeights& pw = engine_.packed_weights();
      pre_.resize(B, 4 * dh);
      pre_h_.resize(B, 4 * dh);
      timed(input_, [&] {
        num::gemm(x, pw.wxt, pre_);
        num::add_bias_rows(pre_, pw.bias.span());
      });
      if (B == 1) {
        timed(encode_, [&] {
          sparse::encode_into(h, sparse::EncoderConfig{}, enc_);
          positions_.clear();
          num::Index pos = 0;
          for (const auto& e : enc_.entries) {
            pos += e.offset;
            positions_.push_back(pos++);
          }
        });
        timed(state_, [&] {
          pre_h_.fill(0.0f);
          num::sparse_accum_rows(pw.wht, positions_, enc_.values, pre_h_);
          num::axpy(1.0f, pre_h_.flat(), pre_.flat());
        });
      } else {
        timed(encode_, [&] { sparse::encode_lanes_into(h, lanes_); });
        timed(state_, [&] {
          num::sparse_accum_rows_multi_overwrite(
              pw.wht, lanes_.positions, lanes_.row_start, lanes_.values,
              pre_h_);
          num::axpy(1.0f, pre_h_.flat(), pre_.flat());
        });
      }
    } else {
      const nn::PackedLstmWeightsI8& pw = *engine_.packed_weights_i8();
      const quant::QuantParams grid{nn::PackedLstmWeightsI8::kStateScale};
      xq_.reshape(B, x.cols());
      hq_.reshape(B, dh);
      pre_i_.reshape(B, 4 * dh);
      pre_h_i_.reshape(B, 4 * dh);
      timed(input_, [&] {
        quant::quantize(x.flat(), grid, xq_.flat());
        num::gemm_a_bt_i8(xq_, pw.wx, pre_i_);
      });
      if (B == 1) {
        timed(encode_, [&] {
          quant::quantize(h.flat(), grid, hq_.flat());
          sparse::encode_into(hq_, sparse::EncoderConfig{}, enc8_);
          positions_.clear();
          num::Index pos = 0;
          for (const auto& e : enc8_.entries) {
            pos += e.offset;
            positions_.push_back(pos++);
          }
        });
        timed(state_, [&] {
          pre_h_i_.fill(0);
          num::sparse_accum_rows_i8(pw.wht, positions_, enc8_.values,
                                    pre_h_i_);
        });
      } else {
        timed(encode_, [&] {
          quant::quantize(h.flat(), grid, hq_.flat());
          sparse::encode_lanes_into(hq_, lanes8_);
        });
        timed(state_, [&] {
          pre_h_i_.fill(0);
          num::sparse_accum_rows_multi_i8(pw.wht, lanes8_.positions,
                                          lanes8_.row_start, lanes8_.values,
                                          pre_h_i_);
        });
      }
    }
    pruned_ = h;
    timed(prune_, [&] { pruner_.prune_inplace(pruned_, prune_scratch_); });
  }

 private:
  const core::SparseLstmEngine& engine_;
  const Workload& w_;
  const core::StatePruner& pruner_;
  const int input_ = SpanLog::id("phase.matvec_input");
  const int state_ = SpanLog::id("phase.matvec_state");
  const int encode_ = SpanLog::id("phase.encode");
  const int prune_ = SpanLog::id("phase.prune");
  num::Matrix pre_, pre_h_, pruned_;
  num::MatrixI8 xq_, hq_;
  num::MatrixI32 pre_i_, pre_h_i_;
  sparse::EncodedState<float> enc_;
  sparse::LaneEncodedState<float> lanes_;
  sparse::EncodedState<std::int8_t> enc8_;
  sparse::LaneEncodedState<std::int8_t> lanes8_;
  std::vector<num::Index> positions_;
  std::vector<float> prune_scratch_;
};

/// Splits each shard's response sequence into its batches: the sink
/// sees a batch of B lanes as B consecutive calls carrying batch == B.
std::vector<Composition> compositions(
    const std::vector<std::vector<SinkRec>>& per_shard,
    const std::vector<PlanEntry>& plan) {
  std::vector<std::vector<Composition>> split(per_shard.size());
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const auto& recs = per_shard[s];
    for (std::size_t i = 0; i < recs.size();) {
      const std::size_t b = static_cast<std::size_t>(std::max(1, recs[i].batch));
      Composition c;
      for (std::size_t k = i; k < std::min(recs.size(), i + b); ++k) {
        c.sessions.push_back(recs[k].session);
        c.tokens.push_back(plan[recs[k].seq].token);
      }
      split[s].push_back(std::move(c));
      i += b;
    }
  }
  // Interleave the shards' batches, up to kMaxLanes lanes.
  std::vector<Composition> out;
  std::size_t lanes = 0;
  for (std::size_t k = 0; lanes < kMaxLanes; ++k) {
    bool any = false;
    for (auto& v : split) {
      if (k >= v.size()) continue;
      any = true;
      lanes += v[k].sessions.size();
      out.push_back(v[k]);
    }
    if (!any) break;
  }
  return out;
}

double mean_us(const std::map<std::string, SelfTime>& st,
               const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? 0.0 : it->second.mean_us();
}

double total_us(const std::map<std::string, SelfTime>& st,
                const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? 0.0 : it->second.total_ns / 1e3;
}

}  // namespace

bool run_layers(const Workload& w, const std::vector<PlanEntry>& plan,
                const std::string& work_dir,
                SpanLog* spans, LayerResult* out, std::string* error) {
  Model model(w);
  serve::PoolConfig pc;
  pc.shards = kShards;
  pc.policy.max_batch = kMaxBatch;
  pc.session_ttl.max_sessions = w.max_sessions;
  pc.quant = model.quant;
  if (w.journal) {
    // The socket run's directory: the pool recovers that run's
    // sessions, as a restarted server would.
    pc.spill.dir = work_dir + "/spill";
    pc.spill.journal = true;
    pc.spill.journal_sync = store::JournalSync::kNone;  // as zss_serve runs
  }
  serve::EnginePool pool(model.cell, model.pruner, pc);

  auto journal_counts = [&](std::uint64_t* appended, std::uint64_t* commits) {
    *appended = *commits = 0;
    for (num::Index i = 0; i < pool.num_shards(); ++i) {
      if (const store::Journal* j = pool.journal(i)) {
        *appended += j->appended();
        *commits += j->commits();
      }
    }
  };
  std::uint64_t app0 = 0, com0 = 0, app1 = 0, com1 = 0;
  journal_counts(&app0, &com0);

  // --- In-process open loop: LiveServer::submit -> sink. ---
  const int span_request = SpanLog::id("request");
  const int span_lag = SpanLog::id("loadgen.lag");
  const int span_submit = SpanLog::id("live.submit");
  const int span_wait = SpanLog::id("worker.queue_wait");
  const int span_step = SpanLog::id("shard.step");
  std::vector<std::vector<SinkRec>> recs(kShards);
  std::vector<SpanLog> shard_spans(kShards);
  for (auto& r : recs) r.reserve(plan.size());
  for (auto& s : shard_spans) s.reserve(3 * plan.size());
  std::vector<double> latency_us, queue_us;
  latency_us.reserve(plan.size());
  std::int64_t t0 = 0;
  SpanLog submit_spans;
  submit_spans.reserve(2 * plan.size());
  {
    const serve::ResponseSink sink = [&](const serve::Response& r) {
      const std::int64_t t = now_ns();
      const auto sh = static_cast<std::size_t>(pool.shard_of(r.session));
      recs[sh].push_back(SinkRec{r.seq, r.session, static_cast<int>(r.batch),
                                 r.row_digest});
      SpanLog& sp = shard_spans[sh];
      const std::int64_t done_ns = r.done_us * 1000;
      sp.add(span_request, -1, t0 + plan[r.seq].due_ns, t, r.seq);
      sp.add(span_wait, span_request, r.arrival_us * 1000, done_ns, r.seq);
      sp.add(span_step, span_request, done_ns,
             done_ns + static_cast<std::int64_t>(r.service_us * 1e3), r.seq);
    };
    serve::LiveConfig lc;
    lc.now_us = [] { return now_ns() / 1000; };
    // Worker threads inherit the creating thread's CPU set.
    pin_to_server_cpus();
    serve::LiveServer server(pool, sink, lc);
    pin_to_generator_cpu();
    t0 = now_ns() + 1000000;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::int64_t due = t0 + plan[i].due_ns;
      while (now_ns() < due) {
      }
      const std::int64_t t1 = now_ns();
      serve::SubmitStatus status = serve::SubmitStatus::kOk;
      const auto seq = server.submit(plan[i].session, plan[i].token, 0, &status);
      const std::int64_t t2 = now_ns();
      if (!seq.has_value() || *seq != i) {
        server.shutdown();
        *error = "in-process submit was refused or out of order";
        return false;
      }
      submit_spans.add(span_lag, span_request, due, t1, i);
      submit_spans.add(span_submit, span_request, t1, t2, i);
    }
    server.shutdown();
  }
  journal_counts(&app1, &com1);
  for (const SpanLog& s : shard_spans) spans->merge(s);
  spans->merge(submit_spans);
  std::uint64_t inproc_requests = 0;
  for (const auto& r : recs) inproc_requests += r.size();
  if (inproc_requests != plan.size()) {
    *error = "in-process run lost responses";
    return false;
  }
  for (const Span& s : spans->spans()) {
    if (s.name == span_request) {
      latency_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    } else if (s.name == span_wait) {
      queue_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  out->inproc_p50_us = percentile(latency_us, 0.5);
  core::InferenceStats es;
  for (num::Index i = 0; i < pool.num_shards(); ++i) {
    const core::InferenceStats s = pool.shard(i).engine().stats();
    es.state_macs_total += s.state_macs_total;
    es.state_macs_effectual += s.state_macs_effectual;
    es.lane_kept_positions += s.lane_kept_positions;
    es.lane_positions += s.lane_positions;
  }

  // --- Shard, engine and phases at the run's batch compositions. ---
  const std::vector<Composition> comps = compositions(recs, plan);
  serve::BatchPolicy policy;
  policy.max_batch = kMaxBatch;
  serve::EngineShard shard(model.cell, model.pruner, policy, {}, {},
                           model.quant);
  core::SparseLstmEngine engine(model.cell, model.pruner, {}, model.quant);
  engine.reserve(kMaxBatch);
  PhaseReplica replica(engine, w, model.pruner);
  const serve::ResponseSink noop = [](const serve::Response&) {};
  const int span_flush = SpanLog::id("shard.flush");
  const int span_estep = SpanLog::id("engine.step");
  const int span_dense = SpanLog::id("engine.dense_step");
  std::int64_t arrival = 0;
  std::uint64_t seq = 0;
  auto enqueue = [&](const Composition& c) {
    for (std::size_t k = 0; k < c.sessions.size(); ++k) {
      serve::Request r;
      r.session = c.sessions[k];
      r.token = c.tokens[k];
      r.arrival_us = ++arrival;
      r.seq = seq++;
      shard.enqueue(r);
    }
  };
  // Pass 1 gives every session its history, so pass 2 sees the state
  // sparsity the live run saw rather than fresh zero states.
  for (const Composition& c : comps) {
    enqueue(c);
    shard.flush(arrival, noop);
  }
  num::Matrix x, h, c, hs, cs;
  std::size_t lanes = 0;
  for (std::size_t b = 0; b < comps.size(); ++b) {
    const Composition& comp = comps[b];
    const auto B = static_cast<num::Index>(comp.sessions.size());
    x.resize(B, w.dx);
    x.fill(0.0f);
    h.resize(B, w.dh);
    c.resize(B, w.dh);
    for (num::Index r = 0; r < B; ++r) {
      const serve::Session* s =
          shard.sessions().find(comp.sessions[static_cast<std::size_t>(r)]);
      if (s == nullptr) {
        *error = "replayed session missing from the shard";
        return false;
      }
      const auto sh = s->h[0].row(0);
      const auto sc = s->c[0].row(0);
      std::copy(sh.begin(), sh.end(), h.row(r).begin());
      std::copy(sc.begin(), sc.end(), c.row(r).begin());
      x(r, comp.tokens[static_cast<std::size_t>(r)] % w.dx) = 1.0f;
    }
    const std::uint64_t id = kBatchIds + b;
    enqueue(comp);
    std::int64_t t1 = now_ns();
    shard.flush(arrival, noop);
    spans->add(span_flush, -1, t1, now_ns(), id);
    hs = h;
    cs = c;
    t1 = now_ns();
    engine.step(x, hs, cs);
    spans->add(span_estep, -1, t1, now_ns(), id);
    hs = h;
    cs = c;
    t1 = now_ns();
    engine.step_dense(x, hs, cs);
    spans->add(span_dense, -1, t1, now_ns(), id);
    replica.run(x, h, spans, id);
    lanes += comp.sessions.size();
  }

  // Full batches of distinct sessions, whatever the run's compositions:
  // the engine's cost at B = kMaxBatch, printed for the workload note.
  {
    SpanLog full;
    std::vector<std::uint64_t> ids;
    for (const Composition& comp : comps) {
      ids.insert(ids.end(), comp.sessions.begin(), comp.sessions.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const std::size_t batches_full =
        std::min<std::size_t>(200, ids.size() / kMaxBatch);
    x.resize(kMaxBatch, w.dx);
    h.resize(kMaxBatch, w.dh);
    c.resize(kMaxBatch, w.dh);
    for (std::size_t b = 0; b < batches_full; ++b) {
      x.fill(0.0f);
      for (num::Index r = 0; r < kMaxBatch; ++r) {
        const serve::Session* s =
            shard.sessions().find(ids[b * kMaxBatch + static_cast<std::size_t>(r)]);
        const auto sh = s->h[0].row(0);
        const auto sc = s->c[0].row(0);
        std::copy(sh.begin(), sh.end(), h.row(r).begin());
        std::copy(sc.begin(), sc.end(), c.row(r).begin());
        x(r, static_cast<num::Index>(b + static_cast<std::size_t>(r)) % w.dx) = 1.0f;
      }
      hs = h;
      cs = c;
      std::int64_t t1 = now_ns();
      engine.step(x, hs, cs);
      full.add(span_estep, -1, t1, now_ns(), b);
      hs = h;
      cs = c;
      t1 = now_ns();
      engine.step_dense(x, hs, cs);
      full.add(span_dense, -1, t1, now_ns(), b);
      replica.run(x, h, &full, b);
    }
    const auto fs = full.self_times();
    std::printf("engine at B=%d (%zu batches): step_us=%.1f dense_step_us=%.1f "
                "matvec_input_us=%.1f matvec_state_us=%.1f encode_us=%.1f "
                "prune_us=%.1f\n",
                kMaxBatch, batches_full, mean_us(fs, "engine.step"),
                mean_us(fs, "engine.dense_step"),
                mean_us(fs, "phase.matvec_input"),
                mean_us(fs, "phase.matvec_state"), mean_us(fs, "phase.encode"),
                mean_us(fs, "phase.prune"));
  }

  // --- Protocol: parse the run's request lines, format its responses. ---
  const int span_parse = SpanLog::id("protocol.parse");
  const int span_format = SpanLog::id("protocol.format");
  constexpr std::size_t kChunk = 256;
  std::vector<std::string> lines;
  lines.reserve(plan.size());
  for (const PlanEntry& e : plan) {
    lines.push_back("step " + std::to_string(e.session) + " " +
                    std::to_string(e.token));
  }
  std::size_t chunk = 0;
  for (std::size_t i = 0; i < lines.size(); i += kChunk, ++chunk) {
    serve::CommandLine cmd;
    const std::int64_t t1 = now_ns();
    for (std::size_t k = i; k < std::min(lines.size(), i + kChunk); ++k) {
      serve::parse_command(lines[k], cmd, nullptr);
    }
    spans->add(span_parse, -1, t1, now_ns(), kProtocolIds + chunk);
  }
  std::vector<SinkRec> all_recs;
  for (const auto& r : recs) all_recs.insert(all_recs.end(), r.begin(), r.end());
  std::size_t formatted_bytes = 0;
  for (std::size_t i = 0; i < all_recs.size(); i += kChunk, ++chunk) {
    const std::int64_t t1 = now_ns();
    for (std::size_t k = i; k < std::min(all_recs.size(), i + kChunk); ++k) {
      serve::Response r;
      r.session = all_recs[k].session;
      r.seq = all_recs[k].seq;
      r.batch = all_recs[k].batch;
      formatted_bytes += serve::format_response(r, all_recs[k].digest).size();
    }
    spans->add(span_format, -1, t1, now_ns(), kProtocolIds + chunk);
  }

  // --- Journal and spill tier, at the run's compositions (durable only:
  // elsewhere neither is on the request path). ---
  const int span_append = SpanLog::id("journal.append");
  const int span_commit = SpanLog::id("journal.commit");
  const int span_put = SpanLog::id("spill.put");
  const int span_get = SpanLog::id("spill.get");
  double bytes_per_record = 0.0;
  if (w.journal) {
    store::PosixEnv env;
    const std::string jdir = work_dir + "/journal_bench";
    std::filesystem::create_directories(jdir);
    // Always with fsync: journal.commit_us is the price of the
    // group-commit sync, whatever the served workload's --journal-sync.
    store::JournalConfig jc;
    jc.path = jdir + "/bench.jnl";
    jc.sync = store::JournalSync::kBatch;
    store::Journal journal(env, jc, w.dh);
    store::StoreConfig sc;
    sc.path = jdir + "/bench.seg";
    store::SegmentStore seg(env, sc, w.dh);
    if (!journal.enabled() || !seg.spilling_enabled()) {
      *error = "cannot open the journal/segment benchmark files";
      return false;
    }
    const std::uint64_t bytes0 = journal.file_bytes();
    std::uint64_t records = 0;
    num::Matrix h1(1, w.dh), c1(1, w.dh);
    for (std::size_t b = 0; b < comps.size(); ++b) {
      for (const std::uint64_t sid : comps[b].sessions) {
        const serve::Session* s = shard.sessions().find(sid);
        const std::int64_t t1 = now_ns();
        journal.append(store::JournalRecordKind::kUpdate, sid, 0, s->steps,
                       s->last_arrival_us, s->steps, 0, s->h[0].row(0).data(),
                       s->c[0].row(0).data());
        spans->add(span_append, -1, t1, now_ns(), kJournalIds + records);
        ++records;
      }
      const std::int64_t t1 = now_ns();
      journal.commit();
      spans->add(span_commit, -1, t1, now_ns(), kJournalIds + records + b);
    }
    bytes_per_record = records == 0 ? 0.0
                                    : static_cast<double>(journal.file_bytes() -
                                                          bytes0) /
                                          static_cast<double>(records);
    // Spill every distinct session once, then restore each.
    std::vector<std::uint64_t> ids;
    for (const Composition& comp : comps) {
      ids.insert(ids.end(), comp.sessions.begin(), comp.sessions.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const serve::Session* s = shard.sessions().find(ids[i]);
      store::RecordMeta meta;
      meta.steps = s->steps;
      meta.arrival_us = s->last_arrival_us;
      const std::int64_t t1 = now_ns();
      seg.spill(ids[i], meta, s->h[0], s->c[0]);
      spans->add(span_put, -1, t1, now_ns(), kSpillIds + i);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      store::RecordMeta meta;
      const std::int64_t t1 = now_ns();
      seg.restore_into(ids[i], &meta, h1, c1);
      spans->add(span_get, -1, t1, now_ns(), kSpillIds + ids.size() + i);
    }
  }

  // --- Metrics from the spans. ---
  const auto st = spans->self_times();
  const double step_us = mean_us(st, "engine.step");
  const double dense_us = mean_us(st, "engine.dense_step");
  const double input_us = mean_us(st, "phase.matvec_input");
  const double state_us = mean_us(st, "phase.matvec_state");
  const double encode_us = mean_us(st, "phase.encode");
  const double prune_us = mean_us(st, "phase.prune");
  const double batches = static_cast<double>(std::max<std::size_t>(1, comps.size()));
  const auto req = st.find("request");
  const double unattributed =
      req == st.end() || req->second.total_ns == 0.0
          ? 0.0
          : req->second.self_ns / req->second.total_ns;
  const double appended = static_cast<double>(app1 - app0);
  const double commits = static_cast<double>(com1 - com0);
  auto frac = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };

  std::vector<double> q = queue_us;
  auto& m = out->metrics;
  m.push_back({"protocol.parse_ns", "ns",
               total_us(st, "protocol.parse") * 1e3 /
                   static_cast<double>(std::max<std::size_t>(1, lines.size()))});
  m.push_back({"protocol.format_ns", "ns",
               total_us(st, "protocol.format") * 1e3 /
                   static_cast<double>(std::max<std::size_t>(1, all_recs.size()))});
  m.push_back({"worker.queue_wait_p50_us", "us", percentile(q, 0.50)});
  m.push_back({"worker.queue_wait_p99_us", "us", percentile(q, 0.99)});
  m.push_back({"shard.flush_us_per_req", "us",
               total_us(st, "shard.flush") /
                   static_cast<double>(std::max<std::size_t>(1, lanes))});
  m.push_back({"shard.gather_scatter_us", "us",
               (total_us(st, "shard.flush") - total_us(st, "engine.step")) /
                   batches});
  m.push_back({"engine.step_us", "us", step_us});
  m.push_back({"engine.dense_step_us", "us", dense_us});
  m.push_back({"engine.skip_speedup", "x", frac(dense_us, step_us)});
  m.push_back({"engine.lane_sparsity", "frac",
               1.0 - frac(static_cast<double>(es.lane_kept_positions),
                          static_cast<double>(es.lane_positions))});
  m.push_back({"engine.mac_ratio", "frac",
               frac(static_cast<double>(es.state_macs_effectual),
                    static_cast<double>(es.state_macs_total))});
  m.push_back({"phase.matvec_input_us", "us", input_us});
  m.push_back({"phase.matvec_state_us", "us", state_us});
  m.push_back({"phase.elementwise_us", "us",
               step_us - input_us - state_us - encode_us - prune_us});
  m.push_back({"phase.encode_us", "us", encode_us});
  m.push_back({"phase.prune_us", "us", prune_us});
  m.push_back({"phase.matvec_state_share", "frac", frac(state_us, step_us)});
  m.push_back({"journal.append_us", "us", mean_us(st, "journal.append")});
  m.push_back({"journal.commit_us", "us", mean_us(st, "journal.commit")});
  m.push_back({"journal.records_per_commit", "count", frac(appended, commits)});
  m.push_back({"journal.bytes_per_req", "B",
               bytes_per_record *
                   frac(appended, static_cast<double>(inproc_requests))});
  m.push_back({"spill.put_us", "us", mean_us(st, "spill.put")});
  m.push_back({"spill.get_us", "us", mean_us(st, "spill.get")});
  m.push_back({"trace.unattributed_frac", "frac", unattributed});
  std::printf("layers: in-process p50_us=%.1f (n=%zu) replayed %zu batches "
              "(%zu lanes); %zu response bytes formatted\n",
              out->inproc_p50_us, latency_us.size(), comps.size(), lanes,
              formatted_bytes);
  return true;
}

}  // namespace perfbench
