// perfbench — the serving benchmark. Drives a live `zss_serve --live
// --socket` with seeded traffic and prints one JSON result line.
//
//   perfbench --serve=PATH --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--size=tiny] [--commit=ID]
//
// --trace=0 measures the end-to-end metrics (setup, open-loop latency,
// closed-loop throughput, CPU per request, peak RSS). --trace=1 is a
// separate run of the same seeded plan that records spans and prints
// the per-layer metrics instead. Both check every response against a
// 1-shard replay of exactly the requests sent, and exit non-zero on any
// mismatch. Files go to .bench_work/<workload>/ under the working
// directory.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"
#include "loadgen.h"
#include "num/simd/backend.h"
#include "server.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string serve;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    std::string v;
    const std::size_t eq = s.find('=');
    if (eq != std::string::npos) {
      v = s.substr(eq + 1);
      s = s.substr(0, eq);
    } else if (i + 1 < argc) {
      v = argv[++i];
    }
    if (s == "--serve") {
      a->serve = v;
    } else if (s == "--workload") {
      a->workload = v;
    } else if (s == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (s == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (s == "--trace") {
      a->trace = v == "1";
    } else if (s == "--size") {
      a->tiny = v == "tiny";
    } else if (s == "--commit") {
      a->commit = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", s.c_str());
      return false;
    }
  }
  return !a->serve.empty() && !a->workload.empty() && a->seconds > 0.0;
}

/// Counter deltas of the `stat` verb between two snapshots.
double stat_delta(const std::map<std::string, std::string>& a,
                  const std::map<std::string, std::string>& b,
                  const std::string& key) {
  auto get = [&](const std::map<std::string, std::string>& m) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  };
  return get(b) - get(a);
}

struct Latency {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  std::size_t n = 0, beyond_p99 = 0;
};

Latency latency_of(std::vector<double> v) {
  Latency l;
  l.n = v.size();
  l.p50 = percentile(v, 0.50);
  l.p90 = percentile(v, 0.90);
  l.p99 = percentile(v, 0.99, &l.beyond_p99);
  return l;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("phase %-8s sent=%" PRIu64 " ok=%" PRIu64 " err=%" PRIu64
              " unanswered=%" PRIu64 "\n",
              name, r.sent, r.ok, r.err, r.unanswered);
}

/// Batch-weighted batch statistics from the `ok` lines: a batch of B
/// lanes shows up as B lines carrying B.
void batch_stats(const std::vector<int>& per_response, double* mean,
                 double* full_frac) {
  double batches = 0.0, full = 0.0;
  for (const int b : per_response) {
    if (b <= 0) continue;
    batches += 1.0 / b;
    if (b == kMaxBatch) full += 1.0 / b;
  }
  *mean = batches == 0.0 ? 0.0
                         : static_cast<double>(per_response.size()) / batches;
  *full_frac = batches == 0.0 ? 0.0 : full / batches;
}

class Run {
 public:
  Run(const Args& a, const Workload& w)
      : a_(a), w_(w), work_(".bench_work/" + w.name) {}

  int main() {
    std::error_code ec;
    std::filesystem::remove_all(work_, ec);
    std::filesystem::create_directories(work_, ec);
    if (ec) return fail("cannot create " + work_);
    const int nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("perfbench workload=%s seed=%" PRIu64
                " seconds=%g trace=%d size=%s kernel_backend=%s nproc=%d "
                "commit=%s build_type=%s\n",
                w_.name.c_str(), a_.seed, a_.seconds, a_.trace ? 1 : 0,
                a_.tiny ? "tiny" : "full",
                zss::num::simd::active_backend().name, nproc,
                a_.commit.c_str(), PERFBENCH_BUILD_TYPE);

    const KeepAwake awake;
    pin_to_generator_cpu();
    if (w_.warm_requests > 0 && !warm()) return fail(error_);
    if (!setup(a_.trace ? 1 : kSetups)) return fail(error_);
    const bool ok = a_.trace ? traced() : untraced();
    if (!ok) return fail(error_);
    return finish();
  }

 private:
  int fail(const std::string& why) {
    server_.kill_hard();
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    return 2;
  }

  bool start_server() {
    if (!server_.start(a_.serve,
                       live_flags(w_, work_ + "/s.sock", work_ + "/spill"),
                       work_ + "/server.log")) {
      error_ = "cannot exec " + a_.serve;
      return false;
    }
    if (!lg_.connect(work_ + "/s.sock", 60000, &error_)) {
      error_ = "cannot connect: " + error_;
      return false;
    }
    return true;
  }

  bool stop_server() {
    lg_.quit();
    if (!server_.wait_exit(60000)) {
      error_ = "server did not exit after quit";
      return false;
    }
    return true;
  }

  /// durable_zipf step 1: populate the journal, untimed, then quit. Sent
  /// open loop at a fixed rate, so the warm server's uptime — which the
  /// restarted server's first partial batch waits out (its arrival
  /// stamps start at the recovered newest stamp) — is the same in every
  /// run.
  bool warm() {
    if (!start_server()) return false;
    Workload warm = w_;
    warm.open_rps = kWarmRps;
    zss::num::Rng rng(a_.seed ^ 0x5741);
    const PhaseResult r = lg_.open_loop(
        open_plan(warm, w_.warm_requests / kWarmRps, rng), nullptr);
    print_phase("warm", r);
    count(r);
    return stop_server();
  }

  /// Exec -> first ok, `n` times; the last server stays up. Without a
  /// journal every start is a fresh lineage, so only the last one's
  /// requests are checked by the oracle.
  bool setup(int n) {
    for (int k = 0; k < n; ++k) {
      if (!w_.journal) lg_.clear_log();
      if (!start_server()) return false;
      const std::int64_t t_ok = lg_.step_sync(kProbeSessionBase + k, 0, 60000);
      if (t_ok == 0) {
        error_ = "setup probe got no ok";
        return false;
      }
      setups_s_.push_back(static_cast<double>(t_ok - server_.started_ns()) /
                          1e9);
      ++attempted_;
      if (k + 1 < n && !stop_server()) return false;
    }
    return true;
  }

  /// Applies the validity rule of common.h to one round (or pass).
  bool round_valid(const char* what, int r, double lag_p99, double steal_pct) {
    if (lag_p99 <= kMaxLagP99Us && steal_pct <= kMaxStealPct) return true;
    std::printf("%s %d INVALID: lag_p99_us %.1f (bound %.0f), host steal "
                "%.1f%% (bound %.0f%%); repeated\n",
                what, r, lag_p99, kMaxLagP99Us, steal_pct, kMaxStealPct);
    return false;
  }

  void count(const PhaseResult& r) {
    attempted_ += r.sent;
    failed_ += r.err + r.unanswered;
  }

  /// kRounds interleaved rounds of (open-loop segment, closed-loop
  /// segment), so slow drift of a shared machine reaches both phases
  /// alike. Every metric is the median over rounds of that round's
  /// value, so one round caught in a host stall (a multi-second fsync
  /// on a shared virtual disk has been seen) does not move the result.
  /// The tail metric is p90: on a shared virtual machine p99 is set by
  /// host preemptions and did not repeat within a quarter across seeds;
  /// it is printed over all valid rounds' samples, with its count. An
  /// invalid round (common.h: generator late, or host steal) is
  /// reported, left out and repeated, at most kSpareRounds times; with
  /// fewer than kMinRounds valid rounds the run is invalid.
  bool untraced() {
    zss::num::Rng rng(a_.seed);
    std::vector<double> p50, p90, cpu, sat, lag, latency;
    int valid = 0;
    for (int r = 0; valid < kRounds && r < kRounds + kSpareRounds; ++r) {
      const auto plan = open_plan(w_, kOpenShare * a_.seconds / kRounds, rng);
      const StealMeter steal;
      const double cpu0 = server_.cpu_seconds();
      const PhaseResult open = lg_.open_loop(plan, nullptr);
      const double cpu1 = server_.cpu_seconds();
      count(open);
      const PhaseResult closed =
          lg_.closed_loop(w_, (1.0 - kOpenShare) * a_.seconds / kRounds,
                          a_.seed * (kRounds + kSpareRounds) + r);
      count(closed);
      const double steal_pct = steal.pct();
      const double round_cpu =
          open.ok == 0 ? 0.0
                       : (cpu1 - cpu0) * 1e6 / static_cast<double>(open.ok);
      const double round_sat =
          static_cast<double>(closed.ok_in_window) / closed.seconds;
      const Latency lat = latency_of(open.latency_us);
      std::vector<double> round_lag = open.lag_us;
      const double lag_p99 = percentile(round_lag, 0.99);
      std::printf("round %d open: sent=%" PRIu64 " ok=%" PRIu64
                  " err=%" PRIu64 " unanswered=%" PRIu64
                  " p50_us=%.1f p90_us=%.1f (n=%zu) p99_us=%.1f "
                  "lag_p99_us=%.1f cpu_us_per_req=%.1f\n",
                  r, open.sent, open.ok, open.err, open.unanswered, lat.p50,
                  lat.p90, lat.n, lat.p99, lag_p99, round_cpu);
      std::printf("round %d closed: sent=%" PRIu64 " ok=%" PRIu64
                  " err=%" PRIu64 " unanswered=%" PRIu64
                  " ok_in_window=%" PRIu64 " rps=%.0f; host steal %.1f%%\n",
                  r, closed.sent, closed.ok, closed.err, closed.unanswered,
                  closed.ok_in_window, round_sat, steal_pct);
      if (!round_valid("round", r, lag_p99, steal_pct)) continue;
      ++valid;
      p50.push_back(lat.p50);
      p90.push_back(lat.p90);
      cpu.push_back(round_cpu);
      sat.push_back(round_sat);
      lag.insert(lag.end(), open.lag_us.begin(), open.lag_us.end());
      latency.insert(latency.end(), open.latency_us.begin(),
                     open.latency_us.end());
    }
    const double rss = server_.peak_rss_mb();
    if (!stop_server() || !check_oracle()) return false;
    if (valid < kMinRounds) {
      invalid_.push_back("only " + std::to_string(valid) + " valid rounds");
      return true;
    }
    const Latency lat = latency_of(latency);
    min_beyond_p99_ = lat.beyond_p99;
    lag_p99_ = percentile(lag, 0.99);
    std::printf("open loop, %d valid rounds: offered_rps=%.0f samples=%zu "
                "p50_us=%.1f p90_us=%.1f p99_us=%.1f (%zu samples beyond "
                "p99) lag_p99_us=%.1f; closed loop: window=%d per "
                "connection\n",
                valid, w_.open_rps, lat.n, lat.p50, lat.p90, lat.p99,
                lat.beyond_p99, lag_p99_, kWindow);
    metrics_.push_back({"setup_s", "s", median(setups_s_)});
    metrics_.push_back({"p50_us", "us", median(p50)});
    metrics_.push_back({"p90_us", "us", median(p90)});
    metrics_.push_back({"sat_rps", "1/s", median(sat)});
    metrics_.push_back({"cpu_us_per_req", "us", median(cpu)});
    metrics_.push_back({"rss_mb", "MB", rss});
    return true;
  }

  bool traced() {
    // Phase A (untraced) and phase B (traced) serve the same rate, so
    // their p50 difference is the tracing overhead. The in-process run
    // then replays phase B's plan through LiveServer.
    zss::num::Rng rng(a_.seed);
    const double t = 0.3 * a_.seconds;
    std::vector<PlanEntry> plan_b;
    PhaseResult ra, rb;
    std::map<std::string, std::string> st0, st1;
    SpanLog socket_spans;
    // As in untraced(): a pass whose generator ran late is repeated.
    bool valid = false;
    for (int attempt = 0; !valid && attempt <= kSpareRounds; ++attempt) {
      const StealMeter steal;
      const auto plan_a = open_plan(w_, t, rng);
      plan_b = open_plan(w_, t, rng);
      ra = lg_.open_loop(plan_a, nullptr);
      print_phase("open", ra);
      count(ra);
      socket_spans = SpanLog();
      if (!lg_.stats(&st0, 10000)) {
        error_ = "no stat reply";
        return false;
      }
      rb = lg_.open_loop(plan_b, &socket_spans);
      print_phase("traced", rb);
      count(rb);
      if (!lg_.stats(&st1, 10000)) {
        error_ = "no stat reply";
        return false;
      }
      std::vector<double> lag = rb.lag_us;
      lag_p99_ = percentile(lag, 0.99);
      valid = round_valid("pass", attempt, lag_p99_, steal.pct());
    }
    if (!valid) invalid_.push_back("no valid open-loop pass");
    // The batch sizes sat_rps is made of come from a closed-loop segment.
    const PhaseResult rc = lg_.closed_loop(w_, 0.1 * a_.seconds, a_.seed);
    print_phase("closed", rc);
    count(rc);
    if (!stop_server() || !check_oracle()) return false;

    const Latency la = latency_of(ra.latency_us);
    const Latency lb = latency_of(rb.latency_us);
    min_beyond_p99_ = lb.beyond_p99;
    std::printf("open loop: offered_rps=%.0f untraced p50_us=%.1f (n=%zu) "
                "traced p50_us=%.1f p99_us=%.1f (n=%zu, %zu beyond p99)\n",
                w_.open_rps, la.p50, la.n, lb.p50, lb.p99, lb.n,
                lb.beyond_p99);

    LayerResult layers;
    SpanLog inproc_spans;
    if (!run_layers(w_, plan_b, work_, &inproc_spans, &layers,
                    &error_)) {
      return false;
    }
    socket_spans.write_csv(work_ + "/spans_socket.csv");
    inproc_spans.write_csv(work_ + "/spans_layers.csv");

    double open_batch = 0.0, open_full = 0.0, mean_batch = 0.0, full_frac = 0.0;
    batch_stats(rb.batch, &open_batch, &open_full);
    batch_stats(rc.batch, &mean_batch, &full_frac);
    std::printf("batches: open loop mean %.2f (full %.3f), closed loop mean "
                "%.2f (full %.3f)\n",
                open_batch, open_full, mean_batch, full_frac);
    const double responses = stat_delta(st0, st1, "responses");
    const double created = stat_delta(st0, st1, "created");
    const double restored = stat_delta(st0, st1, "restored");
    auto rate = [&](double v) { return responses > 0 ? v / responses : 0.0; };

    metrics_.push_back({"loadgen.lag_p99_us", "us", lag_p99_});
    metrics_.push_back(
        {"frontend.overhead_p50_us", "us", la.p50 - layers.inproc_p50_us});
    metrics_.push_back({"batcher.mean_batch", "count", mean_batch});
    metrics_.push_back({"batcher.full_batch_frac", "frac", full_frac});
    metrics_.push_back({"session.hot_rate", "frac",
                        1.0 - rate(created) - rate(restored)});
    metrics_.push_back({"session.warm_rate", "frac", rate(created)});
    metrics_.push_back({"session.cold_rate", "frac", rate(restored)});
    metrics_.insert(metrics_.end(), layers.metrics.begin(),
                    layers.metrics.end());
    metrics_.push_back({"trace.overhead_frac", "frac",
                        la.p50 > 0.0 ? (lb.p50 - la.p50) / la.p50 : 0.0});
    return true;
  }

  /// Replays every request sent to this lineage through a 1-shard
  /// zss_serve and compares per-session digest tables. A mismatched
  /// session fails all of its requests.
  bool check_oracle() {
    std::map<std::uint64_t, zss::serve::SessionDigest> expected;
    if (!replay_digests(a_.serve, w_, lg_.sent_log(), work_, &expected,
                        &error_)) {
      return false;
    }
    const auto& got = lg_.digests();
    std::uint64_t mismatched_sessions = 0, mismatched_requests = 0;
    for (const auto& [id, d] : expected) {
      const auto it = got.find(id);
      if (it == got.end() || !(it->second == d)) {
        ++mismatched_sessions;
        mismatched_requests += d.steps;
      }
    }
    for (const auto& [id, d] : got) {
      if (expected.find(id) == expected.end()) {
        ++mismatched_sessions;
        mismatched_requests += d.steps;
      }
    }
    std::printf("oracle: replayed %zu requests, %zu sessions, "
                "%" PRIu64 " mismatched sessions\n",
                lg_.sent_log().size(), expected.size(), mismatched_sessions);
    mismatches_ += mismatched_sessions;
    failed_ += mismatched_requests;
    return true;
  }

  int finish() {
    std::vector<std::string> invalid = invalid_;
    if (invalid.empty() && min_beyond_p99_ < 10) {
      invalid.push_back("p99 has only " + std::to_string(min_beyond_p99_) +
                        " samples beyond it (need 10)");
    }
    const bool correct = mismatches_ == 0 && failed_ == 0;
    std::printf("requests: attempted=%" PRIu64 " failed=%" PRIu64
                " failed_frac=%.6f oracle_mismatched_sessions=%" PRIu64 "\n",
                attempted_, failed_,
                attempted_ == 0 ? 0.0
                                : static_cast<double>(failed_) /
                                      static_cast<double>(attempted_),
                mismatches_);
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!invalid.empty()) {
      for (const auto& why : invalid) std::printf("INVALID: %s\n", why.c_str());
      std::fflush(stdout);
      return 3;
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  const Args& a_;
  const Workload& w_;
  const std::string work_;
  ServerProcess server_;
  Loadgen lg_;
  std::string error_;
  std::vector<double> setups_s_;
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0, failed_ = 0, mismatches_ = 0;
  double lag_p99_ = 0.0;
  std::size_t min_beyond_p99_ = 0;
  std::vector<std::string> invalid_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --serve=PATH --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 [--size=tiny] [--commit=ID]\n");
    return 2;
  }
  perfbench::Workload w;
  if (!perfbench::find_workload(args.workload, args.tiny, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  perfbench::Run run(args, w);
  return run.main();
}
