// Shared vocabulary of the serving benchmark: workload definitions,
// clocks and percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One traffic mix. Every field is fixed here, not tuned per run; the
/// seed only changes which sessions and tokens the generator draws.
struct Workload {
  std::string name;
  int dh = 512;
  int dx = 64;
  float threshold = 0.04f;
  bool quant = false;
  int sessions = 1024;
  double zipf = 0.0;          // 0 = uniform session choice
  bool journal = false;       // --durability=journal --journal-sync=none
  int max_sessions = 0;       // per-shard LRU cap, 0 = uncapped
  double open_rps = 1000.0;   // open-loop offered rate (Poisson)
  int warm_requests = 0;      // untimed requests before the restart
};

/// Looks a workload up by name; `tiny` shrinks it for the benchmark's
/// own test (same code paths, smaller model and population).
bool find_workload(const std::string& name, bool tiny, Workload* out);

constexpr int kShards = 2;       // 2 workers + the front-end thread
constexpr int kConnections = 4;  // sessions pinned to one each
constexpr int kMaxBatch = 8;     // zss_serve's default --max-batch
constexpr int kWindow = 32;      // closed loop: outstanding per connection
constexpr double kWarmRps = 10000.0;  // warm requests go out open loop
constexpr int kSetups = 5;       // setup_s is the median of these
constexpr int kRounds = 4;       // open+closed rounds per untraced run
constexpr int kSpareRounds = 8;  // repeats allowed for invalid rounds
constexpr int kMinRounds = 3;    // fewer valid rounds: the run is invalid
constexpr double kOpenShare = 0.7;  // of --seconds; the rest is closed loop
constexpr std::uint64_t kModelSeed = 1;  // the cell is fixed; --seed is not
/// A round is invalid, and repeated rather than measured, when its
/// generator sent its p99 request more than kMaxLagP99Us after its due
/// time (it did not offer the stated rate), or when the hypervisor took
/// more than kMaxStealPct of the machine's CPU time during it (it
/// measured the host, not the program: at 5% steal the open-loop p90
/// was 5x that of a round at 0.5%).
constexpr double kMaxLagP99Us = 2000.0;
constexpr double kMaxStealPct = 3.0;
/// Sessions used only by the setup probes, far above any population.
constexpr std::uint64_t kProbeSessionBase = std::uint64_t{1} << 40;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `v` (sorted in place). `beyond` receives
/// how many samples lie strictly above the returned rank.
inline double percentile(std::vector<double>& v, double q,
                         std::size_t* beyond = nullptr) {
  if (v.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  if (beyond != nullptr) *beyond = v.size() - 1 - rank;
  return v[rank];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

}  // namespace perfbench
