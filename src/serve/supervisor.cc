#include "serve/supervisor.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace zss::serve {

Supervisor::Supervisor(LiveServer& server, SupervisorConfig config)
    : server_(&server), cfg_(config) {}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  if (cfg_.stall_ms <= 0) return;  // watchdog disabled
  ZSS_EXPECTS(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void Supervisor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void Supervisor::run() {
  const std::int64_t stall_us = cfg_.stall_ms * 1000;
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::milliseconds(kPollMs),
                       [this] { return stop_; })) {
    for (num::Index i = 0; i < server_->num_workers(); ++i) {
      const ShardWorker& w = server_->worker(i);
      const num::Index inflight = w.inflight();
      if (inflight <= 0) continue;  // idle sleep is not a stall
      const std::int64_t age = mono_now_us() - w.heartbeat_us();
      if (age <= stall_us) continue;
      std::fprintf(stderr,
                   "zss watchdog: shard %lld wedged: heartbeat %lld ms old, "
                   "%lld request(s) in flight; aborting (a restart recovers "
                   "from the journal)\n",
                   static_cast<long long>(i),
                   static_cast<long long>(age / 1000),
                   static_cast<long long>(inflight));
      std::abort();
    }
  }
}

}  // namespace zss::serve
