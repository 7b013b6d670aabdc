#include "serve/worker.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace zss::serve {

namespace {

/// Steady clock reading `origin_us` now and advancing in real time.
std::function<std::int64_t()> steady_clock_from(std::int64_t origin_us) {
  const auto t0 = std::chrono::steady_clock::now();
  return [t0, origin_us] {
    return origin_us +
           std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
  };
}

}  // namespace

std::int64_t mono_now_us() {
  // One process-wide epoch: all heartbeats compare on the same axis.
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ShardWorker::ShardWorker(EngineShard& shard, ResponseSink sink,
                         std::function<std::int64_t()> now_us,
                         num::Index max_queue)
    : shard_(&shard),
      sink_(std::move(sink)),
      now_(std::move(now_us)),
      max_queue_(max_queue) {
  ZSS_EXPECTS(max_queue >= 0);
  // Submissions burst-append between wakeups; both buffers keep their
  // capacity across swaps, so the steady state allocates nothing.
  inbox_.reserve(64);
  taking_.reserve(64);
  heartbeat_us_.store(mono_now_us(), std::memory_order_relaxed);
}

ShardWorker::~ShardWorker() {
  request_stop();
  join();
}

void ShardWorker::start() {
  ZSS_EXPECTS(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

bool ShardWorker::submit(const Request& r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    if (max_queue_ > 0 &&
        inflight_.load(std::memory_order_relaxed) >= max_queue_) {
      return false;
    }
    inbox_.push_back(r);
    // An idle worker's heartbeat is as old as its idle spell, and it
    // stamps a fresh one only after it wakes. Stamp on its behalf
    // before publishing the first in-flight request (release; the
    // watchdog reads inflight with acquire), so the stall window
    // starts at this submission, not at the worker's last wakeup.
    // inflight_ only grows under mu_, so 0 here means 0 -> 1.
    if (inflight_.load(std::memory_order_relaxed) == 0) {
      heartbeat_us_.store(mono_now_us(), std::memory_order_relaxed);
    }
    inflight_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_one();
  return true;
}

void ShardWorker::request_flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    flush_ = true;
  }
  cv_.notify_one();
}

void ShardWorker::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
}

void ShardWorker::join() {
  if (thread_.joinable()) thread_.join();
}

void ShardWorker::run() {
  // Every delivery stamps the heartbeat (a worker grinding a deep
  // flush reads as alive per response, not per loop) and settles the
  // request's inflight slot.
  const ResponseSink deliver = [this](const Response& r) {
    sink_(r);
    heartbeat_us_.store(mono_now_us(), std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  };

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    heartbeat_us_.store(mono_now_us(), std::memory_order_relaxed);
    const bool stopping = stop_;
    const bool flushing = flush_;
    flush_ = false;
    if (!inbox_.empty()) std::swap(inbox_, taking_);
    lock.unlock();

    // Pre-serve checkpoint: the wedge hook parks here with the
    // heartbeat frozen — exactly what the watchdog sees in a real hang.
    while (wedged_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }

    // Everything below runs unlocked: this thread is the shard's sole
    // toucher, and producers only ever see the inbox.
    for (const Request& r : taking_) shard_->enqueue(r);
    taking_.clear();

    const std::int64_t now = now_();
    if (stopping || flushing) {
      shard_->flush(now, deliver);
    } else {
      // Serving a batch can make the next one due (an unblocked
      // same-session conflict), so settle the instant — the chain is
      // unbounded, so re-stamp the heartbeat between batches: a
      // healthy worker deep in backlog must not read as wedged.
      while (shard_->process_ready(now, deliver) > 0) {
        heartbeat_us_.store(mono_now_us(), std::memory_order_relaxed);
      }
    }

    lock.lock();
    if (stopping) {
      // A submit that won the race against request_stop() may have
      // landed after the swap; take one more round for it.
      if (inbox_.empty()) break;
      continue;
    }
    if (stop_ || flush_ || !inbox_.empty()) continue;
    if (shard_->pending() > 0) {
      // Sleep toward the oldest request's max-wait deadline; a new
      // submission wakes us earlier. Waking late moves batch
      // boundaries only — never values (the determinism guarantee).
      const std::int64_t deadline = shard_->batcher().oldest_arrival_us() +
                                    shard_->batcher().policy().max_wait_us;
      const std::int64_t wait = deadline - now_();
      if (wait > 0) {
        cv_.wait_for(lock, std::chrono::microseconds(wait));
      }
    } else {
      cv_.wait(lock, [this] { return stop_ || flush_ || !inbox_.empty(); });
    }
  }
}

LiveServer::LiveServer(EnginePool& pool, ResponseSink sink, LiveConfig config)
    : pool_(&pool),
      now_(config.now_us
               ? std::move(config.now_us)
               : steady_clock_from(pool.recovered_max_arrival_us())),
      deadline_us_(config.deadline_us),
      record_(config.record) {
  ZSS_EXPECTS(config.deadline_us >= 0);
  // A recovered pool's sessions carry arrival stamps from the previous
  // incarnation; stamping below them would break the monotone-arrival
  // premise every eviction argument rests on (serve/session.h), so the
  // recovered maximum becomes this clock's floor. The default clock
  // also starts there, so stamps and the batcher's max-wait deadline
  // share one timebase — a clock restarted at 0 would hold every
  // partial batch until it caught up with the previous uptime.
  last_stamp_ = pool.recovered_max_arrival_us();
  const ResponseSink counted = [this, user_sink = std::move(sink)](
                                   const Response& r) {
    if (r.timed_out) {
      std::lock_guard<std::mutex> lock(timeout_mu_);
      timeout_seqs_.push_back(r.seq);
    }
    // Count after delivery: a caller synchronizing on responded() must
    // never observe a response whose sink call has not finished.
    user_sink(r);
    responded_.fetch_add(1, std::memory_order_relaxed);
  };
  workers_.reserve(static_cast<std::size_t>(pool.num_shards()));
  for (num::Index s = 0; s < pool.num_shards(); ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(pool.shard(s), counted,
                                                     now_, config.max_queue));
  }
  for (auto& w : workers_) w->start();
}

LiveServer::~LiveServer() { shutdown(); }

std::optional<std::uint64_t> LiveServer::submit(SessionId session,
                                                num::Index token,
                                                std::uint64_t client,
                                                SubmitStatus* status) {
  ZSS_EXPECTS(token >= 0);
  std::lock_guard<std::mutex> lock(stamp_mu_);
  if (stopped_) {
    if (status != nullptr) *status = SubmitStatus::kStopped;
    return std::nullopt;
  }
  const num::Index shard = pool_->shard_of(session);
  // Monotone stamping under the one lock: queue order, record order and
  // stamp order are the same total order (see worker.h).
  std::int64_t now = now_();
  if (now < last_stamp_) now = last_stamp_;
  last_stamp_ = now;

  Request r;
  r.session = session;
  r.token = token;
  r.arrival_us = now;
  r.seq = next_seq_;
  r.client = client;
  if (deadline_us_ > 0) r.deadline_us = now + deadline_us_;
  if (!workers_[static_cast<std::size_t>(shard)]->submit(r)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (status != nullptr) *status = SubmitStatus::kShed;
    return std::nullopt;
  }
  ++next_seq_;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (record_) {
    TraceEvent e;
    e.arrival_us = now;
    e.session = session;
    e.token = token;
    recorded_.push_back(e);
  }
  if (status != nullptr) *status = SubmitStatus::kOk;
  return r.seq;
}

void LiveServer::flush_all() {
  std::lock_guard<std::mutex> lock(stamp_mu_);
  for (auto& w : workers_) w->request_flush();
}

void LiveServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stamp_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  for (auto& w : workers_) w->request_stop();
  for (auto& w : workers_) w->join();
  // Timed-out requests produced no state: drop them from the trace so
  // replaying it reproduces exactly the committed digests. seq ==
  // recorded_ index (both count accepted submissions in order).
  std::vector<std::uint64_t> drop;
  {
    std::lock_guard<std::mutex> lock(timeout_mu_);
    drop.swap(timeout_seqs_);
  }
  if (record_ && !drop.empty()) {
    std::sort(drop.begin(), drop.end());
    std::vector<TraceEvent> kept;
    kept.reserve(recorded_.size() - drop.size());
    std::size_t d = 0;
    for (std::size_t i = 0; i < recorded_.size(); ++i) {
      if (d < drop.size() && drop[d] == i) {
        ++d;
        continue;
      }
      kept.push_back(recorded_[i]);
    }
    recorded_.swap(kept);
  }
}

}  // namespace zss::serve
