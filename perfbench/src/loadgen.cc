#include "loadgen.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <thread>

namespace perfbench {

namespace {

int cpus() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }

void pin_to(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);  // the calling thread only
}

}  // namespace

void pin_to_generator_cpu() {
  if (cpus() > 1) pin_to(cpus() - 1, cpus() - 1);
}

void pin_to_server_cpus() {
  if (cpus() > 1) pin_to(0, cpus() - 2);
}

KeepAwake::KeepAwake() {
  for (int i = 0; i + 1 < cpus(); ++i) {
    threads_.emplace_back([this, i] {
      pin_to(i, i);
      sched_param p{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &p);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

SessionPicker::SessionPicker(const Workload& w) : sessions_(w.sessions) {
  if (w.zipf <= 0.0) return;
  cdf_.resize(static_cast<std::size_t>(w.sessions));
  double sum = 0.0;
  for (int k = 0; k < w.sessions; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), w.zipf);
    cdf_[static_cast<std::size_t>(k)] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

std::uint64_t SessionPicker::pick(zss::num::Rng& rng) const {
  if (cdf_.empty()) {
    return static_cast<std::uint64_t>(rng.below(sessions_));
  }
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint64_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(), sessions_ - 1));
}

std::vector<PlanEntry> open_plan(const Workload& w, double seconds,
                                 zss::num::Rng& rng) {
  const SessionPicker picker(w);
  std::vector<PlanEntry> plan;
  plan.reserve(static_cast<std::size_t>(w.open_rps * seconds * 1.1) + 16);
  double t = 0.0;
  const double mean_gap_ns = 1e9 / w.open_rps;
  while (t < seconds * 1e9) {
    PlanEntry e;
    e.due_ns = static_cast<std::int64_t>(t);
    e.session = picker.pick(rng);
    e.token = static_cast<int>(rng.below(w.dx));
    plan.push_back(e);
    t += -std::log(1.0 - rng.uniform()) * mean_gap_ns;
  }
  return plan;
}

Loadgen::Loadgen() : conns_(kConnections) {}

bool Loadgen::connect(const std::string& socket_path, int timeout_ms,
                      std::string* error) {
  const std::int64_t deadline =
      now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (Conn& c : conns_) {
    c.buf.clear();
    // Retried without sleeping: setup_s runs until the first ok, and a
    // sleeping thread would add its own wake-up delay to it.
    while (!c.io.connect_unix(socket_path, error)) {
      if (now_ns() > deadline) return false;
      std::this_thread::yield();
    }
  }
  return true;
}

void Loadgen::disconnect() {
  for (Conn& c : conns_) {
    c.io.close();
    c.buf.clear();
  }
}

void Loadgen::log_sent(std::uint64_t session, int token) {
  sent_.push_back(TraceLine{session, token});
}

bool Loadgen::send_step(std::uint64_t session, int token) {
  char line[64];
  std::snprintf(line, sizeof line, "step %llu %d",
                static_cast<unsigned long long>(session), token);
  return conns_[static_cast<std::size_t>(conn_of(session))].io.send_line(line);
}

Loadgen::LineKind Loadgen::parse(const std::string& line, Ok* ok) {
  if (line.rfind("ok ", 0) == 0) {
    // ok <session> <seq> <batch> <digest>
    char* p = nullptr;
    ok->session = std::strtoull(line.c_str() + 3, &p, 10);
    std::strtoull(p, &p, 10);
    ok->batch = static_cast<int>(std::strtol(p, &p, 10));
    const std::uint64_t row = std::strtoull(p, nullptr, 16);
    zss::serve::fold_row_digest(digests_[ok->session], row);
    return LineKind::kOk;
  }
  if (line.rfind("err", 0) == 0) return LineKind::kErr;
  if (line.rfind("stat ", 0) == 0) return LineKind::kStat;
  return LineKind::kOther;  // hi / bye / pos
}

template <typename Fn>
void Loadgen::drain(int c, Fn&& fn) {
  Conn& conn = conns_[static_cast<std::size_t>(c)];
  if (!conn.io.connected()) return;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.io.fd(), buf, sizeof buf, MSG_DONTWAIT);
    if (n <= 0) break;
    conn.buf.append(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buf) break;
  }
  std::size_t pos = 0;
  for (;;) {
    const std::size_t nl = conn.buf.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = conn.buf.substr(pos, nl - pos);
    pos = nl + 1;
    Ok ok;
    const LineKind kind = parse(line, &ok);
    fn(kind, ok, line);
  }
  conn.buf.erase(0, pos);
}

template <typename Fn>
void Loadgen::poll_lines(int timeout_ms, Fn&& fn) {
  pollfd pfd[kConnections];
  for (int c = 0; c < kConnections; ++c) {
    pfd[c] = pollfd{conns_[static_cast<std::size_t>(c)].io.fd(), POLLIN, 0};
  }
  if (::poll(pfd, kConnections, timeout_ms) <= 0) return;
  for (int c = 0; c < kConnections; ++c) {
    if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) drain(c, fn);
  }
}

std::int64_t Loadgen::step_sync(std::uint64_t session, int token,
                                int timeout_ms) {
  const std::int64_t t = now_ns();
  if (!send_step(session, token)) return 0;
  log_sent(session, token);
  const std::int64_t deadline = t + std::int64_t{timeout_ms} * 1000000;
  std::int64_t got = 0;
  while (got == 0 && now_ns() < deadline) {
    poll_lines(0, [&](LineKind kind, const Ok& ok, const std::string&) {
      if (kind == LineKind::kOk && ok.session == session) got = now_ns();
    });
  }
  return got;
}

bool Loadgen::stats(std::map<std::string, std::string>* out, int timeout_ms) {
  if (!conns_[0].io.send_line("stats")) return false;
  const std::int64_t deadline =
      now_ns() + std::int64_t{timeout_ms} * 1000000;
  bool got = false;
  while (!got && now_ns() < deadline) {
    poll_lines(5, [&](LineKind kind, const Ok&, const std::string& line) {
      if (kind != LineKind::kStat) return;
      got = true;
      std::size_t pos = 5;
      while (pos < line.size()) {
        std::size_t end = line.find(' ', pos);
        if (end == std::string::npos) end = line.size();
        const std::string kv = line.substr(pos, end - pos);
        const std::size_t eq = kv.find('=');
        if (eq != std::string::npos) {
          (*out)[kv.substr(0, eq)] = kv.substr(eq + 1);
        }
        pos = end + 1;
      }
    });
  }
  return got;
}

void Loadgen::quit() {
  conns_[0].io.send_line("quit");
  // Read until the server closes every connection (after its bye), so
  // no response of ours is left unread on exit.
  const std::int64_t deadline = now_ns() + std::int64_t{10000} * 1000000;
  for (Conn& c : conns_) {
    std::string line;
    while (c.io.connected() && now_ns() < deadline &&
           c.io.read_line(&line, 100)) {
    }
  }
  disconnect();
}

PhaseResult Loadgen::open_loop(const std::vector<PlanEntry>& plan,
                               SpanLog* spans) {
  // One thread sends and receives, busy-polling: a thread that sleeps
  // until the next due time wakes up milliseconds late on a virtual
  // machine whose idle vCPU was descheduled, and a blocking poll()
  // would stamp responses just as late.
  const std::size_t n = plan.size();
  PhaseResult res;
  std::vector<std::int64_t> sent_ns(n, 0), recv_ns(n, 0);
  std::vector<int> batch(n, 0);
  // An ok answers the oldest unanswered request of its session: a
  // session's responses come back in request order.
  std::unordered_map<std::uint64_t, std::deque<std::uint32_t>> waiting;
  std::uint64_t answered = 0;
  const int span_request = SpanLog::id("request");
  const int span_send = SpanLog::id("loadgen.send");
  if (spans != nullptr) spans->reserve(spans->size() + 2 * n);

  const std::int64_t t0 = now_ns();
  auto on_line = [&](LineKind kind, const Ok& ok, const std::string&) {
    if (kind == LineKind::kErr) {
      ++res.err;
      return;
    }
    if (kind != LineKind::kOk) return;
    auto it = waiting.find(ok.session);
    if (it == waiting.end() || it->second.empty()) return;
    const std::uint32_t i = it->second.front();
    it->second.pop_front();
    recv_ns[i] = now_ns();
    batch[i] = ok.batch;
    ++answered;
    if (spans != nullptr) {
      spans->add(span_request, -1, t0 + plan[i].due_ns, recv_ns[i], i);
    }
  };
  std::size_t next = 0;
  std::int64_t drain_deadline = INT64_MAX;
  while (answered + res.err < res.sent || next < n) {
    const std::int64_t now = now_ns();
    while (next < n && t0 + plan[next].due_ns <= now) {
      const PlanEntry& e = plan[next];
      if (!send_step(e.session, e.token)) {
        next = n;
        break;
      }
      sent_ns[next] = now_ns();
      if (spans != nullptr) {
        spans->add(span_send, span_request, t0 + e.due_ns, sent_ns[next],
                   next);
      }
      waiting[e.session].push_back(static_cast<std::uint32_t>(next));
      ++res.sent;
      ++next;
    }
    poll_lines(0, on_line);
    if (next == n && drain_deadline == INT64_MAX) {
      drain_deadline = now + std::int64_t{20} * 1000000000;
    }
    if (now > drain_deadline) break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sent_ns[i] == 0) continue;
    const std::int64_t due = t0 + plan[i].due_ns;
    log_sent(plan[i].session, plan[i].token);
    res.lag_us.push_back(static_cast<double>(sent_ns[i] - due) / 1e3);
    if (recv_ns[i] == 0) continue;
    res.latency_us.push_back(static_cast<double>(recv_ns[i] - due) / 1e3);
    res.batch.push_back(batch[i]);
  }
  res.ok = answered;
  res.unanswered = res.sent - std::min<std::uint64_t>(res.sent, answered + res.err);
  return res;
}

PhaseResult Loadgen::closed_loop(const Workload& w, double seconds,
                                 std::uint64_t seed) {
  PhaseResult res;
  const SessionPicker picker(w);
  std::vector<zss::num::Rng> rngs;
  for (int c = 0; c < kConnections; ++c) {
    rngs.emplace_back(seed * 1000003ULL + static_cast<std::uint64_t>(c));
  }
  std::unordered_map<std::uint64_t, int> outstanding;  // per session
  std::uint64_t in_flight = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  bool stop_sending = false;
  auto send_next = [&](int c) {
    if (stop_sending) return;
    zss::num::Rng& rng = rngs[static_cast<std::size_t>(c)];
    std::uint64_t s = picker.pick(rng);
    while (conn_of(s) != c) s = picker.pick(rng);
    const int token = static_cast<int>(rng.below(w.dx));
    if (!send_step(s, token)) {
      stop_sending = true;
      return;
    }
    log_sent(s, token);
    ++outstanding[s];
    ++in_flight;
    ++res.sent;
  };
  for (int c = 0; c < kConnections; ++c) {
    for (int k = 0; k < kWindow; ++k) send_next(c);
  }
  std::int64_t drain_deadline = INT64_MAX;
  while (in_flight > 0) {
    poll_lines(0, [&](LineKind kind, const Ok& ok, const std::string&) {
      if (kind == LineKind::kErr) {
        ++res.err;
        --in_flight;
        return;
      }
      if (kind != LineKind::kOk) return;
      auto it = outstanding.find(ok.session);
      if (it == outstanding.end() || it->second == 0) return;
      --it->second;
      --in_flight;
      ++res.ok;
      res.batch.push_back(ok.batch);
      const std::int64_t t = now_ns();
      if (t <= end) ++res.ok_in_window;
      if (t >= end) stop_sending = true;
      send_next(conn_of(ok.session));
    });
    const std::int64_t t = now_ns();
    if (t >= end) stop_sending = true;
    if (stop_sending && drain_deadline == INT64_MAX) {
      drain_deadline = t + std::int64_t{20} * 1000000000;
    }
    if (t > drain_deadline) break;
  }
  res.unanswered = in_flight;
  res.seconds = seconds;
  return res;
}

}  // namespace perfbench
