#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

std::mutex g_names_mu;
std::vector<std::string>& names() {
  static std::vector<std::string> n;
  return n;
}

/// Length of the union of [start, end) intervals.
double union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (!open || s > cur_e) {
      if (open) total += static_cast<double>(cur_e - cur_s);
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += static_cast<double>(cur_e - cur_s);
  return total;
}

}  // namespace

int SpanLog::id(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  auto& n = names();
  for (std::size_t i = 0; i < n.size(); ++i) {
    if (n[i] == name) return static_cast<int>(i);
  }
  n.push_back(name);
  return static_cast<int>(n.size() - 1);
}

const std::string& SpanLog::name(int id) {
  std::lock_guard<std::mutex> lock(g_names_mu);
  return names()[static_cast<std::size_t>(id)];
}

std::map<std::string, SelfTime> SpanLog::self_times() const {
  // Group by request, then resolve each span's children inside its
  // group: children of span X are the spans whose parent is X's name.
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].request < spans_[b].request;
  });
  std::map<int, SelfTime> by_id;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t lo = 0; lo < order.size();) {
    std::size_t hi = lo;
    while (hi < order.size() &&
           spans_[order[hi]].request == spans_[order[lo]].request) {
      ++hi;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const Span& p = spans_[order[i]];
      iv.clear();
      for (std::size_t j = lo; j < hi; ++j) {
        const Span& c = spans_[order[j]];
        if (c.parent != p.name) continue;
        const std::int64_t s = std::max(c.start_ns, p.start_ns);
        const std::int64_t e = std::min(c.end_ns, p.end_ns);
        if (e > s) iv.emplace_back(s, e);
      }
      const double dur = static_cast<double>(p.end_ns - p.start_ns);
      SelfTime& st = by_id[p.name];
      ++st.count;
      st.total_ns += dur;
      st.self_ns += std::max(0.0, dur - union_ns(iv));
    }
    lo = hi;
  }
  std::map<std::string, SelfTime> out;
  for (const auto& [id, st] : by_id) out[name(id)] = st;
  return out;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,parent,start_ns,end_ns,request\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%s,%lld,%lld,%" PRIu64 "\n", name(s.name).c_str(),
                 s.parent < 0 ? "" : name(s.parent).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
