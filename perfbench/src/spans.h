// In-memory span recorder of the traced run. Spans come only from the
// benchmark's own code, around its calls into the system's public
// functions. A span's parent is named, and it belongs to the span of
// that name with the same request id; each thread records into its own
// log, and logs are merged when the run ends.
//
// Self time of a span = its duration minus the part of it that the
// union of its children covers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int name = 0;
  int parent = -1;  // name id of the parent, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
};

struct SelfTime {
  std::uint64_t count = 0;
  double total_ns = 0.0;  // summed durations
  double self_ns = 0.0;   // summed self times
  double mean_us() const {
    return count == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(count);
  }
};

class SpanLog {
 public:
  /// Name ids are shared by every log (a fixed process-wide table).
  static int id(const std::string& name);
  static const std::string& name(int id);

  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(int name, int parent, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t request) {
    spans_.push_back(Span{name, parent, start_ns, end_ns, request});
  }
  void merge(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations and self times per span name.
  std::map<std::string, SelfTime> self_times() const;
  /// Writes one CSV row per span: name,parent,start_ns,end_ns,request.
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
