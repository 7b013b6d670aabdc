// The traced run's per-layer measurements. Everything here calls the
// system's public functions from the benchmark's own code and records
// a span around each call; nothing inside src/ is instrumented.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "spans.h"

namespace perfbench {

struct LayerResult {
  std::vector<Metric> metrics;
  double inproc_p50_us = 0.0;  // LiveServer::submit -> sink, due-timed
};

/// Serves `plan` open-loop through an in-process LiveServer built
/// exactly as zss_serve builds its pool, then times each layer's
/// public calls at the batch compositions that run produced: the
/// shard, the engine and its phases, the protocol, the journal and
/// the spill tier. Spans go to `spans`.
bool run_layers(const Workload& w, const std::vector<PlanEntry>& plan,
                const std::string& work_dir,
                SpanLog* spans, LayerResult* out, std::string* error);

}  // namespace perfbench
