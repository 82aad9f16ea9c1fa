#include "src/core/layer_map.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/core/correlation_index.h"
#include "src/util/logging.h"

namespace daydream {

LayerMap LayerMap::Compute(const Trace& trace) {
  LayerMap map;
  map.assignments_.assign(trace.size(), LayerAssignment{});

  // CPU windows per thread, sorted by begin (spans of one thread are disjoint
  // because layer phases execute sequentially on the control thread).
  std::map<int, std::vector<LayerSpan>> spans_by_thread;
  for (LayerSpan& span : trace.ExtractLayerSpans()) {
    spans_by_thread[span.thread_id].push_back(span);
  }
  for (auto& [tid, spans] : spans_by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const LayerSpan& a, const LayerSpan& b) { return a.begin < b.begin; });
  }

  auto find_span = [&](int thread_id, TimeNs t) -> const LayerSpan* {
    auto it = spans_by_thread.find(thread_id);
    if (it == spans_by_thread.end()) {
      return nullptr;
    }
    const std::vector<LayerSpan>& spans = it->second;
    // Last span with begin <= t.
    auto pos = std::upper_bound(spans.begin(), spans.end(), t,
                                [](TimeNs value, const LayerSpan& s) { return value < s.begin; });
    if (pos == spans.begin()) {
      return nullptr;
    }
    --pos;
    if (t <= pos->end) {
      return &*pos;
    }
    return nullptr;
  };

  // Pass 1: CPU events -> enclosing layer window; collect launch correlations.
  std::vector<CorrelationIndex::Entry> assigned_launches;
  const std::vector<TraceEvent>& events = trace.events();
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (!e.is_cpu() || e.kind == EventKind::kLayerMarker) {
      continue;
    }
    const LayerSpan* span = find_span(e.thread_id, e.start);
    if (span == nullptr) {
      continue;
    }
    map.assignments_[i] = LayerAssignment{span->layer_id, span->phase};
    if (e.correlation_id != 0) {
      assigned_launches.emplace_back(e.correlation_id, i);
    }
  }
  const CorrelationIndex by_correlation(std::move(assigned_launches));

  // Pass 2: GPU events inherit via correlation id (Figure 3).
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (!e.is_gpu() || e.correlation_id == 0) {
      continue;
    }
    const size_t launch = by_correlation.Find(e.correlation_id);
    if (launch != CorrelationIndex::kNone) {
      map.assignments_[i] = map.assignments_[launch];
    }
  }
  return map;
}

const LayerAssignment& LayerMap::assignment(size_t event_index) const {
  DD_CHECK_LT(event_index, assignments_.size());
  return assignments_[event_index];
}

double LayerMap::GpuCoverage(const Trace& trace) const {
  int gpu = 0;
  int assigned = 0;
  const std::vector<TraceEvent>& events = trace.events();
  for (size_t i = 0; i < events.size(); ++i) {
    if (!events[i].is_gpu()) {
      continue;
    }
    ++gpu;
    if (assignments_[i].layer_id >= 0) {
      ++assigned;
    }
  }
  return gpu == 0 ? 1.0 : static_cast<double>(assigned) / gpu;
}

}  // namespace daydream
