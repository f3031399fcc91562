#include "span_log.h"

#include <algorithm>

#include "measure.h"

namespace e2ebench {

uint64_t
SpanLog::open(const char *name, uint64_t parent, uint64_t trace_id)
{
    return add(name, parent, nowNs(), 0, trace_id);
}

uint64_t
SpanLog::add(const char *name, uint64_t parent, uint64_t start_ns,
             uint64_t end_ns, uint64_t trace_id)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    BenchSpan span;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.traceId = trace_id;
    spans_.push_back(span);
    return span.id;
}

void
SpanLog::close(uint64_t id)
{
    const uint64_t end = nowNs();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).endNs = end;
}

std::vector<BenchSpan>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<uint64_t>
selfTimesNs(const std::vector<BenchSpan> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0)
            children.at(spans[i].parent - 1).push_back(i);
    }
    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const BenchSpan &s = spans[i];
        std::vector<std::pair<uint64_t, uint64_t>> cover;
        for (const size_t c : children[i]) {
            const uint64_t lo = std::max(spans[c].startNs, s.startNs);
            const uint64_t hi = std::min(spans[c].endNs, s.endNs);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        uint64_t covered = 0;
        uint64_t reach = s.startNs;
        for (const auto &[lo, hi] : cover) {
            const uint64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = s.endNs - s.startNs - covered;
    }
    return self;
}

bool
spansNest(const std::vector<BenchSpan> &spans)
{
    for (const BenchSpan &s : spans) {
        if (s.endNs < s.startNs)
            return false;
        if (s.parent == 0)
            continue;
        const BenchSpan &p = spans.at(s.parent - 1);
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            return false;
    }
    return true;
}

} // namespace e2ebench
