/**
 * @file
 * The benchmark's own spans, recorded around each public call it makes
 * (build, setup, prove, serialize, verify, sim, per request). Spans
 * carry the id of the span that caused them, so a layer's self time is
 * its duration minus the part of it its children cover. Spans are kept
 * in memory and written once, when the run ends.
 */

#ifndef E2EBENCH_SPAN_LOG_H
#define E2EBENCH_SPAN_LOG_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct BenchSpan
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span
    const char *name = nullptr; ///< static string
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t traceId = 0; ///< wire trace id of a request span
};

class SpanLog
{
  public:
    /** Open a span now; returns its id (never 0). */
    uint64_t open(const char *name, uint64_t parent,
                  uint64_t trace_id = 0);

    /** Record a span whose interval is already known. */
    uint64_t add(const char *name, uint64_t parent, uint64_t start_ns,
                 uint64_t end_ns, uint64_t trace_id = 0);

    void close(uint64_t id);

    std::vector<BenchSpan> spans() const;

  private:
    mutable std::mutex mutex_;
    std::vector<BenchSpan> spans_; ///< index = id - 1
};

/**
 * Self time of every span: duration minus the union of its children's
 * intervals, clipped to the span. Indexed like SpanLog::spans().
 */
std::vector<uint64_t> selfTimesNs(const std::vector<BenchSpan> &spans);

/**
 * True iff every child lies inside its parent's interval, so self
 * times add up: sum of self times over a subtree == root duration.
 */
bool spansNest(const std::vector<BenchSpan> &spans);

/** Scope that opens a span on a (possibly null) log and closes it. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, uint64_t parent,
               uint64_t trace_id = 0)
        : log_(log), id_(log ? log->open(name, parent, trace_id) : 0)
    {}

    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanLog *log_;
    uint64_t id_;
};

} // namespace e2ebench

#endif // E2EBENCH_SPAN_LOG_H
