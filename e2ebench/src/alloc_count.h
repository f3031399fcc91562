/**
 * @file
 * Allocation counting from outside the program: the benchmark binary
 * replaces the global operator new, and while counting is enabled each
 * allocation bumps a per-thread counter slot. Counting is switched on
 * only in traced runs; untraced runs pay one relaxed load per
 * allocation.
 */

#ifndef E2EBENCH_ALLOC_COUNT_H
#define E2EBENCH_ALLOC_COUNT_H

#include <cstdint>

namespace e2ebench {

struct AllocTotals
{
    uint64_t count = 0;
    uint64_t bytes = 0;

    AllocTotals
    operator-(const AllocTotals &o) const
    {
        return {count - o.count, bytes - o.bytes};
    }
};

void setAllocCounting(bool enabled);

/** Sum over every thread's slot (threads that exited included). Take
 *  it at quiescent points -- after the counted work has joined. */
AllocTotals allocTotals();

} // namespace e2ebench

#endif // E2EBENCH_ALLOC_COUNT_H
