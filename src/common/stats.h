/**
 * @file
 * Lightweight named-counter / timer registry used for the CPU-baseline
 * kernel-time breakdown (Table 1) and for simulator statistics.
 */

#ifndef UNIZK_COMMON_STATS_H
#define UNIZK_COMMON_STATS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace unizk {

/**
 * Categories of work in hash-based ZKP proof generation, matching the
 * columns of Table 1 in the paper.
 */
enum class KernelClass
{
    Polynomial,      ///< element-wise / misc polynomial computations
    Ntt,             ///< all (i)NTT and LDE work
    MerkleTree,      ///< Merkle tree hashing
    OtherHash,       ///< Fiat-Shamir / proof-of-work hashing
    LayoutTransform, ///< transposes and other data reshuffling
    NumClasses,
};

/** Printable name of a kernel class. */
const char *kernelClassName(KernelClass c);

/**
 * Accumulates wall-clock time per kernel class. The CPU prover brackets
 * each kernel with a KernelScope (trace/prover_context.h); the resulting
 * breakdown reproduces Table 1.
 *
 * A scope may close on any thread, and provers running concurrently
 * may share one breakdown, so accumulation must be race-free: time is
 * stored as integer nanoseconds and added with relaxed atomic
 * fetch_add. Relaxed is sufficient (audited with the src/obs atomics,
 * DESIGN §6.7): readers only observe totals after the parallel region
 * has joined, and the pool's completion handshake -- a mutex
 * acquire/release pair -- is the synchronization edge that makes every
 * worker's relaxed adds visible to the reader. This class
 * deliberately has no mutex, so the thread-safety annotations of
 * common/sync.h do not apply; the TSAN-leg test
 * KernelTimeBreakdown.ConcurrentAddIsExact pins the contract.
 */
class KernelTimeBreakdown
{
  public:
    KernelTimeBreakdown() = default;

    // std::atomic members delete the implicit copies, but the breakdown
    // is copied into AppRunResult and returned from scaledBy(); copies
    // are only taken at quiescent points, so relaxed loads suffice.
    KernelTimeBreakdown(const KernelTimeBreakdown &other) { *this = other; }

    KernelTimeBreakdown &
    operator=(const KernelTimeBreakdown &other)
    {
        for (size_t i = 0; i < kNumClasses; ++i) {
            nanos_[i].store(
                other.nanos_[i].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        }
        return *this;
    }

    void
    add(KernelClass c, double seconds)
    {
        nanos_[static_cast<size_t>(c)].fetch_add(
            static_cast<uint64_t>(seconds * 1e9),
            std::memory_order_relaxed);
    }

    double
    seconds(KernelClass c) const
    {
        return static_cast<double>(nanos_[static_cast<size_t>(c)].load(
                   std::memory_order_relaxed)) *
               1e-9;
    }

    /** Total across all classes. */
    double total() const;

    /** Fraction of total time in class @p c (0 if total is 0). */
    double fraction(KernelClass c) const;

    void
    reset()
    {
        for (auto &n : nanos_)
            n.store(0, std::memory_order_relaxed);
    }

    KernelTimeBreakdown &operator+=(const KernelTimeBreakdown &other);

    /** Copy with every class scaled by @p factor (e.g. 1/threads). */
    KernelTimeBreakdown scaledBy(double factor) const;

  private:
    static constexpr size_t kNumClasses =
        static_cast<size_t>(KernelClass::NumClasses);

    std::atomic<uint64_t> nanos_[kNumClasses] = {};
};

/** Simple wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    elapsedSeconds() const
    {
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start).count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace unizk

#endif // UNIZK_COMMON_STATS_H
