/**
 * @file
 * Shared instrumentation context threaded through the provers: a
 * wall-clock kernel-time breakdown for the CPU baseline (Table 1) and a
 * TraceRecorder for the simulator frontend. Both are optional; null
 * members disable the corresponding instrumentation. Prover code
 * reaches them only through KernelScope and TranscriptHashes.
 */

#ifndef UNIZK_TRACE_PROVER_CONTEXT_H
#define UNIZK_TRACE_PROVER_CONTEXT_H

#include <optional>

#include "common/logging.h"
#include "common/stats.h"
#include "obs/obs.h"
#include "trace/kernel_trace.h"

namespace unizk {

struct ProverContext
{
    KernelTimeBreakdown *breakdown = nullptr;
    TraceRecorder *recorder = nullptr;
};

/** KernelScopes open on this thread (0 or 1). */
inline thread_local unsigned kernel_scope_depth = 0;

/**
 * The one instrumentation point of a prover kernel: opens the obs span
 * @p span (a static string), appends the kernel's simulator payload to
 * ctx.recorder (the kernel trace of paper Sec. 5.5), and on close adds
 * the elapsed wall time to class @p cls of ctx.breakdown (Table 1).
 *
 * Scopes never nest on a thread, so class times need no exclusive-time
 * arithmetic and sum to at most the prover's wall time. They are opened
 * on the thread that submits a kernel's parallel regions, never inside
 * the chunks.
 */
class KernelScope
{
  public:
    KernelScope(const ProverContext &ctx, KernelClass cls, const char *span,
                std::optional<KernelPayload> payload = std::nullopt,
                std::string label = {})
        : ctx_(ctx), cls_(cls), span_(span)
    {
        unizk_assert(kernel_scope_depth == 0,
                     "KernelScope opened inside another KernelScope");
        ++kernel_scope_depth;
        if (payload)
            record(std::move(*payload), std::move(label));
    }

    ~KernelScope()
    {
        if (ctx_.breakdown)
            ctx_.breakdown->add(cls_, watch_.elapsedSeconds());
        --kernel_scope_depth;
    }

    /** Append a payload known only inside the scope, or a second one. */
    void
    record(KernelPayload payload, std::string label) const
    {
        if (ctx_.recorder)
            ctx_.recorder->record(std::move(payload), std::move(label));
    }

    KernelScope(const KernelScope &) = delete;
    KernelScope &operator=(const KernelScope &) = delete;

  private:
    const ProverContext &ctx_;
    KernelClass cls_;
#if defined(UNIZK_OBS_DISABLE)
    struct NoSpan { explicit NoSpan(const char *) {} } span_;
#else
    obs::Span span_;
#endif
    Stopwatch watch_;
};

/**
 * Fiat-Shamir hashing in the kernel trace: each mark() records the
 * challenger permutations issued since the previous mark as one
 * HashKernel labelled "challenger: <label>" (nothing if there were none).
 */
class TranscriptHashes
{
  public:
    explicit TranscriptHashes(const ProverContext &ctx) : ctx_(ctx) {}

    void
    mark(size_t permutation_count, const char *label)
    {
        if (ctx_.recorder && permutation_count > seen_)
            ctx_.recorder->record(HashKernel{permutation_count - seen_},
                                  std::string("challenger: ") + label);
        seen_ = permutation_count;
    }

  private:
    const ProverContext &ctx_;
    size_t seen_ = 0;
};

} // namespace unizk

#endif // UNIZK_TRACE_PROVER_CONTEXT_H
