#include "ntt/twiddles.h"

#include <array>

#include "common/sync.h"
#include "field/goldilocks.h"
#include "obs/obs.h"

namespace unizk {

namespace {

/**
 * Largest log-size the registry keeps resident. A cached size-2^k
 * table costs 2^k * 8 bytes for fwd+inv combined; 2^26 caps the pair
 * at 512 MiB in the (unrealistic) worst case while covering every
 * transform the benches and recursion-sized LDEs reach. Larger sizes
 * still work -- they build a private table per call.
 */
constexpr uint32_t max_cached_log = 26;

/**
 * Fill out[i] = base^i for i < out_len. Deliberately serial: table
 * construction may race in from any thread on first touch (including
 * pool workers mid-region), where submitting a nested parallelFor from
 * a non-worker thread is not allowed. Build cost is one-time per size.
 */
void
fillPowers(Fp *out, size_t out_len, Fp base)
{
    Fp p = Fp::one();
    for (size_t i = 0; i < out_len; ++i) {
        out[i] = p;
        p *= base;
    }
}

std::shared_ptr<const TwiddleTable>
buildTable(uint32_t log_size)
{
    UNIZK_SPAN("ntt/twiddle-build");
    UNIZK_COUNTER_ADD("ntt.twiddle_builds", 1);
    auto t = std::make_shared<TwiddleTable>();
    t->logSize = log_size;
    const size_t n = size_t{1} << log_size;
    t->sizeInv = Fp(static_cast<uint64_t>(n)).inverse();
    if (log_size == 0)
        return t;

    const Fp w = Fp::primitiveRootOfUnity(log_size);
    const Fp w_inv = w.inverse();
    t->fwd.resize(n / 2);
    t->inv.resize(n / 2);
    fillPowers(t->fwd.data(), n / 2, w);
    fillPowers(t->inv.data(), n / 2, w_inv);
    return t;
}

struct Registry
{
    Mutex mutex;
    std::array<std::shared_ptr<const TwiddleTable>, Fp::twoAdicity + 1>
        slots UNIZK_GUARDED_BY(mutex);
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

std::shared_ptr<const TwiddleTable>
acquireTwiddles(uint32_t log_size)
{
    unizk_assert(log_size <= Fp::twoAdicity,
                 "transform size exceeds the field's 2-adicity");
    if (log_size > max_cached_log)
        return buildTable(log_size);
    Registry &r = registry();
    MutexLock lock(r.mutex);
    if (!r.slots[log_size])
        r.slots[log_size] = buildTable(log_size);
    return r.slots[log_size];
}

void
clearTwiddleCache()
{
    Registry &r = registry();
    MutexLock lock(r.mutex);
    for (auto &slot : r.slots)
        slot.reset();
}

} // namespace unizk
