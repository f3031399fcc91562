#include "alloc_count.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace e2ebench {
namespace {

struct Slot
{
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> bytes{0};
};

// Fixed slot table: registering a thread must not allocate (it runs
// inside operator new). Threads beyond the table share the last slot,
// which stays exact because every add is atomic.
constexpr size_t kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<size_t> g_used{0};
std::atomic<bool> g_enabled{false};
thread_local Slot *t_slot = nullptr;

void
note(size_t bytes)
{
    if (!g_enabled.load(std::memory_order_relaxed))
        return;
    Slot *slot = t_slot;
    if (slot == nullptr) {
        const size_t i = g_used.fetch_add(1, std::memory_order_relaxed);
        slot = t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
    }
    slot->count.fetch_add(1, std::memory_order_relaxed);
    slot->bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void *
allocate(size_t bytes)
{
    note(bytes);
    if (void *p = std::malloc(bytes != 0 ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(size_t bytes, std::align_val_t align)
{
    note(bytes);
    void *p = nullptr;
    const size_t a = static_cast<size_t>(align);
    if (posix_memalign(&p, a < sizeof(void *) ? sizeof(void *) : a,
                       bytes != 0 ? bytes : 1) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void
setAllocCounting(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

AllocTotals
allocTotals()
{
    AllocTotals totals;
    const size_t used = g_used.load(std::memory_order_relaxed);
    for (size_t i = 0; i < used && i < kSlots; ++i) {
        totals.count += g_slots[i].count.load(std::memory_order_relaxed);
        totals.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
    }
    return totals;
}

} // namespace e2ebench

// Replacement global allocation functions ([replacement.functions]).
// Every form frees with std::free, which accepts both malloc and
// posix_memalign memory.

void *
operator new(std::size_t n)
{
    return e2ebench::allocate(n);
}

void *
operator new[](std::size_t n)
{
    return e2ebench::allocate(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return e2ebench::allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return e2ebench::allocate(n);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return e2ebench::allocateAligned(n, a);
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return e2ebench::allocateAligned(n, a);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
