#include "common/thread_pool.h"

#include "common/bits.h"
#include "common/env.h"
#include "common/logging.h"

namespace unizk {

namespace {

/** True on threads currently executing a pool chunk: nested parallel
 *  regions run inline instead of deadlocking on the shared pool. */
thread_local bool in_pool_worker = false;

unsigned
autoThreadCount()
{
    // Strict parse (trailing junk / sign / range rejected with a warn):
    // "8abc" or "4294967297" used to silently become 8 resp. a wrapped
    // unsigned. kMaxThreads matches resize()'s practical ceiling; any
    // rejected value falls back to hardware concurrency.
    if (const auto n = envUint("UNIZK_THREADS", 1, kMaxThreads))
        return static_cast<unsigned>(*n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

// Requested count for the global pool; 0 = resolve via autoThreadCount.
Mutex global_mutex;
unsigned requested_threads UNIZK_GUARDED_BY(global_mutex) = 0;
ThreadPool *global_pool UNIZK_GUARDED_BY(global_mutex) = nullptr;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    unizk_assert(threads >= 1, "thread pool needs at least one thread");
    thread_count_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        shutting_down_ = true;
    }
    work_ready_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::resize(unsigned threads)
{
    unizk_assert(threads >= 1, "thread pool needs at least one thread");
    MutexLock submit_lock(submit_mutex_);
    if (threads == thread_count_)
        return;
    {
        MutexLock lock(mutex_);
        unizk_assert(task_ == nullptr,
                     "cannot resize the pool inside a parallel region");
        shutting_down_ = true;
    }
    work_ready_.notifyAll();
    for (auto &w : workers_)
        w.join();
    workers_.clear();
    {
        MutexLock lock(mutex_);
        shutting_down_ = false;
    }
    thread_count_ = threads;
    workers_.reserve(threads - 1);
    for (unsigned t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

void
ThreadPool::workerLoop()
{
    // Balanced manual lock()/unlock() instead of a scoped lock: the
    // loop drops the mutex around each chunk body. The thread-safety
    // analysis checks that the mutex is held at every guarded-member
    // access and released on the one exit path.
    mutex_.lock();
    uint64_t seen_generation = generation_;
    for (;;) {
        while (!(shutting_down_ ||
                 (task_ != nullptr && generation_ != seen_generation)))
            work_ready_.wait(mutex_);
        if (shutting_down_) {
            mutex_.unlock();
            return;
        }
        seen_generation = generation_;
        // Drain chunks until the region's cursor is exhausted. Chunk
        // *boundaries* are fixed by the submitter; only the assignment
        // of chunks to threads is dynamic, and chunk outputs are
        // disjoint, so results do not depend on this schedule.
        while (task_ != nullptr && next_chunk_ < num_chunks_) {
            const size_t chunk = next_chunk_++;
            ++chunks_in_flight_;
            const auto *fn = task_;
            const size_t lo = region_begin_ + chunk * chunk_size_;
            const size_t hi = std::min(lo + chunk_size_, region_end_);
            mutex_.unlock();
            in_pool_worker = true;
            (*fn)(lo, hi);
            in_pool_worker = false;
            mutex_.lock();
            if (--chunks_in_flight_ == 0 && next_chunk_ >= num_chunks_)
                work_done_.notifyAll();
        }
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end, size_t grain,
                        const std::function<void(size_t, size_t)> &fn)
{
    if (begin >= end)
        return;
    const size_t n = end - begin;
    if (grain == 0)
        grain = 1;

    // Chunk boundaries depend only on (n, grain, threadCount) -- never
    // on scheduling -- keeping the decomposition reproducible. Up to
    // 4 chunks per thread smooths out imbalanced bodies.
    size_t num_chunks = std::min<size_t>(ceilDiv(n, grain),
                                         size_t{4} * thread_count_);
    const size_t chunk_size = ceilDiv(n, num_chunks);
    num_chunks = ceilDiv(n, chunk_size);

    if (thread_count_ == 1 || num_chunks == 1 || in_pool_worker) {
        fn(begin, end);
        return;
    }

    // Whole regions from concurrent submitters (service worker lanes)
    // serialize here; within a region nothing else changes, so chunk
    // boundaries -- and therefore proof bytes -- stay schedule-free.
    MutexLock submit_lock(submit_mutex_);
    mutex_.lock();
    unizk_assert(task_ == nullptr, "parallel region already active");
    task_ = &fn;
    region_begin_ = begin;
    region_end_ = end;
    chunk_size_ = chunk_size;
    num_chunks_ = num_chunks;
    next_chunk_ = 0;
    chunks_in_flight_ = 0;
    ++generation_;
    mutex_.unlock();
    work_ready_.notifyAll();

    // The submitting thread works too.
    mutex_.lock();
    while (next_chunk_ < num_chunks_) {
        const size_t chunk = next_chunk_++;
        ++chunks_in_flight_;
        const size_t lo = region_begin_ + chunk * chunk_size_;
        const size_t hi = std::min(lo + chunk_size_, region_end_);
        mutex_.unlock();
        in_pool_worker = true;
        fn(lo, hi);
        in_pool_worker = false;
        mutex_.lock();
        --chunks_in_flight_;
    }
    while (chunks_in_flight_ != 0)
        work_done_.wait(mutex_);
    task_ = nullptr;
    mutex_.unlock();
}

ThreadPool &
globalThreadPool()
{
    MutexLock lock(global_mutex);
    if (global_pool == nullptr) {
        const unsigned n =
            requested_threads ? requested_threads : autoThreadCount();
        // Leaked deliberately: workers must outlive every static
        // destructor that might still prove something.
        global_pool = new ThreadPool(n);
    }
    return *global_pool;
}

void
setGlobalThreadCount(unsigned threads)
{
    ThreadPool *pool = nullptr;
    unsigned n = 0;
    {
        MutexLock lock(global_mutex);
        requested_threads = threads;
        n = threads ? threads : autoThreadCount();
        if (global_pool == nullptr) {
            global_pool = new ThreadPool(n);
            return;
        }
        pool = global_pool;
    }
    // Resize after releasing global_mutex: resize() takes the submit
    // mutex, and a nested parallelFor holds the submit mutex while
    // globalThreadPool() takes global_mutex. The pool is never freed,
    // so the pointer stays valid.
    pool->resize(n);
}

unsigned
globalThreadCount()
{
    {
        MutexLock lock(global_mutex);
        if (global_pool != nullptr)
            return global_pool->threadCount();
        if (requested_threads)
            return requested_threads;
    }
    return autoThreadCount();
}

} // namespace unizk
