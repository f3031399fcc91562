#include "load/generator.h"

#include <cmath>

#include "common/logging.h"
#include "serialize/bytes.h"

namespace unizk {
namespace load {

namespace {

/** Uniform double in [0, 1) from the top 53 bits of one draw. */
double
unitDouble(SplitMix64 &rng)
{
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

} // namespace

uint64_t
uniformDraw(SplitMix64 &rng, uint64_t n)
{
    return rng.nextBelow(n);
}

uint64_t
zipfianDraw(SplitMix64 &rng, uint64_t n, double theta)
{
    unizk_assert(n >= 1, "zipfian draw needs a nonempty key space");
    unizk_assert(theta > 0.0, "zipfian draw needs a positive theta");
    for (;;) {
        const uint64_t k = rng.nextBelow(n);
        // Accept k with probability (k+1)^-theta; the hottest key
        // (k == 0) is always accepted, so the loop terminates with
        // expected iterations n / zeta_n(theta).
        const double accept =
            std::pow(static_cast<double>(k + 1), -theta);
        if (unitDouble(rng) < accept)
            return k;
    }
}

double
poissonGapSeconds(SplitMix64 &rng, double rate_rps)
{
    unizk_assert(rate_rps > 0.0, "Poisson gaps need a positive rate");
    // Inversion: -ln(1-U)/rate. 1-U is in (0, 1], so the log argument
    // never hits zero.
    return -std::log(1.0 - unitDouble(rng)) / rate_rps;
}

service::ProveRequest
requestForKey(const Scenario &scenario, uint64_t seed, uint64_t key)
{
    // A per-key stream independent of draw order: the same key always
    // maps to the same request, so a hot (zipfian) key is a hot
    // circuit shape, not a fresh draw each time.
    SplitMix64 rng(seed ^ (key * 0x9E3779B97F4A7C15ULL) ^
                   0xC0FFEE0DDF00DULL);

    uint64_t total_weight = 0;
    for (const MixEntry &e : scenario.mix)
        total_weight += e.weight;
    uint64_t pick = rng.nextBelow(total_weight);
    const MixEntry *entry = &scenario.mix.back();
    for (const MixEntry &e : scenario.mix) {
        if (pick < e.weight) {
            entry = &e;
            break;
        }
        pick -= e.weight;
    }

    // Power-of-two row draw across [minRows, maxRows].
    uint64_t span = 0;
    for (uint64_t r = entry->minRows; r < entry->maxRows; r <<= 1)
        ++span;
    const uint64_t shift = rng.nextBelow(span + 1);

    service::ProveRequest req;
    req.protocol = entry->protocol;
    req.app = entry->app;
    req.rows = entry->minRows << shift;
    req.reps = entry->reps;
    req.fast = true;
    req.verify = true;
    return req;
}

Schedule
buildSchedule(const Scenario &scenario, uint64_t seed)
{
    Schedule schedule;
    schedule.requests.reserve(scenario.requests);

    // One stream drives key draws and arrival gaps in interleaved
    // order; per-key shapes come from their own (seed, key) streams,
    // so neither consumption pattern perturbs the other.
    SplitMix64 rng(seed);
    uint64_t arrival_ns = 0;
    for (uint64_t i = 0; i < scenario.requests; ++i) {
        LoadRequest item;
        item.key = scenario.skew == Skew::Zipfian
                       ? zipfianDraw(rng, scenario.keySpace,
                                     scenario.zipfianTheta)
                       : uniformDraw(rng, scenario.keySpace);
        item.request = requestForKey(scenario, seed, item.key);
        // Every scheduled request is traced: the id is the 1-based
        // schedule position (0 would leave the daemon's spans without
        // an id), which makes server-side spans and response
        // decompositions joinable back to the schedule row.
        item.request.traceId = i + 1;
        if (scenario.arrival == Arrival::OpenPoisson) {
            arrival_ns += static_cast<uint64_t>(
                poissonGapSeconds(rng, scenario.openRateRps) * 1e9);
            item.arrivalNs = arrival_ns;
        }
        item.connection =
            static_cast<uint32_t>(i % scenario.connections);
        schedule.requests.push_back(item);
    }
    return schedule;
}

std::vector<uint8_t>
scheduleBytes(const Schedule &schedule)
{
    ByteWriter w;
    w.putU64(schedule.requests.size());
    for (const LoadRequest &item : schedule.requests) {
        w.putU64(item.key);
        w.putU64(static_cast<uint64_t>(item.request.protocol));
        w.putU64(static_cast<uint64_t>(item.request.app));
        w.putU64(item.request.rows);
        w.putU64(item.request.reps);
        w.putU64(item.request.fast ? 1 : 0);
        w.putU64(item.request.verify ? 1 : 0);
        w.putU64(item.request.traceId);
        w.putU64(item.arrivalNs);
        w.putU64(item.connection);
    }
    return w.take();
}

uint64_t
scheduleFingerprint(const Schedule &schedule)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (const uint8_t b : scheduleBytes(schedule)) {
        h ^= b;
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // namespace load
} // namespace unizk
