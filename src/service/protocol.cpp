#include "service/protocol.h"

#include "serialize/bytes.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace service {

namespace {

/** Append a length-prefixed byte string. */
void
putBytes(ByteWriter &w, const uint8_t *data, size_t len)
{
    w.putU64(len);
    w.putRaw(data, len);
}

/**
 * Read a length-prefixed byte string, bounded by the bytes actually
 * present (canRead) and by @p max_len before allocating.
 */
std::optional<std::vector<uint8_t>>
getBytes(ByteReader &r, uint64_t max_len)
{
    const uint64_t len = r.getU64();
    if (!r.ok() || len > max_len || !r.canRead(len, 1))
        return std::nullopt;
    std::vector<uint8_t> out = r.getRaw(len);
    if (!r.ok())
        return std::nullopt;
    return out;
}

/** Bounds on StatsOk payload cardinality, far above the registry caps
 *  (kMaxCounters/kMaxHistograms) but low enough that a malicious
 *  length claim cannot drive a large allocation loop. */
constexpr uint64_t kMaxStatsEntries = 1024;
constexpr uint64_t kMaxStatsNameBytes = 256;

void
putHistogramData(ByteWriter &w, const obs::HistogramData &data)
{
    w.putU64(data.count);
    w.putU64(data.sum);
    w.putU64(data.min);
    w.putU64(data.max);
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b)
        w.putU64(data.buckets[b]);
}

bool
getHistogramData(ByteReader &r, obs::HistogramData &out)
{
    out.count = r.getU64();
    out.sum = r.getU64();
    out.min = r.getU64();
    out.max = r.getU64();
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b)
        out.buckets[b] = r.getU64();
    return r.ok();
}

bool
validProveFields(const ProveRequest &req)
{
    if (req.protocol != WireProtocol::Plonky2 &&
        req.protocol != WireProtocol::Starky) {
        return false;
    }
    if (static_cast<uint64_t>(req.app) >
        static_cast<uint64_t>(AppId::Recursion)) {
        return false;
    }
    if (req.rows > kMaxRequestRows || req.reps > kMaxRequestReps)
        return false;
    if (req.protocol == WireProtocol::Starky &&
        !hasStarkImplementation(req.app)) {
        return false;
    }
    return true;
}

} // namespace

FriConfig
requestFriConfig(const ProveRequest &req)
{
    return req.protocol == WireProtocol::Plonky2
               ? FriConfig::plonky2(req.fast)
               : FriConfig::starky(req.fast);
}

size_t
requestRows(const ProveRequest &req)
{
    return req.rows ? req.rows : defaultParams(req.app).rows;
}

size_t
requestReps(const ProveRequest &req)
{
    return req.reps ? req.reps : defaultParams(req.app).repetitions;
}

AppRunResult
proveRequest(const ProveRequest &req)
{
    const FriConfig cfg = requestFriConfig(req);
    const HardwareConfig hw = HardwareConfig::paperDefault();
    return req.protocol == WireProtocol::Plonky2
               ? runPlonky2App(req.app, requestRows(req),
                               requestReps(req), cfg, hw, req.verify)
               : runStarkyApp(req.app, requestRows(req), cfg, hw,
                              req.verify);
}

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadFrame:
        return "bad-frame";
    case ErrorCode::BadRequest:
        return "bad-request";
    case ErrorCode::QueueFull:
        return "queue-full";
    case ErrorCode::ShuttingDown:
        return "shutting-down";
    }
    return "unknown";
}

std::vector<uint8_t>
encodeProveRequest(const ProveRequest &req)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Prove));
    w.putU64(static_cast<uint64_t>(req.protocol));
    w.putU64(static_cast<uint64_t>(req.app));
    w.putU64(req.rows);
    w.putU64(req.reps);
    const uint64_t flags =
        (req.fast ? 1u : 0u) | (req.verify ? 2u : 0u);
    w.putU64(flags);
    w.putU64(req.traceId);
    return w.take();
}

std::vector<uint8_t>
encodeShutdown()
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Shutdown));
    return w.take();
}

std::vector<uint8_t>
encodeGetStats()
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::GetStats));
    return w.take();
}

std::vector<uint8_t>
encodeProofSection(const std::vector<uint8_t> &proof)
{
    ByteWriter w;
    putBytes(w, proof.data(), proof.size());
    return w.take();
}

std::vector<uint8_t>
finishProveResponse(const ProveResponse &resp,
                    const std::vector<uint8_t> &proof_section)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::ProveOk));
    w.putU64(resp.verified ? 1 : 0);
    w.putU64(resp.latencyNs);
    w.putU64(resp.queueDepth);
    w.putU64(resp.traceId);
    w.putU64(resp.laneId);
    w.putU64(resp.queuedNs);
    w.putU64(resp.proveNs);
    w.putU64(resp.serializeNs);
    w.putRaw(proof_section.data(), proof_section.size());
    return w.take();
}

std::vector<uint8_t>
encodeProveResponse(const ProveResponse &resp)
{
    return finishProveResponse(resp, encodeProofSection(resp.proof));
}

std::vector<uint8_t>
encodeShutdownAck()
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::ShutdownAck));
    return w.take();
}

std::vector<uint8_t>
encodeError(ErrorCode code, const std::string &message)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::Error));
    w.putU64(static_cast<uint64_t>(code));
    putBytes(w, reinterpret_cast<const uint8_t *>(message.data()),
             message.size());
    return w.take();
}

std::vector<uint8_t>
encodeStatsResponse(const StatsResponse &stats)
{
    ByteWriter w;
    w.putU64(static_cast<uint64_t>(Tag::StatsOk));
    w.putU64(stats.sequence);
    w.putU64(stats.windowStartNs);
    w.putU64(stats.windowEndNs);
    w.putU64(stats.queueDepth);
    w.putU64(stats.queueCapacity);
    w.putU64(stats.lanes);
    w.putU64(stats.lanesBusy);
    w.putU64(stats.spansDropped);
    w.putU64(stats.counters.size());
    for (const StatsCounterWindow &c : stats.counters) {
        putBytes(w, reinterpret_cast<const uint8_t *>(c.name.data()),
                 c.name.size());
        w.putU64(c.delta);
        w.putU64(c.cumulative);
    }
    w.putU64(stats.histograms.size());
    for (const StatsHistogramWindow &h : stats.histograms) {
        putBytes(w, reinterpret_cast<const uint8_t *>(h.name.data()),
                 h.name.size());
        putHistogramData(w, h.delta);
        putHistogramData(w, h.cumulative);
    }
    return w.take();
}

std::optional<RequestFrame>
decodeRequest(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    RequestFrame frame;
    const uint64_t tag = r.getU64();
    if (!r.ok())
        return std::nullopt;
    switch (static_cast<Tag>(tag)) {
    case Tag::Shutdown:
        frame.tag = Tag::Shutdown;
        break;
    case Tag::GetStats:
        frame.tag = Tag::GetStats;
        break;
    case Tag::Prove: {
        frame.tag = Tag::Prove;
        ProveRequest &req = frame.prove;
        req.protocol = static_cast<WireProtocol>(r.getU64());
        req.app = static_cast<AppId>(r.getU64());
        req.rows = r.getU64();
        req.reps = r.getU64();
        const uint64_t flags = r.getU64();
        req.fast = (flags & 1) != 0;
        req.verify = (flags & 2) != 0;
        req.traceId = r.getU64();
        if (!r.ok() || !validProveFields(req))
            return std::nullopt;
        break;
    }
    default:
        return std::nullopt;
    }
    if (!r.exhausted())
        return std::nullopt;
    return frame;
}

std::optional<ResponseFrame>
decodeResponse(const std::vector<uint8_t> &payload)
{
    ByteReader r(payload);
    ResponseFrame frame;
    const uint64_t tag = r.getU64();
    if (!r.ok())
        return std::nullopt;
    switch (static_cast<Tag>(tag)) {
    case Tag::ShutdownAck:
        frame.tag = Tag::ShutdownAck;
        break;
    case Tag::ProveOk: {
        frame.tag = Tag::ProveOk;
        ProveResponse &resp = frame.prove;
        resp.verified = r.getU64() != 0;
        resp.latencyNs = r.getU64();
        resp.queueDepth = r.getU64();
        resp.traceId = r.getU64();
        resp.laneId = r.getU64();
        resp.queuedNs = r.getU64();
        resp.proveNs = r.getU64();
        resp.serializeNs = r.getU64();
        auto proof = getBytes(r, kMaxResponseFrameBytes);
        if (!r.ok() || !proof)
            return std::nullopt;
        resp.proof = std::move(*proof);
        break;
    }
    case Tag::StatsOk: {
        frame.tag = Tag::StatsOk;
        StatsResponse &stats = frame.stats;
        stats.sequence = r.getU64();
        stats.windowStartNs = r.getU64();
        stats.windowEndNs = r.getU64();
        stats.queueDepth = r.getU64();
        stats.queueCapacity = r.getU64();
        stats.lanes = r.getU64();
        stats.lanesBusy = r.getU64();
        stats.spansDropped = r.getU64();
        const uint64_t n_counters = r.getU64();
        if (!r.ok() || n_counters > kMaxStatsEntries)
            return std::nullopt;
        stats.counters.reserve(n_counters);
        for (uint64_t i = 0; i < n_counters; ++i) {
            StatsCounterWindow c;
            auto name = getBytes(r, kMaxStatsNameBytes);
            if (!name)
                return std::nullopt;
            c.name.assign(name->begin(), name->end());
            c.delta = r.getU64();
            c.cumulative = r.getU64();
            if (!r.ok())
                return std::nullopt;
            stats.counters.push_back(std::move(c));
        }
        const uint64_t n_histograms = r.getU64();
        if (!r.ok() || n_histograms > kMaxStatsEntries)
            return std::nullopt;
        stats.histograms.reserve(n_histograms);
        for (uint64_t i = 0; i < n_histograms; ++i) {
            StatsHistogramWindow h;
            auto name = getBytes(r, kMaxStatsNameBytes);
            if (!name)
                return std::nullopt;
            h.name.assign(name->begin(), name->end());
            if (!getHistogramData(r, h.delta) ||
                !getHistogramData(r, h.cumulative)) {
                return std::nullopt;
            }
            stats.histograms.push_back(std::move(h));
        }
        break;
    }
    case Tag::Error: {
        frame.tag = Tag::Error;
        ErrorResponse &err = frame.error;
        const uint64_t code = r.getU64();
        if (code < static_cast<uint64_t>(ErrorCode::BadFrame) ||
            code > static_cast<uint64_t>(ErrorCode::ShuttingDown)) {
            return std::nullopt;
        }
        err.code = static_cast<ErrorCode>(code);
        auto msg = getBytes(r, 4096);
        if (!r.ok() || !msg)
            return std::nullopt;
        err.message.assign(msg->begin(), msg->end());
        break;
    }
    default:
        return std::nullopt;
    }
    if (!r.exhausted())
        return std::nullopt;
    return frame;
}

} // namespace service
} // namespace unizk
