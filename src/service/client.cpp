#include "service/client.h"

namespace unizk {
namespace service {

ServiceClient::ServiceClient(const std::string &socket_path)
    : fd_(connectUnix(socket_path))
{
}

std::optional<ResponseFrame>
ServiceClient::prove(const ProveRequest &req)
{
    return roundTrip(encodeProveRequest(req));
}

std::optional<ResponseFrame>
ServiceClient::shutdownServer()
{
    return roundTrip(encodeShutdown());
}

std::optional<ResponseFrame>
ServiceClient::getStats()
{
    return roundTrip(encodeGetStats());
}

bool
ServiceClient::sendRaw(const std::vector<uint8_t> &payload)
{
    return fd_.valid() && writeFrame(fd_.get(), payload);
}

std::optional<ResponseFrame>
ServiceClient::readResponse()
{
    if (!fd_.valid())
        return std::nullopt;
    std::vector<uint8_t> payload;
    if (readFrame(fd_.get(), kMaxResponseFrameBytes, payload) !=
        FrameResult::Ok) {
        fd_.reset();
        return std::nullopt;
    }
    return decodeResponse(payload);
}

std::optional<ResponseFrame>
ServiceClient::roundTrip(const std::vector<uint8_t> &payload)
{
    if (!sendRaw(payload)) {
        fd_.reset();
        return std::nullopt;
    }
    return readResponse();
}

} // namespace service
} // namespace unizk
