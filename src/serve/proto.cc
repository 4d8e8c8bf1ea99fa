#include "src/serve/proto.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "src/common/framed_log.h"
#include "src/sweep/json.h"

namespace spur::serve {

namespace {

/** Protocol payloads larger than this are hostile, not requests. */
constexpr uint64_t kMaxProtoPayload = 1ULL << 24;

/** The SPUR-SERVE/1 frame tag alphabet. */
constexpr char kProtoTags[] = {kTagRequest, kTagAccept, kTagReject, '\0'};

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

bool
CheckProtoVersion(const sweep::JsonValue& object, std::string* error)
{
    const sweep::JsonValue* field = object.Find("proto_version");
    if (field == nullptr) {
        return Fail(error, "missing 'proto_version'");
    }
    const std::optional<uint64_t> version = field->AsUint64();
    if (!version || *version != static_cast<uint64_t>(kProtoVersion)) {
        return Fail(error, "unsupported proto_version (expected " +
                               std::to_string(kProtoVersion) + ")");
    }
    return true;
}

bool
ReadUint(const sweep::JsonValue& object, const char* key, uint64_t* out,
         std::string* error)
{
    const sweep::JsonValue* field = object.Find(key);
    if (field == nullptr) {
        return Fail(error, std::string("missing '") + key + "'");
    }
    const std::optional<uint64_t> value = field->AsUint64();
    if (!value) {
        return Fail(error, std::string("'") + key +
                               "' must be a non-negative integer");
    }
    *out = *value;
    return true;
}

}  // namespace

std::string
EncodeHelloFrame(const ClientHello& hello)
{
    std::string payload = "{\"proto_version\": ";
    payload += std::to_string(kProtoVersion);
    payload += ", \"have_records\": ";
    payload += std::to_string(hello.have_records);
    payload += ", \"request\": ";
    payload += ToJson(hello.request);
    payload += '}';
    return framed_log::EncodeFrame(kTagRequest, payload);
}

std::string
EncodeAcceptFrame(const ServerAccept& accept)
{
    std::string payload = "{\"proto_version\": ";
    payload += std::to_string(kProtoVersion);
    payload += ", \"total_cells\": ";
    payload += std::to_string(accept.total_cells);
    payload += ", \"skip_records\": ";
    payload += std::to_string(accept.skip_records);
    payload += '}';
    return framed_log::EncodeFrame(kTagAccept, payload);
}

std::string
EncodeRejectFrame(const std::string& reason)
{
    std::string payload = "{\"proto_version\": ";
    payload += std::to_string(kProtoVersion);
    payload += ", \"error\": \"";
    payload += stats::JsonWriter::Escape(reason);
    payload += "\"}";
    return framed_log::EncodeFrame(kTagReject, payload);
}

bool
ParseHelloPayload(const std::string& payload, ClientHello* out,
                  std::string* error)
{
    std::string parse_error;
    const std::optional<sweep::JsonValue> root =
        sweep::ParseJson(payload, &parse_error);
    if (!root || !root->IsObject()) {
        return Fail(error, root ? "hello is not an object" : parse_error);
    }
    if (root->members().size() != 3) {
        return Fail(error, "hello must have exactly proto_version, "
                           "have_records and request");
    }
    ClientHello hello;
    if (!CheckProtoVersion(*root, error) ||
        !ReadUint(*root, "have_records", &hello.have_records, error)) {
        return false;
    }
    const sweep::JsonValue* request = root->Find("request");
    if (request == nullptr) {
        return Fail(error, "missing 'request'");
    }
    if (!ParseSweepRequestValue(*request, &hello.request, error)) {
        return false;
    }
    *out = std::move(hello);
    return true;
}

bool
ParseAcceptPayload(const std::string& payload, ServerAccept* out,
                   std::string* error)
{
    std::string parse_error;
    const std::optional<sweep::JsonValue> root =
        sweep::ParseJson(payload, &parse_error);
    if (!root || !root->IsObject()) {
        return Fail(error, root ? "accept is not an object" : parse_error);
    }
    if (root->members().size() != 3) {
        return Fail(error, "accept must have exactly proto_version, "
                           "total_cells and skip_records");
    }
    ServerAccept accept;
    if (!CheckProtoVersion(*root, error) ||
        !ReadUint(*root, "total_cells", &accept.total_cells, error) ||
        !ReadUint(*root, "skip_records", &accept.skip_records, error)) {
        return false;
    }
    *out = accept;
    return true;
}

bool
ParseRejectPayload(const std::string& payload, std::string* reason,
                   std::string* error)
{
    std::string parse_error;
    const std::optional<sweep::JsonValue> root =
        sweep::ParseJson(payload, &parse_error);
    if (!root || !root->IsObject()) {
        return Fail(error, root ? "reject is not an object" : parse_error);
    }
    if (!CheckProtoVersion(*root, error)) {
        return false;
    }
    const sweep::JsonValue* field = root->Find("error");
    if (field == nullptr || !field->IsString()) {
        return Fail(error, "'error' must be a string");
    }
    *reason = field->AsString();
    return true;
}

int64_t
MonotonicMs()
{
    // Connection deadlines are scheduling, not data: they bound how
    // long we wait for a peer and can never influence a reply byte
    // (DESIGN.md §17).
    // spur-lint: allow(no-wallclock)
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::milliseconds>(now)
        .count();
}

bool
WriteAllFd(int fd, const std::string& data)
{
    size_t written = 0;
    while (written < data.size()) {
        // MSG_NOSIGNAL: a peer that died mid-reply must surface as
        // EPIPE (cancellation), not kill the daemon with SIGPIPE.
        const ssize_t n = ::send(fd, data.data() + written,
                                 data.size() - written, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        written += static_cast<size_t>(n);
    }
    return true;
}

bool
FrameReader::FillSome(int64_t deadline_ms, std::string* error)
{
    for (;;) {
        const int64_t remaining = deadline_ms - MonotonicMs();
        if (remaining <= 0) {
            return Fail(error, "timed out waiting for peer");
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
        const int ready = ::poll(
            &pfd, 1,
            static_cast<int>(std::min<int64_t>(remaining, 1000)));
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            return Fail(error, "poll failed");
        }
        if (ready == 0) {
            continue;  // Re-check the deadline.
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return Fail(error, "read failed");
        }
        if (n == 0) {
            return Fail(error, "connection closed");
        }
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
    }
}

bool
FrameReader::ReadFrame(char* tag, std::string* payload, int timeout_ms,
                       std::string* error)
{
    const int64_t deadline = MonotonicMs() + timeout_ms;
    for (;;) {
        framed_log::Frame frame;
        std::string why;
        switch (framed_log::ParseFrame(buffer_, 0, kProtoTags,
                                       kMaxProtoPayload, &frame, &why)) {
          case framed_log::ParseStatus::kOk:
            *tag = frame.tag;
            payload->assign(frame.payload);
            buffer_.erase(0, frame.end);
            return true;
          case framed_log::ParseStatus::kCorrupt:
            return Fail(error, why);
          case framed_log::ParseStatus::kTruncated:
            if (!FillSome(deadline, error)) {
                return false;
            }
            break;
        }
    }
}

std::string
FrameReader::TakeBuffered()
{
    return std::exchange(buffer_, std::string());
}

}  // namespace spur::serve
