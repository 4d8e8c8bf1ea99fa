#include "src/serve/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/framed_log.h"
#include "src/serve/proto.h"
#include "src/sweep/stream.h"

namespace spur::serve {

namespace {

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

int
ConnectUnix(const std::string& path, std::string* error)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
        Fail(error, "socket path must be 1.." +
                        std::to_string(sizeof(addr.sun_path) - 1) +
                        " bytes");
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        Fail(error, "socket failed");
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        Fail(error, path + ": cannot connect");
        ::close(fd);
        return -1;
    }
    return fd;
}

/** RAII close for the connection socket. */
struct FdCloser {
    int fd = -1;
    ~FdCloser()
    {
        if (fd >= 0) {
            ::close(fd);
        }
    }
};

}  // namespace

std::optional<SubmitResult>
SubmitRequest(const SweepRequest& request, const SubmitOptions& options,
              const std::string& save_path, std::string* error)
{
    // Recover whatever an earlier torn attempt left behind: the valid
    // prefix becomes our resume position, the torn tail is discarded.
    std::string have_bytes;
    uint64_t have_records = 0;
    if (!save_path.empty()) {
        // A save file that does not exist yet is an empty one.
        std::string bytes;
        if (!framed_log::ReadFile(save_path, &bytes, error) &&
            errno != ENOENT) {
            return std::nullopt;
        }
        if (!bytes.empty()) {
            std::string recover_error;
            const std::optional<sweep::RecoveredStream> recovered =
                sweep::RecoverStreamBytes(bytes, &recover_error);
            if (!recovered) {
                Fail(error, save_path + ": " + recover_error);
                return std::nullopt;
            }
            if (!recovered->document.records.empty() &&
                recovered->document.meta.bench != request.name) {
                Fail(error, save_path + ": holds a reply for '" +
                                recovered->document.meta.bench +
                                "', request is '" + request.name + "'");
                return std::nullopt;
            }
            if (recovered->complete) {
                SubmitResult result;
                result.accepted = true;
                result.complete = true;
                result.records = recovered->document.records.size();
                result.document = recovered->document;
                return result;
            }
            have_records = recovered->document.records.size();
            if (have_records > 0) {
                have_bytes = bytes.substr(
                    0, bytes.size() - recovered->dropped_bytes);
            }
            // 0 records: drop even a bare magic/header prefix so the
            // resume state is exactly "empty" or "magic+header+K
            // records" — the only two shapes the server distinguishes.
        }
    }

    FdCloser socket_fd;
    socket_fd.fd = ConnectUnix(options.socket_path, error);
    if (socket_fd.fd < 0) {
        return std::nullopt;
    }
    ClientHello hello;
    hello.have_records = have_records;
    hello.request = request;
    if (!WriteAllFd(socket_fd.fd, EncodeHelloFrame(hello))) {
        Fail(error, "failed to send request");
        return std::nullopt;
    }

    FrameReader reader(socket_fd.fd);
    char tag = '\0';
    std::string payload;
    if (!reader.ReadFrame(&tag, &payload, options.timeout_ms, error)) {
        return std::nullopt;
    }
    if (tag == kTagReject) {
        SubmitResult result;
        if (!ParseRejectPayload(payload, &result.reject_reason, error)) {
            return std::nullopt;
        }
        result.records = have_records;
        return result;
    }
    if (tag != kTagAccept) {
        Fail(error, "unexpected reply frame");
        return std::nullopt;
    }
    ServerAccept accept;
    if (!ParseAcceptPayload(payload, &accept, error)) {
        return std::nullopt;
    }
    if (accept.skip_records != have_records) {
        Fail(error, "server acknowledged " +
                        std::to_string(accept.skip_records) +
                        " resume records, client holds " +
                        std::to_string(have_records));
        return std::nullopt;
    }

    // From here on every received byte goes straight to the save file,
    // so a kill at any moment leaves a recoverable stream prefix.
    std::string reply;
    framed_log::DurableAppender save;
    if (!save_path.empty() && !save.Open(save_path, error)) {
        return std::nullopt;
    }
    const auto append = [&](const std::string& data) {
        reply += data;
        return save_path.empty() || save.Append(data, error);
    };
    if (!append(have_bytes) || !append(reader.TakeBuffered())) {
        return std::nullopt;
    }
    bool torn = false;
    for (;;) {
        const int64_t deadline = MonotonicMs() + options.timeout_ms;
        struct pollfd pfd = {socket_fd.fd, POLLIN, 0};
        const int ready = ::poll(
            &pfd, 1, static_cast<int>(deadline - MonotonicMs()));
        if (ready < 0 && errno == EINTR) {
            continue;
        }
        if (ready <= 0) {
            torn = true;  // Silent server: keep the prefix, resumable.
            break;
        }
        char chunk[1 << 16];
        const ssize_t n = ::recv(socket_fd.fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            torn = true;
            break;
        }
        if (n == 0) {
            break;  // Server finished (or died after its last byte).
        }
        if (!append(std::string(chunk, static_cast<size_t>(n)))) {
            return std::nullopt;
        }
    }

    std::string recover_error;
    const std::optional<sweep::RecoveredStream> recovered =
        sweep::RecoverStreamBytes(reply, &recover_error);
    if (!recovered) {
        Fail(error, "reply is corrupt: " + recover_error);
        return std::nullopt;
    }
    SubmitResult result;
    result.accepted = true;
    result.complete = recovered->complete && !torn;
    result.records = recovered->document.records.size();
    result.document = recovered->document;
    return result;
}

}  // namespace spur::serve
