#include "src/serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/serve/proto.h"
#include "src/serve/request.h"
#include "src/stats/run_record.h"
#include "src/sweep/stream.h"

namespace spur::serve {

namespace {

/**
 * True when the peer is gone or has broken the one-request-per-
 * connection protocol (any byte after the Q frame).  Non-blocking:
 * polled between cells by the executor's committer.
 */
bool
PeerGone(int fd)
{
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready <= 0) {
        return false;
    }
    if ((pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0) {
        return true;
    }
    if ((pfd.revents & POLLIN) != 0) {
        char byte = 0;
        const ssize_t n =
            ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
        if (n == 0) {
            return true;  // Orderly shutdown: client closed.
        }
        if (n < 0) {
            return errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR;
        }
        return true;  // Extra bytes violate the protocol; cancel.
    }
    return false;
}

}  // namespace

SweepServer::SweepServer(ServeOptions options)
  : options_(std::move(options))
{
}

SweepServer::~SweepServer()
{
    // Join the pool before any member dies: queued task wrappers lock
    // mutex_ when they start, and members destruct in reverse
    // declaration order (mutex_ would go before pool_).
    pool_.reset();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(options_.socket_path.c_str());
    }
    for (int& fd : drain_pipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
}

bool
SweepServer::Start(std::string* error)
{
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    if (options_.socket_path.empty() ||
        options_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error != nullptr) {
            *error = "socket path must be 1.." +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes";
        }
        return false;
    }
    if (::pipe2(drain_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
        if (error != nullptr) {
            *error = "pipe2 failed";
        }
        return false;
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        if (error != nullptr) {
            *error = "socket failed";
        }
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size());
    ::unlink(options_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        if (error != nullptr) {
            *error = options_.socket_path + ": bind/listen failed";
        }
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    const unsigned jobs =
        (options_.jobs != 0) ? options_.jobs : runner::DefaultJobs();
    pool_ = std::make_unique<runner::ThreadPool>(jobs);
    return true;
}

int
SweepServer::Run()
{
    for (;;) {
        struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                                {drain_pipe_[0], POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;
        }
        if (fds[1].revents != 0) {
            break;  // Drain requested.
        }
        if ((fds[0].revents & POLLIN) != 0) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) {
                continue;
            }
            {
                MutexLock lock(mutex_);
                ++active_clients_;
            }
            connections_.emplace_back(&SweepServer::ServeConnection,
                                      this, fd);
        }
    }
    // Drain: reject late arrivals, stop accepting, let every in-flight
    // reply finish streaming, then return cleanly.
    {
        MutexLock lock(mutex_);
        draining_ = true;
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
    for (std::thread& connection : connections_) {
        connection.join();
    }
    connections_.clear();
    return 0;
}

void
SweepServer::RequestDrain()
{
    // Only a write(2) on the nonblocking self-pipe: async-signal-safe.
    const char byte = 'd';
    const ssize_t ignored = ::write(drain_pipe_[1], &byte, 1);
    (void)ignored;
}

uint64_t
SweepServer::queued_cells() const
{
    MutexLock lock(mutex_);
    return queued_cells_;
}

SweepServer::Admission
SweepServer::Admit(uint64_t cells, uint64_t have_records)
{
    Admission admission;
    if (cells == 0) {
        admission.reason = "request has no cells";
        return admission;
    }
    if (have_records > cells) {
        admission.reason =
            "resume offset " + std::to_string(have_records) +
            " is beyond the request (" + std::to_string(cells) +
            " cells)";
        return admission;
    }
    MutexLock lock(mutex_);
    if (draining_) {
        admission.reason = "server is draining";
        return admission;
    }
    if (active_clients_ > options_.max_clients) {
        admission.reason =
            "too many clients (" + std::to_string(active_clients_) +
            " active, limit " + std::to_string(options_.max_clients) +
            ")";
        return admission;
    }
    if (cells > options_.max_queued_cells) {
        admission.reason =
            "request of " + std::to_string(cells) +
            " cells exceeds queue capacity (" +
            std::to_string(options_.max_queued_cells) + ")";
        return admission;
    }
    if (queued_cells_ + cells > options_.max_queued_cells) {
        admission.reason =
            "queue full (" + std::to_string(queued_cells_) +
            " cells queued, capacity " +
            std::to_string(options_.max_queued_cells) + ")";
        return admission;
    }
    queued_cells_ += cells;
    admission.ok = true;
    return admission;
}

void
SweepServer::ServeConnection(int fd)
{
    HandleRequest(fd);
    ::close(fd);
    MutexLock lock(mutex_);
    --active_clients_;
}

void
SweepServer::HandleRequest(int fd)
{
    FrameReader reader(fd);
    char tag = '\0';
    std::string payload;
    std::string error;
    if (!reader.ReadFrame(&tag, &payload, options_.request_timeout_ms,
                          &error)) {
        // Nothing parseable arrived; there is no one to explain to.
        return;
    }
    if (tag != kTagRequest) {
        WriteAllFd(fd, EncodeRejectFrame("expected a request (Q) frame"));
        return;
    }
    ClientHello hello;
    if (!ParseHelloPayload(payload, &hello, &error)) {
        WriteAllFd(fd, EncodeRejectFrame(error));
        return;
    }
    const uint64_t total = TotalCells(hello.request);
    const Admission admission = Admit(total, hello.have_records);
    if (!admission.ok) {
        WriteAllFd(fd, EncodeRejectFrame(admission.reason));
        return;
    }

    // Admitted: every cell now occupies a queue slot until its task
    // starts (as a no-op once cancelled), so capacity frees even when
    // the client dies immediately, and is back before the reply ends.
    ServerAccept accept;
    accept.total_cells = total;
    accept.skip_records = hello.have_records;
    std::string preface = EncodeAcceptFrame(accept);
    if (hello.have_records == 0) {
        // Fresh request: the reply starts a new stream file.  A resume
        // (have_records > 0) already holds magic + header client-side.
        preface += sweep::kStreamMagic;
        preface += framed_log::EncodeFrame(
            'H', sweep::EncodeStreamHeaderPayload(hello.request.name, 0,
                                                  1));
    }
    bool alive = WriteAllFd(fd, preface);

    uint64_t digest = framed_log::kDigestInit;
    uint64_t committed = 0;
    ExecuteHooks hooks;
    hooks.submit = [this](std::function<void()> task) {
        pool_->Submit([this, task = std::move(task)] {
            {
                MutexLock lock(mutex_);
                --queued_cells_;
            }
            task();
        });
    };
    if (!options_.costs.empty()) {
        hooks.cost = [this](const core::RunConfig& config, uint32_t rep) {
            return options_.costs.Lookup(config, rep);
        };
    }
    hooks.cancelled = [fd] { return PeerGone(fd); };
    hooks.commit = [&](const stats::RunRecord& record) {
        // The digest covers every record — including the skipped resume
        // prefix — because the trailer must verify the client's full
        // reconstructed file, not just the bytes this connection sent.
        const std::string record_json = stats::JsonWriter::ToJson(record);
        digest = framed_log::DigestMix(digest, record_json);
        ++committed;
        if (!alive) {
            return false;
        }
        if (committed <= hello.have_records) {
            return true;  // Client already holds this frame.
        }
        alive = WriteAllFd(fd,
                           framed_log::EncodeFrame('R', record_json));
        return alive;
    };

    const ExecuteOutcome outcome =
        ExecuteSweepRequest(hello.request, 0, hooks);
    if (alive && outcome.completed) {
        WriteAllFd(fd, framed_log::EncodeFrame(
                           'T', sweep::EncodeStreamTrailerPayload(
                                    outcome.document.meta, total, digest)));
    }
}

}  // namespace spur::serve
