/**
 * @file
 * The sweep service's wire protocol, SPUR-SERVE/1 (DESIGN.md §17).
 *
 * One request per connection, over a Unix-domain stream socket.  The
 * client opens the conversation with a single request frame and the
 * server answers with either a rejection or an acceptance followed by
 * the reply stream:
 *
 *   client -> server   Q <len>\n{"proto_version": 1,
 *                                "have_records": K,
 *                                "request": {...}}\n
 *   server -> client   E <len>\n{"proto_version": 1, "error": R}\n
 *                      (rejected: reason R, connection closes)
 *   server -> client   A <len>\n{"proto_version": 1,
 *                                "total_cells": N,
 *                                "skip_records": K}\n
 *                      followed by the reply bytes
 *
 * The reply bytes after the A frame are EXACTLY a SPUR-STREAM/1 file
 * (src/sweep/stream.h): magic line, H frame, one R frame per record in
 * record order, and a digest-verified T trailer.  When K > 0 the client
 * already holds magic + header + the first K record frames from an
 * earlier torn connection, so the server skips those bytes (the trailer
 * digest still covers all records) and the client appends — resume is
 * plain concatenation, and a completed reply file recovers to the exact
 * offline --json document via the existing `spur_sweep recover` path.
 *
 * Frames are framed-log frames (src/common/framed_log.h, DESIGN.md
 * §20) over the tag alphabet {Q, A, E}, the same codec as the stream
 * they carry.  Every payload carries proto_version and is strictly
 * parsed; anything malformed is a reject-with-reason, never a daemon
 * death.
 */
#ifndef SPUR_SERVE_PROTO_H_
#define SPUR_SERVE_PROTO_H_

#include <cstdint>
#include <string>

#include "src/serve/request.h"

namespace spur::serve {

/** Version of the request/response protocol; bump on any change. */
inline constexpr int kProtoVersion = 1;

inline constexpr char kTagRequest = 'Q';  ///< Client hello (the request).
inline constexpr char kTagAccept = 'A';   ///< Server accepted; stream follows.
inline constexpr char kTagReject = 'E';   ///< Server rejected with a reason.

/** The client's opening frame: the request plus its resume position. */
struct ClientHello {
    /// Record frames the client already holds from a torn earlier
    /// reply; the server re-executes deterministically but skips
    /// sending them.  0 = fresh request (server sends magic + header).
    uint64_t have_records = 0;
    SweepRequest request;
};

/** The server's acceptance: sizing echoed back for sanity checks. */
struct ServerAccept {
    uint64_t total_cells = 0;   ///< Cells the request executes.
    uint64_t skip_records = 0;  ///< Record frames the server will skip.
};

/** Renders the full Q frame (tag, length, payload). */
std::string EncodeHelloFrame(const ClientHello& hello);

/** Renders the full A frame. */
std::string EncodeAcceptFrame(const ServerAccept& accept);

/** Renders the full E frame. */
std::string EncodeRejectFrame(const std::string& reason);

/** Parses a Q-frame payload.  False + *error on any malformation. */
bool ParseHelloPayload(const std::string& payload, ClientHello* out,
                       std::string* error);

/** Parses an A-frame payload. */
bool ParseAcceptPayload(const std::string& payload, ServerAccept* out,
                        std::string* error);

/** Parses an E-frame payload into its reason. */
bool ParseRejectPayload(const std::string& payload, std::string* reason,
                        std::string* error);

/**
 * Monotonic milliseconds for connection deadlines.  The single
 * wall-clock site of the serve layer: deadlines are scheduling, not
 * data — they bound how long we wait for a peer and can never reach a
 * result byte.
 */
int64_t MonotonicMs();

/** send(2)s until every byte landed; EINTR-safe, SIGPIPE-suppressed. */
bool WriteAllFd(int fd, const std::string& data);

/**
 * Buffered frame reads from a socket with a per-call deadline.  Bytes
 * read past a frame stay buffered (TakeBuffered), so a caller can
 * switch from frame parsing to raw streaming without losing data.
 */
class FrameReader
{
  public:
    explicit FrameReader(int fd)
      : fd_(fd)
    {
    }

    /**
     * Reads one Q, A or E frame, waiting at most @p timeout_ms.  False +
     * *error on timeout, EOF, or a frame the framed-log parser calls
     * corrupt (unknown tag, oversized or malformed length).
     */
    bool ReadFrame(char* tag, std::string* payload, int timeout_ms,
                   std::string* error);

    /** Hands over bytes read past the last frame. */
    std::string TakeBuffered();

  private:
    /** Waits for and reads at least one more byte before @p deadline. */
    bool FillSome(int64_t deadline_ms, std::string* error);

    int fd_;
    std::string buffer_;
};

}  // namespace spur::serve

#endif  // SPUR_SERVE_PROTO_H_
