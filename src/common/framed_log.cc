#include "src/common/framed_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace spur::framed_log {

namespace {

bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

ParseStatus
Corrupt(std::string* why, const char* message)
{
    *why = message;
    return ParseStatus::kCorrupt;
}

}  // namespace

void
AppendFrame(std::string* out, char tag, std::string_view payload)
{
    out->push_back(tag);
    out->push_back(' ');
    *out += std::to_string(payload.size());
    out->push_back('\n');
    *out += payload;
    out->push_back('\n');
}

std::string
EncodeFrame(char tag, std::string_view payload)
{
    std::string frame;
    frame.reserve(payload.size() + 24);
    AppendFrame(&frame, tag, payload);
    return frame;
}

ParseStatus
ParseFrame(std::string_view bytes, size_t pos, std::string_view tags,
           uint64_t max_payload, Frame* out, std::string* why)
{
    if (pos >= bytes.size()) {
        return ParseStatus::kTruncated;
    }
    const char tag = bytes[pos];
    if (tags.find(tag) == std::string_view::npos) {
        return Corrupt(why, "unknown frame tag");
    }
    size_t p = pos + 1;
    if (p >= bytes.size()) {
        return ParseStatus::kTruncated;
    }
    if (bytes[p] != ' ') {
        return Corrupt(why, "missing space after frame tag");
    }
    const size_t digits_start = ++p;
    uint64_t length = 0;
    while (p < bytes.size() && bytes[p] >= '0' && bytes[p] <= '9') {
        if (p > digits_start && bytes[digits_start] == '0') {
            return Corrupt(why, "frame length has a leading zero");
        }
        length = length * 10 + static_cast<uint64_t>(bytes[p] - '0');
        if (length > max_payload) {
            return Corrupt(why, "frame length out of range");
        }
        ++p;
    }
    if (p >= bytes.size()) {
        return ParseStatus::kTruncated;
    }
    if (p == digits_start || bytes[p] != '\n') {
        return Corrupt(why, "malformed frame length");
    }
    ++p;
    if (bytes.size() - p < length + 1) {
        return ParseStatus::kTruncated;
    }
    if (bytes[p + length] != '\n') {
        return Corrupt(why, "frame payload not newline-terminated");
    }
    out->tag = tag;
    out->payload = bytes.substr(p, length);
    out->end = p + length + 1;
    return ParseStatus::kOk;
}

ParseStatus
CheckMagic(std::string_view bytes, std::string_view magic)
{
    if (bytes.size() < magic.size()) {
        return magic.substr(0, bytes.size()) == bytes
                   ? ParseStatus::kTruncated
                   : ParseStatus::kCorrupt;
    }
    return bytes.substr(0, magic.size()) == magic ? ParseStatus::kOk
                                                  : ParseStatus::kCorrupt;
}

uint64_t
DigestBytes(uint64_t digest, std::string_view bytes)
{
    for (const char c : bytes) {
        digest = DigestStep(digest, static_cast<unsigned char>(c));
    }
    return digest;
}

uint64_t
DigestMix(uint64_t digest, std::string_view payload)
{
    return DigestBytes(DigestBytes(digest, payload), "\n");
}

void
DigestMixPair(uint64_t* first, uint64_t* second, std::string_view payload)
{
    DigestBytesPair(first, second, payload);
    *first = DigestStep(*first, '\n');
    *second = DigestStep(*second, '\n');
}

std::string
DigestHex(uint64_t digest)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

// ---------------------------------------------------------------------------
// DurableAppender
// ---------------------------------------------------------------------------

DurableAppender::~DurableAppender()
{
    Close();
}

void
DurableAppender::Close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
DurableAppender::Open(const std::string& path, std::string* error)
{
    if (fd_ >= 0) {
        return Fail(error, path_ + ": already open");
    }
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) {
        return Fail(error, path + ": cannot open: " + std::strerror(errno));
    }
    path_ = path;
    return true;
}

bool
DurableAppender::Append(std::string_view bytes, std::string* error)
{
    if (fd_ < 0) {
        return Fail(error, "log file is not open");
    }
    size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n =
            ::write(fd_, bytes.data() + written, bytes.size() - written);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0) {
            break;
        }
        written += static_cast<size_t>(n);
    }
    if (written < bytes.size() || ::fsync(fd_) != 0) {
        Fail(error, path_ + ": write failed: " + std::strerror(errno));
        Close();
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Whole-file reads
// ---------------------------------------------------------------------------

bool
ReadAll(int fd, const std::string& name, std::string* out,
        std::string* error)
{
    char buffer[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof(buffer));
        if (n == 0) {
            return true;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n < 0) {
            return Fail(error,
                        name + ": read error: " + std::strerror(errno));
        }
        out->append(buffer, static_cast<size_t>(n));
    }
}

bool
ReadFile(const std::string& path, std::string* out, std::string* error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        const int open_errno = errno;
        Fail(error, path + ": cannot open: " + std::strerror(open_errno));
        errno = open_errno;
        return false;
    }
    // Reserve a regular file's size up front so the read never
    // reallocates; ReadAll still reads to EOF in case the file grew.
    struct stat info;
    if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode) &&
        info.st_size > 0) {
        out->reserve(out->size() + static_cast<size_t>(info.st_size));
    }
    const bool ok = ReadAll(fd, path, out, error);
    ::close(fd);
    return ok;
}

}  // namespace spur::framed_log
