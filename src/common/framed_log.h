/**
 * @file
 * The framed-log codec under SPUR-TRACE/1 (src/workload/trace.h),
 * DESIGN.md §20.
 *
 * A log is a magic line followed by frames
 *
 *     <tag> <len>\n<payload>\n
 *
 * where <tag> is one byte from the format's alphabet and <len> is the
 * payload's byte count in canonical decimal (no sign, no leading zero
 * unless the length is 0).  The parser sorts any input into three
 * classes:
 *
 *   - a complete frame;
 *   - truncated: the bytes stop before the frame does, which is what a
 *     killed writer leaves — every prefix of a valid log is truncated,
 *     never corrupt;
 *   - corrupt: bytes no writer produces (unknown tag, bad separator,
 *     non-canonical or oversized length, missing payload terminator).
 *
 * Because lengths are canonical, every accepted frame re-encodes to the
 * bytes it was parsed from.  Content digests are FNV-1a 64 over each
 * payload followed by '\n', so payload boundaries cannot alias.  The
 * durable appender writes whole byte runs and fsyncs before returning,
 * so the on-disk prefix of a log is always recoverable.
 */
#ifndef SPUR_COMMON_FRAMED_LOG_H_
#define SPUR_COMMON_FRAMED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace spur::framed_log {

/** Payload bound for on-disk logs; larger lengths are corruption. */
inline constexpr uint64_t kMaxFilePayload = 1ULL << 30;

/** Appends one "<tag> <len>\n<payload>\n" frame to @p out. */
void AppendFrame(std::string* out, char tag, std::string_view payload);

/** Renders one frame. */
std::string EncodeFrame(char tag, std::string_view payload);

/** How much of a log the parser could make sense of. */
enum class ParseStatus : uint8_t {
    kOk,
    kTruncated,  ///< Bytes ran out first: a crash artifact.
    kCorrupt,    ///< Malformed despite enough bytes: never truncation.
};

/** One parsed frame; `payload` views the parsed buffer. */
struct Frame {
    char tag = '\0';
    std::string_view payload;
    size_t end = 0;  ///< Offset of the first byte after the frame.
};

/**
 * Parses the frame starting at @p pos in @p bytes (at or past the end
 * is truncation).  @p tags is the format's tag alphabet; a length above
 * @p max_payload is corrupt.  On kCorrupt, *why names the defect.
 */
ParseStatus ParseFrame(std::string_view bytes, size_t pos,
                       std::string_view tags, uint64_t max_payload,
                       Frame* out, std::string* why);

/**
 * Checks that @p bytes starts with @p magic: kTruncated when @p bytes
 * is a proper prefix of it, kCorrupt when the two disagree.
 */
ParseStatus CheckMagic(std::string_view bytes, std::string_view magic);

/** FNV-1a 64 offset basis: the digest of nothing. */
inline constexpr uint64_t kDigestInit = 14695981039346656037ULL;

/**
 * One FNV-1a 64 step: mixes @p byte into @p digest.  DigestBytes,
 * DigestBytesPair and TraceEncoder's access loop, which interleaves the
 * chain with its encoding, are all chains of it.
 */
[[gnu::always_inline]] inline uint64_t
DigestStep(uint64_t digest, unsigned char byte)
{
    return (digest ^ byte) * 1099511628211ULL;
}

/**
 * Mixes @p bytes into two digests with no separator: DigestBytes on
 * each, in one pass whose two independent multiply chains overlap.
 * Inline, so trace recovery's op decoder can run it between ops.
 */
[[gnu::always_inline]] inline void
DigestBytesPair(uint64_t* first, uint64_t* second, std::string_view bytes)
{
    uint64_t a = *first;
    uint64_t b = *second;
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        a = DigestStep(a, byte);
        b = DigestStep(b, byte);
    }
    *first = a;
    *second = b;
}

/** Mixes @p payload and a '\n' separator into @p digest. */
uint64_t DigestMix(uint64_t digest, std::string_view payload);

/**
 * Mixes @p bytes into @p digest with no separator, so raw updates over
 * any split of a buffer followed by '\n' equal one DigestMix of it.
 */
uint64_t DigestBytes(uint64_t digest, std::string_view bytes);

/**
 * Advances two digests over one @p payload (DigestBytesPair), then mixes
 * '\n' into both: the same values as DigestMix on each, in one pass.
 */
void DigestMixPair(uint64_t* first, uint64_t* second,
                   std::string_view payload);

/** A digest as 16 lowercase hex digits. */
std::string DigestHex(uint64_t digest);

/**
 * Appends byte runs to a file, each written whole and fsync'd before
 * Append returns.  A failed write closes the file.  Not thread-safe.
 */
class DurableAppender
{
  public:
    DurableAppender() = default;
    ~DurableAppender();

    DurableAppender(const DurableAppender&) = delete;
    DurableAppender& operator=(const DurableAppender&) = delete;

    /** Creates/truncates @p path.  False + *error on failure. */
    bool Open(const std::string& path, std::string* error);

    /** Writes @p bytes and fsyncs.  False + *error on failure. */
    bool Append(std::string_view bytes, std::string* error);

    void Close();

    bool is_open() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::string path_;
};

/**
 * Reads @p fd to end of file into @p out.  @p name labels the source in
 * *error on a read failure.
 */
bool ReadAll(int fd, const std::string& name, std::string* out,
             std::string* error);

/**
 * Reads the whole file at @p path into @p out.  False + *error on
 * failure; when the open fails errno keeps its value, so a caller may
 * treat ENOENT as an empty file.
 */
bool ReadFile(const std::string& path, std::string* out,
              std::string* error);

}  // namespace spur::framed_log

#endif  // SPUR_COMMON_FRAMED_LOG_H_
