#include "src/workload/trace.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "src/common/framed_log.h"
#include "src/common/log.h"
#include "src/vm/region.h"
#include "src/workload/op_decoder.h"
#include "src/workload/replay_kernel.h"

namespace spur::workload {

namespace {

/** The SPUR-TRACE/1 frame tag alphabet. */
constexpr std::string_view kTraceTags = "HSBET";

/** Flush an open op batch into a B frame at this size. */
constexpr size_t kBatchFlushBytes = 64 * 1024;

/**
 * The encoder reserves its output up front at this many bytes per
 * budgeted reference, in quarters (4.25 B/ref): above the 3.9-4.1 B/ref
 * the paper workloads encode to, so a stream's frames land in one
 * buffer instead of a doubling one that faults in fresh pages and
 * copies what it holds at each step.  A stream that needs more still
 * grows.  Capped at kMaxReserveBytes.
 */
constexpr uint64_t kReserveQuartersPerRef = 17;
constexpr uint64_t kMaxReserveBytes = uint64_t{256} << 20;

std::string
FormatUint(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    return buffer;
}

/** Canonical double rendering; Identity() and the S payload share it. */
std::string
FormatDouble(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
HeaderPayload()
{
    return "{\"trace_version\": " + FormatUint(kTraceVersion) + "}";
}

std::string
MetaPayload(const TraceStreamMeta& meta)
{
    std::string payload = "{\"workload\": \"";
    payload += meta.workload;
    payload += "\", \"seed\": " + FormatUint(meta.seed);
    payload += ", \"refs\": " + FormatUint(meta.refs);
    payload += ", \"intensity\": " + FormatDouble(meta.intensity);
    payload += ", \"page_bytes\": " + FormatUint(meta.page_bytes);
    payload += ", \"block_bytes\": " + FormatUint(meta.block_bytes);
    payload += "}";
    return payload;
}

std::string
EndPayload(uint64_t ops, uint64_t accesses, uint64_t refs_issued,
           uint64_t digest)
{
    std::string payload = "{\"ops\": " + FormatUint(ops);
    payload += ", \"accesses\": " + FormatUint(accesses);
    payload += ", \"refs_issued\": " + FormatUint(refs_issued);
    payload += ", \"digest\": \"" + framed_log::DigestHex(digest) + "\"}";
    return payload;
}

std::string
TrailerPayload(uint64_t streams, uint64_t digest)
{
    return "{\"streams\": " + FormatUint(streams) + ", \"digest\": \"" +
           framed_log::DigestHex(digest) + "\"}";
}

// ---------------------------------------------------------------------------
// Strict payload scanners.  The parser accepts exactly the writer's
// rendering — key order, spacing, no escapes, no leading zeros — so
// every accepted payload re-serializes byte-identically (the fuzzer's
// fix-point property) and any deviation is corruption, never a guess.
// ---------------------------------------------------------------------------

bool
ScanLiteral(std::string_view s, size_t* pos, const char* literal)
{
    const size_t n = std::strlen(literal);
    if (s.compare(*pos, n, literal) != 0) {
        return false;
    }
    *pos += n;
    return true;
}

bool
ScanUint(std::string_view s, size_t* pos, uint64_t* out)
{
    size_t p = *pos;
    uint64_t value = 0;
    size_t digits = 0;
    while (p < s.size() && s[p] >= '0' && s[p] <= '9') {
        const uint64_t digit = static_cast<uint64_t>(s[p] - '0');
        if (value > (~uint64_t{0} - digit) / 10) {
            return false;
        }
        value = value * 10 + digit;
        ++digits;
        ++p;
    }
    if (digits == 0 || (digits > 1 && s[*pos] == '0')) {
        return false;
    }
    *pos = p;
    *out = value;
    return true;
}

/** A quoted string with no escapes: printable ASCII minus '"' and '\\'. */
bool
ScanQuoted(std::string_view s, size_t* pos, std::string* out)
{
    size_t p = *pos;
    if (p >= s.size() || s[p] != '"') {
        return false;
    }
    ++p;
    const size_t start = p;
    while (p < s.size() && s[p] != '"') {
        const char c = s[p];
        if (c < 0x20 || c > 0x7e || c == '\\') {
            return false;
        }
        ++p;
    }
    if (p >= s.size()) {
        return false;
    }
    out->assign(s.substr(start, p - start));
    *pos = p + 1;
    return true;
}

/** A double token that round-trips through the canonical rendering. */
bool
ScanDouble(std::string_view s, size_t* pos, double* out)
{
    size_t p = *pos;
    const size_t start = p;
    while (p < s.size() &&
           (std::strchr("0123456789.eE+-", s[p]) != nullptr)) {
        ++p;
    }
    if (p == start) {
        return false;
    }
    const std::string token(s.substr(start, p - start));
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(token.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0') {
        return false;
    }
    if (FormatDouble(value) != token) {
        return false;
    }
    *pos = p;
    *out = value;
    return true;
}

bool
ScanHexDigest(std::string_view s, size_t* pos, uint64_t* out)
{
    std::string hex;
    if (!ScanQuoted(s, pos, &hex) || hex.size() != 16) {
        return false;
    }
    uint64_t value = 0;
    for (const char c : hex) {
        uint64_t nibble = 0;
        if (c >= '0' && c <= '9') {
            nibble = static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            nibble = static_cast<uint64_t>(c - 'a') + 10;
        } else {
            return false;
        }
        value = (value << 4) | nibble;
    }
    *out = value;
    return true;
}

bool
ParseHeaderPayload(std::string_view payload)
{
    return payload == HeaderPayload();
}

bool
ParseMetaPayload(std::string_view payload, TraceStreamMeta* meta)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"workload\": ") ||
        !ScanQuoted(payload, &pos, &meta->workload) ||
        !ScanLiteral(payload, &pos, ", \"seed\": ") ||
        !ScanUint(payload, &pos, &meta->seed) ||
        !ScanLiteral(payload, &pos, ", \"refs\": ") ||
        !ScanUint(payload, &pos, &meta->refs) ||
        !ScanLiteral(payload, &pos, ", \"intensity\": ") ||
        !ScanDouble(payload, &pos, &meta->intensity) ||
        !ScanLiteral(payload, &pos, ", \"page_bytes\": ") ||
        !ScanUint(payload, &pos, &meta->page_bytes) ||
        !ScanLiteral(payload, &pos, ", \"block_bytes\": ") ||
        !ScanUint(payload, &pos, &meta->block_bytes) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

bool
ParseEndPayload(std::string_view payload, uint64_t* ops,
                uint64_t* accesses, uint64_t* refs_issued, uint64_t* digest)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"ops\": ") ||
        !ScanUint(payload, &pos, ops) ||
        !ScanLiteral(payload, &pos, ", \"accesses\": ") ||
        !ScanUint(payload, &pos, accesses) ||
        !ScanLiteral(payload, &pos, ", \"refs_issued\": ") ||
        !ScanUint(payload, &pos, refs_issued) ||
        !ScanLiteral(payload, &pos, ", \"digest\": ") ||
        !ScanHexDigest(payload, &pos, digest) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

bool
ParseTrailerPayload(std::string_view payload, uint64_t* streams,
                    uint64_t* digest)
{
    size_t pos = 0;
    if (!ScanLiteral(payload, &pos, "{\"streams\": ") ||
        !ScanUint(payload, &pos, streams) ||
        !ScanLiteral(payload, &pos, ", \"digest\": ") ||
        !ScanHexDigest(payload, &pos, digest) ||
        !ScanLiteral(payload, &pos, "}")) {
        return false;
    }
    return pos == payload.size();
}

// ---------------------------------------------------------------------------
// Varint / zigzag op coding.
//
// Access ops are coded without a branch on varint length (DESIGN.md §19):
// a varint is spread into, or compacted out of, one 8-byte word with
// SWAR ("SIMD within a register") masks and shifts, so the two common
// access-delta lengths (1 byte within a segment, 5 bytes between
// segments) cost the same and mispredict nothing.  The word layout is
// little-endian: byte i of the varint is bits 8i..8i+7 of the word.
// ---------------------------------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "SPUR-TRACE/1 SWAR varint coding assumes a little-endian host");

/** The high bit of every byte. */
constexpr uint64_t kHighBits = 0x8080808080808080;

/** Values below this are written with one 8-byte store. */
constexpr uint64_t kSwarVarintLimit = uint64_t{1} << 56;

/** Room TraceEncoder makes per op: its longest op plus a word store. */
constexpr size_t kMaxOpBytes = 32;

/**
 * Writes @p value as LEB128 at @p out and returns the end of it.  Below
 * 2^56 the 7-bit groups are spread into bytes with three mask-and-shift
 * steps (28-, 14-, then 7-bit lanes) and the continuation bits ORed in
 * below the last byte, all in one 8-byte store: the caller leaves 8
 * bytes of room, and bytes past the varint's end are scratch.
 */
[[gnu::always_inline]] inline char*
PutVarint(char* out, uint64_t value)
{
    if (value >= kSwarVarintLimit) [[unlikely]] {
        while (value >= 0x80) {
            *out++ = static_cast<char>((value & 0x7f) | 0x80);
            value >>= 7;
        }
        *out++ = static_cast<char>(value);
        return out;
    }
    uint64_t word = (value & 0x000000000FFFFFFF) |
                    ((value & 0x00FFFFFFF0000000) << 4);
    word = (word & 0x00003FFF00003FFF) | ((word & 0x0FFFC0000FFFC000) << 2);
    word = (word & 0x007F007F007F007F) | ((word & 0x3F803F803F803F80) << 1);
    // (bit_width + 6) / 7, as a multiply-shift exact for widths <= 56.
    const unsigned bytes =
        (static_cast<unsigned>(std::bit_width(value | 1)) * 9 + 64) / 64;
    word |= kHighBits & ((uint64_t{1} << (8 * bytes - 8)) - 1);
    std::memcpy(out, &word, sizeof(word));
    return out + bytes;
}

uint64_t
ZigzagEncode(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

/** Out of line, so TraceEncoder::OnAccesses keeps its loop lean. */
[[noreturn, gnu::cold, gnu::noinline]] void
FatalAccessType(uint8_t type)
{
    Fatal("trace: invalid access type " + std::to_string(type));
}

/**
 * Validation: counts what the E payload claims, and carries the two
 * digests a stream's B payloads feed, so recovery reads each payload
 * once (RecoverShared).  DecodeOps keeps the digests up to
 * kDigestLead bytes ahead of its position, so the FNV chains' latency
 * hides the op checks; FinishPayload mixes the rest.  The cursor
 * `digested` never passes the payload's end, and the bytes before it
 * have been mixed once each, in order.
 */
struct OpCounter {
    static constexpr bool kCountOnly = true;

    uint64_t ops = 0;
    uint64_t accesses = 0;
    uint64_t ops_digest = framed_log::kDigestInit;  ///< The E frame's.
    uint64_t file_digest = 0;  ///< The file's, through the stream so far.
    size_t digested = 0;       ///< The open payload's bytes mixed so far.

    /**
     * Mixes the bytes of @p payload before @p end into both digests.
     * Skips the call when there are none, as for every op in the
     * payload's last kDigestLead bytes: that measured faster than an
     * empty call.
     */
    void DigestTo(std::string_view payload, size_t end)
    {
        if (end > digested) {
            framed_log::DigestBytesPair(
                &ops_digest, &file_digest,
                payload.substr(digested, end - digested));
            digested = end;
        }
    }

    /**
     * Mixes what DecodeOps left of @p payload (all of it once decoding
     * has failed) and its '\n' terminator, the op digest's separator.
     */
    void FinishPayload(std::string_view payload)
    {
        framed_log::DigestMixPair(&ops_digest, &file_digest,
                                  payload.substr(digested));
        digested = 0;
    }

    void Create() { ++ops; }
    void Destroy(uint64_t) { ++ops; }
    void SetPid(uint64_t) { ++ops; }
    void Map(uint64_t, ProcessAddr, uint64_t, vm::PageKind) { ++ops; }
    void Share(uint64_t, unsigned, uint64_t, unsigned) { ++ops; }
    void Switch() { ++ops; }
    void CountAccessOps(uint64_t n)
    {
        ops += n;
        accesses += n;
    }
};

/**
 * Recovery's decode, out of line: RecoverShared's frame loop stays
 * small, and the count-only loop gains nothing from sitting in it.
 */
[[gnu::noinline]] bool
ValidateOps(std::string_view ops, DecodeState* state, OpCounter& counts,
            std::string* why)
{
    return DecodeOps(ops, state, counts, why);
}

#if defined(__x86_64__)
/**
 * The PEXT kernel's decode: all of DecodeOps<Replayer,
 * ScalarRun<VarintPext>>, compiled for BMI1 and BMI2 (which also turns
 * countr_zero and the end-bit clear into tzcnt and blsr).  Only
 * HostReplayKernel() or a CpuHasBmi2() check may lead here.
 */
[[gnu::target("bmi,bmi2")]] bool
DecodeOpsPext(std::string_view ops, DecodeState* state, Replayer& replayer,
              std::string* why)
{
    return DecodeOps<Replayer, ScalarRun<VarintPext>>(ops, state, replayer,
                                                      why);
}
#endif

/** One B payload of a replay, decoded by @p kernel. */
bool
DecodeReplayOps(ReplayKernel kernel, std::string_view ops,
                DecodeState* state, Replayer& replayer, std::string* why)
{
#if defined(__x86_64__)
    if (kernel == ReplayKernel::kAvx512) {
        return DecodeOpsAvx512(ops, state, replayer, why);
    }
    if (kernel == ReplayKernel::kPext) {
        return DecodeOpsPext(ops, state, replayer, why);
    }
#endif
    return DecodeOps(ops, state, replayer, why);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceStreamMeta
// ---------------------------------------------------------------------------

std::string
TraceStreamMeta::Identity() const
{
    std::string key = workload;
    key += "|seed=" + FormatUint(seed);
    key += "|refs=" + FormatUint(refs);
    key += "|intensity=" + FormatDouble(intensity);
    key += "|page=" + FormatUint(page_bytes);
    key += "|block=" + FormatUint(block_bytes);
    return key;
}

// ---------------------------------------------------------------------------
// TraceEncoder
// ---------------------------------------------------------------------------

TraceEncoder::TraceEncoder(TraceStreamMeta meta)
    : meta_(std::move(meta)), digest_(framed_log::kDigestInit)
{
    for (const char c : meta_.workload) {
        if (c < 0x20 || c > 0x7e || c == '"' || c == '\\') {
            Fatal("trace: workload name '" + meta_.workload +
                  "' is not representable");
        }
    }
    framed_ = framed_log::EncodeFrame('S', MetaPayload(meta_));
    const uint64_t refs = std::min(meta_.refs, kMaxReserveBytes);
    framed_.reserve(static_cast<size_t>(
        std::min(refs * kReserveQuartersPerRef / 4 + framed_.size() +
                     kBatchFlushBytes,
                 kMaxReserveBytes)));
}

void
TraceEncoder::Grow()
{
    batch_.resize(std::max(2 * batch_.size(), 2 * kBatchFlushBytes));
}

char*
TraceEncoder::Room()
{
    if (batch_.size() - batch_len_ < kMaxOpBytes) [[unlikely]] {
        Grow();
    }
    return batch_.data() + batch_len_;
}

void
TraceEncoder::Emit(const char* end, uint64_t ops)
{
    batch_len_ = static_cast<size_t>(end - batch_.data());
    ops_ += ops;
}

void
TraceEncoder::FlushBatch()
{
    if (batch_len_ == 0) {
        return;
    }
    // OnAccesses has already mixed the first digested_ bytes.
    digest_ = framed_log::DigestMix(
        digest_, std::string_view(batch_.data() + digested_,
                                  batch_len_ - digested_));
    framed_log::AppendFrame(&framed_, 'B',
                            std::string_view(batch_.data(), batch_len_));
    batch_len_ = 0;
    digested_ = 0;
}

uint32_t
TraceEncoder::TracePid(Pid host_pid) const
{
    for (const auto& [host, trace] : pid_map_) {
        if (host == host_pid) {
            return trace;
        }
    }
    Fatal("trace: pid " + std::to_string(host_pid) +
          " was not created while recording");
}

void
TraceEncoder::OnCreateProcess(Pid host_pid)
{
    for (const auto& [host, trace] : pid_map_) {
        (void)trace;
        if (host == host_pid) {
            Fatal("trace: host pid " + std::to_string(host_pid) +
                  " created twice");
        }
    }
    const uint32_t trace_pid = next_trace_pid_++;
    pid_map_.emplace_back(host_pid, trace_pid);
    char* out = Room();
    *out++ = static_cast<char>(kOpCreate);
    Emit(PutVarint(out, trace_pid), 1);
}

void
TraceEncoder::OnDestroyProcess(Pid host_pid)
{
    const uint32_t trace_pid = TracePid(host_pid);
    for (size_t i = 0; i < pid_map_.size(); ++i) {
        if (pid_map_[i].first == host_pid) {
            pid_map_[i] = pid_map_.back();
            pid_map_.pop_back();
            break;
        }
    }
    if (current_pid_ == trace_pid) {
        current_pid_ = kNoTracePid;  // Also drops OnAccesses' pid cache.
    }
    char* out = Room();
    *out++ = static_cast<char>(kOpDestroy);
    Emit(PutVarint(out, trace_pid), 1);
}

void
TraceEncoder::OnMapRegion(Pid host_pid, ProcessAddr base, uint64_t bytes,
                          vm::PageKind kind)
{
    char* out = Room();
    *out++ = static_cast<char>(kOpMapRegion);
    out = PutVarint(out, TracePid(host_pid));
    out = PutVarint(out, base);
    out = PutVarint(out, bytes);
    *out++ = static_cast<char>(kind);
    Emit(out, 1);
}

void
TraceEncoder::OnShareSegment(Pid host_pid, unsigned reg, Pid other,
                             unsigned other_reg)
{
    if (reg > kMaxSegReg || other_reg > kMaxSegReg) {
        Fatal("trace: segment register out of range");
    }
    char* out = Room();
    *out++ = static_cast<char>(kOpShare);
    out = PutVarint(out, TracePid(host_pid));
    *out++ = static_cast<char>(reg);
    out = PutVarint(out, TracePid(other));
    *out++ = static_cast<char>(other_reg);
    Emit(out, 1);
}

void
TraceEncoder::OnContextSwitch()
{
    char* out = Room();
    *out++ = static_cast<char>(kOpSwitch);
    Emit(out, 1);
    if (batch_len_ >= kBatchFlushBytes) {
        FlushBatch();
    }
}

void
TraceEncoder::OnAccesses(const MemRef* refs, size_t n)
{
    // The batch's state lives in locals for the whole loop; Grow() moves
    // the buffer, so `base` is reloaded after it.
    char* base = batch_.data();
    size_t capacity = batch_.size();
    size_t len = batch_len_;
    size_t digested = digested_;
    uint64_t digest = digest_;
    ProcessAddr last_addr = last_addr_;
    uint64_t setpids = 0;
    for (size_t i = 0; i < n; ++i) {
        const MemRef& ref = refs[i];
        const auto type = static_cast<uint8_t>(ref.type);
        if (type > static_cast<uint8_t>(AccessType::kWrite)) [[unlikely]] {
            FatalAccessType(type);
        }
        if (capacity - len < kMaxOpBytes) [[unlikely]] {
            Grow();
            base = batch_.data();
            capacity = batch_.size();
        }
        char* out = base + len;
        // current_host_pid_ is a one-entry cache of the current pid's host
        // pid, valid while current_pid_ is: any other pid needs a setpid.
        if (ref.pid != current_host_pid_ || current_pid_ == kNoTracePid)
            [[unlikely]] {
            current_pid_ = TracePid(ref.pid);
            current_host_pid_ = ref.pid;
            *out++ = static_cast<char>(kOpSetPid);
            out = PutVarint(out, current_pid_);
            ++setpids;
        }
        *out++ = static_cast<char>(kOpIFetch + type);
        out = PutVarint(out, ZigzagEncode(static_cast<int64_t>(ref.addr) -
                                          static_cast<int64_t>(last_addr)));
        len = static_cast<size_t>(out - base);
        last_addr = ref.addr;
        // Mix 4 written bytes into the op digest, so its multiply chain
        // overlaps the encoding instead of running alone at FlushBatch.
        // The cursor never passes len; an access op is about 4 bytes on
        // the paper's workloads, so it keeps close behind, and FlushBatch
        // mixes whatever it has not reached.
        if (len - digested >= 4) {
            const char* p = base + digested;
            for (unsigned k = 0; k < 4; ++k) {
                digest = framed_log::DigestStep(
                    digest, static_cast<unsigned char>(p[k]));
            }
            digested += 4;
        }
    }
    batch_len_ = len;
    digested_ = digested;
    digest_ = digest;
    last_addr_ = last_addr;
    ops_ += n + setpids;
    accesses_ += n;
}

std::string
TraceEncoder::Finish(uint64_t refs_issued)
{
    if (finished_) {
        Fatal("trace: TraceEncoder::Finish called twice");
    }
    finished_ = true;
    FlushBatch();
    framed_log::AppendFrame(
        &framed_, 'E', EndPayload(ops_, accesses_, refs_issued, digest_));
    return std::move(framed_);
}

// ---------------------------------------------------------------------------
// RecordingHost
// ---------------------------------------------------------------------------

Pid
RecordingHost::CreateProcess()
{
    const Pid pid = host_.CreateProcess();
    if (recording_) {
        encoder_.OnCreateProcess(pid);
    }
    return pid;
}

void
RecordingHost::DestroyProcess(Pid pid)
{
    if (recording_) {
        encoder_.OnDestroyProcess(pid);
    }
    host_.DestroyProcess(pid);
}

void
RecordingHost::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                         vm::PageKind kind)
{
    if (recording_) {
        encoder_.OnMapRegion(pid, base, bytes, kind);
    }
    host_.MapRegion(pid, base, bytes, kind);
}

void
RecordingHost::ShareSegment(Pid pid, unsigned reg, Pid other,
                            unsigned other_reg)
{
    if (recording_) {
        encoder_.OnShareSegment(pid, reg, other, other_reg);
    }
    host_.ShareSegment(pid, reg, other, other_reg);
}

void
RecordingHost::Access(const MemRef& ref)
{
    if (recording_) {
        encoder_.OnAccess(ref);
    }
    host_.Access(ref);
}

void
RecordingHost::AccessBatch(const MemRef* refs, size_t n)
{
    if (recording_) {
        encoder_.OnAccesses(refs, n);
    }
    host_.AccessBatch(refs, n);
}

void
RecordingHost::OnContextSwitch()
{
    if (recording_) {
        encoder_.OnContextSwitch();
    }
    host_.OnContextSwitch();
}

const sim::MachineConfig&
RecordingHost::config() const
{
    return host_.config();
}

// ---------------------------------------------------------------------------
// TraceFileWriter
// ---------------------------------------------------------------------------

bool
TraceFileWriter::Open(const std::string& path, std::string* error)
{
    if (!log_.Open(path, error)) {
        return false;
    }
    digest_ = framed_log::kDigestInit;
    streams_ = 0;
    return log_.Append(kTraceMagic + framed_log::EncodeFrame(
                                         'H', HeaderPayload()),
                       error);
}

bool
TraceFileWriter::AppendStream(const std::string& stream_bytes,
                              std::string* error)
{
    if (!log_.Append(stream_bytes, error)) {
        return false;
    }
    digest_ = framed_log::DigestMix(digest_, stream_bytes);
    ++streams_;
    return true;
}

bool
TraceFileWriter::Finish(std::string* error)
{
    const bool ok = log_.Append(
        framed_log::EncodeFrame('T', TrailerPayload(streams_, digest_)),
        error);
    log_.Close();
    return ok;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::string
EncodeTraceFile(std::span<const std::string_view> stream_frames)
{
    const std::string header = framed_log::EncodeFrame('H', HeaderPayload());
    uint64_t digest = framed_log::kDigestInit;
    size_t size = std::string_view(kTraceMagic).size() + header.size();
    for (const std::string_view frames : stream_frames) {
        digest = framed_log::DigestMix(digest, frames);
        size += frames.size();
    }
    const std::string trailer = framed_log::EncodeFrame(
        'T', TrailerPayload(stream_frames.size(), digest));
    std::string bytes;
    bytes.reserve(size + trailer.size());
    bytes += kTraceMagic;
    bytes += header;
    for (const std::string_view frames : stream_frames) {
        bytes += frames;
    }
    bytes += trailer;
    return bytes;
}

std::string
EncodeTraceFile(std::initializer_list<std::string_view> stream_frames)
{
    return EncodeTraceFile(std::span(stream_frames.begin(),
                                     stream_frames.size()));
}

std::string
EncodeTraceFile(const std::vector<std::string>& stream_frames)
{
    const std::vector<std::string_view> views(stream_frames.begin(),
                                              stream_frames.end());
    return EncodeTraceFile(views);
}

namespace {

/**
 * The one trace parser behind RecoverTraceBytes and RecoverTraceFile.
 * Every recovered stream shares @p file and views its S..E bytes in
 * place.
 */
std::optional<RecoveredTrace>
RecoverShared(const std::shared_ptr<const std::string>& file,
              std::string* error)
{
    const std::string& bytes = *file;
    RecoveredTrace result;
    switch (framed_log::CheckMagic(bytes, kTraceMagic)) {
      case framed_log::ParseStatus::kTruncated:
        result.dropped_bytes = bytes.size();
        result.note = "torn before the header; recovered 0 streams";
        return result;
      case framed_log::ParseStatus::kCorrupt:
        Fail(error, "not a SPUR-TRACE/1 file");
        return std::nullopt;
      case framed_log::ParseStatus::kOk:
        break;
    }
    const std::string_view view(bytes);
    size_t pos = std::string_view(kTraceMagic).size();
    // recovered_end: the offset up to which the file is a sequence of
    // complete verified streams (truncation recovery resumes here).
    size_t recovered_end = pos;
    uint64_t file_digest = framed_log::kDigestInit;

    const auto truncated = [&](const char* where) {
        result.complete = false;
        result.dropped_bytes = bytes.size() - recovered_end;
        result.note = std::string("torn ") + where + "; recovered " +
                      FormatUint(result.streams.size()) + " stream(s), " +
                      FormatUint(result.dropped_bytes) + " byte(s) dropped";
        return result;
    };
    framed_log::Frame frame;
    const auto next = [&] {
        std::string why;
        const framed_log::ParseStatus status =
            framed_log::ParseFrame(bytes, pos, kTraceTags,
                                   framed_log::kMaxFilePayload, &frame,
                                   &why);
        if (status == framed_log::ParseStatus::kCorrupt) {
            Fail(error, "frame at offset " + FormatUint(pos) + ": " + why);
        }
        return status;
    };

    // The H frame.
    if (pos >= bytes.size()) {
        return truncated("before the header");
    }
    switch (next()) {
      case framed_log::ParseStatus::kTruncated:
        return truncated("inside the header");
      case framed_log::ParseStatus::kCorrupt:
        return std::nullopt;
      case framed_log::ParseStatus::kOk:
        break;
    }
    if (frame.tag != 'H' || !ParseHeaderPayload(frame.payload)) {
        Fail(error, "bad or unsupported trace header");
        return std::nullopt;
    }
    pos = recovered_end = frame.end;

    // Streams, then the trailer.
    while (pos < bytes.size()) {
        switch (next()) {
          case framed_log::ParseStatus::kTruncated:
            return truncated("mid-stream");
          case framed_log::ParseStatus::kCorrupt:
            return std::nullopt;
          case framed_log::ParseStatus::kOk:
            break;
        }
        if (frame.tag == 'T') {
            uint64_t stream_count = 0;
            uint64_t digest = 0;
            if (!ParseTrailerPayload(frame.payload, &stream_count,
                                     &digest)) {
                Fail(error, "malformed trace trailer");
                return std::nullopt;
            }
            if (stream_count != result.streams.size()) {
                Fail(error,
                     "trailer claims " + FormatUint(stream_count) +
                         " stream(s), file holds " +
                         FormatUint(result.streams.size()));
                return std::nullopt;
            }
            if (digest != file_digest) {
                Fail(error, "trace digest mismatch");
                return std::nullopt;
            }
            if (frame.end != bytes.size()) {
                Fail(error, "bytes after the trace trailer");
                return std::nullopt;
            }
            result.complete = true;
            result.note = "complete: " +
                          FormatUint(result.streams.size()) + " stream(s)";
            return result;
        }
        if (frame.tag != 'S') {
            Fail(error, "expected S or T frame at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }

        // One stream: S, B*, E, read in one pass.  Each B payload is
        // validated where it lies, and the validator mixes it into both
        // digests as it goes (OpCounter); `framed` then views the
        // stream's bytes in the shared buffer.
        TraceStream stream;
        const size_t stream_start = pos;
        if (!ParseMetaPayload(frame.payload, &stream.meta)) {
            Fail(error, "malformed stream header at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }
        // The file digest mixes the stream's frame bytes in order: raw
        // updates here, its '\n' separator after the E frame.
        DecodeState state;
        OpCounter counts;
        counts.file_digest = framed_log::DigestBytes(
            file_digest, view.substr(pos, frame.end - pos));
        pos = frame.end;
        // A malformed op stops decoding but not digesting: it is
        // reported only after the truncation, E-frame and op-digest
        // checks, where a whole-stream decode would have reported it.
        bool decoded = true;
        std::string why;
        for (;;) {
            switch (next()) {
              case framed_log::ParseStatus::kTruncated:
                return truncated("inside a stream");
              case framed_log::ParseStatus::kCorrupt:
                return std::nullopt;
              case framed_log::ParseStatus::kOk:
                break;
            }
            if (frame.tag != 'B') {
                break;
            }
            const size_t payload_start =
                static_cast<size_t>(frame.payload.data() - view.data());
            counts.file_digest = framed_log::DigestBytes(
                counts.file_digest, view.substr(pos, payload_start - pos));
            if (decoded) {
                decoded = ValidateOps(frame.payload, &state, counts, &why);
            }
            counts.FinishPayload(frame.payload);
            pos = frame.end;
        }
        if (frame.tag != 'E') {
            Fail(error, "expected B or E frame at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }
        if (!ParseEndPayload(frame.payload, &stream.op_count,
                             &stream.accesses, &stream.refs_issued,
                             &stream.digest)) {
            Fail(error, "malformed stream end at offset " +
                            FormatUint(pos));
            return std::nullopt;
        }
        if (stream.digest != counts.ops_digest) {
            Fail(error, "stream '" + stream.meta.Identity() +
                            "': op digest mismatch");
            return std::nullopt;
        }
        if (!decoded) {
            Fail(error, "stream '" + stream.meta.Identity() + "': " + why);
            return std::nullopt;
        }
        if (counts.ops != stream.op_count ||
            counts.accesses != stream.accesses) {
            Fail(error, "stream '" + stream.meta.Identity() +
                            "': op counts disagree with the E frame");
            return std::nullopt;
        }
        file_digest = framed_log::DigestMix(
            counts.file_digest, view.substr(pos, frame.end - pos));
        pos = frame.end;
        stream.file = file;
        stream.framed = view.substr(stream_start, pos - stream_start);
        result.streams.push_back(std::move(stream));
        recovered_end = pos;
    }
    return truncated("before the trailer");
}

}  // namespace

std::optional<RecoveredTrace>
RecoverTraceBytes(const std::string& bytes, std::string* error)
{
    return RecoverShared(std::make_shared<const std::string>(bytes), error);
}

std::optional<RecoveredTrace>
RecoverTraceFile(const std::string& path, std::string* error)
{
    std::string bytes;
    if (!framed_log::ReadFile(path, &bytes, error)) {
        return std::nullopt;
    }
    return RecoverShared(
        std::make_shared<const std::string>(std::move(bytes)), error);
}

// ---------------------------------------------------------------------------
// TraceLibrary
// ---------------------------------------------------------------------------

bool
TraceLibrary::Load(const std::string& path, std::string* error)
{
    std::string recover_error;
    const std::optional<RecoveredTrace> recovered =
        RecoverTraceFile(path, &recover_error);
    if (!recovered) {
        return Fail(error, path + ": " + recover_error);
    }
    if (!recovered->complete) {
        return Fail(error,
                    path + ": truncated trace (" + recovered->note +
                        "); recover it with `spur_trace validate` first");
    }
    streams_ = std::move(recovered->streams);
    return true;
}

const TraceStream*
TraceLibrary::Find(const std::string& identity) const
{
    for (const TraceStream& stream : streams_) {
        if (stream.meta.Identity() == identity) {
            return &stream;
        }
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

bool
CpuHasBmi2()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
#else
    return false;
#endif
}

bool
CpuHasAvx512Vbmi2()
{
#if defined(__x86_64__)
    // libgcc sets the AVX-512 features only when XGETBV shows the OS
    // saves the opmask and zmm state.
    return CpuHasBmi2() && __builtin_cpu_supports("popcnt") &&
           __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vbmi") &&
           __builtin_cpu_supports("avx512vbmi2");
#else
    return false;
#endif
}

ReplayKernel
HostReplayKernel()
{
#if defined(__x86_64__)
    static const ReplayKernel kernel = [] {
        const bool bmi2 = CpuHasBmi2();  // Runs __builtin_cpu_init first.
        return ChooseReplayKernel(bmi2, __builtin_cpu_is("amdfam17h"),
                                  CpuHasAvx512Vbmi2());
    }();
    return kernel;
#else
    return ReplayKernel::kSwar;
#endif
}

ReplayStats
ReplayStream(const TraceStream& stream, WorkloadHost& host)
{
    return ReplayStreamWith(stream, host, HostReplayKernel());
}

ReplayStats
ReplayStreamWith(const TraceStream& stream, WorkloadHost& host,
                 ReplayKernel kernel)
{
    if (kernel == ReplayKernel::kPext && !CpuHasBmi2()) {
        Fatal("trace: the PEXT replay kernel needs a CPU with BMI2");
    }
    if (kernel == ReplayKernel::kAvx512 && !CpuHasAvx512Vbmi2()) {
        Fatal("trace: the AVX-512 replay kernel needs a CPU with "
              "AVX512F/BW/VBMI/VBMI2, PCLMUL and BMI2");
    }
    const sim::MachineConfig& config = host.config();
    if (config.page_bytes != stream.meta.page_bytes ||
        config.block_bytes != stream.meta.block_bytes) {
        Fatal("trace: stream '" + stream.meta.Identity() +
              "' was recorded at page/block " +
              FormatUint(stream.meta.page_bytes) + "/" +
              FormatUint(stream.meta.block_bytes) +
              ", host geometry is " + FormatUint(config.page_bytes) + "/" +
              FormatUint(config.block_bytes));
    }

    // `framed` is the S, B*, E frames recovery validated; decode its B
    // payloads in place.  A failure here is only reachable on a bug.
    Replayer replayer(host);
    DecodeState state;
    framed_log::Frame frame;
    std::string why;
    for (size_t pos = 0;; pos = frame.end) {
        if (framed_log::ParseFrame(stream.framed, pos, kTraceTags,
                                   framed_log::kMaxFilePayload, &frame,
                                   &why) != framed_log::ParseStatus::kOk) {
            Fatal("trace: malformed stream frames escaped validation");
        }
        if (frame.tag == 'E') {
            break;
        }
        if (frame.tag == 'B' &&
            !DecodeReplayOps(kernel, frame.payload, &state, replayer,
                             &why)) {
            Fatal("trace: malformed op stream escaped validation: " + why);
        }
    }
    replayer.Flush();
    replayer.stats.refs_issued = stream.refs_issued;
    return replayer.stats;
}

ReplayStats
ReplayTrace(const std::string& path, WorkloadHost& host)
{
    TraceLibrary library;
    std::string error;
    if (!library.Load(path, &error)) {
        Fatal("trace: " + error);
    }
    ReplayStats total;
    for (const TraceStream& stream : library.streams()) {
        const ReplayStats stats = ReplayStream(stream, host);
        total.refs_issued += stats.refs_issued;
        total.accesses += stats.accesses;
        total.context_switches += stats.context_switches;
        total.processes += stats.processes;
    }
    return total;
}

}  // namespace spur::workload
