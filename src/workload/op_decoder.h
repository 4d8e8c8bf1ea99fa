/**
 * @file
 * The one SPUR-TRACE/1 op decoder, DecodeOps, with what it is built from
 * and its replay visitor, Replayer (DESIGN.md §19).  Private to
 * src/workload: trace.cc instantiates it for recovery's validation and
 * for the SWAR and PEXT replay kernels, replay_avx512.cc for the AVX-512
 * kernel, and the trace tests call its run decoder directly.
 *
 * Everything here is inline and carries no target attribute, so the
 * copy any translation unit emits is baseline code; only the replay
 * wrappers that instantiate DecodeOps (DecodeOpsPext, DecodeOpsAvx512)
 * compile it for a wider target.
 */
#ifndef SPUR_WORKLOAD_OP_DECODER_H_
#define SPUR_WORKLOAD_OP_DECODER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"
#include "src/vm/region.h"
#include "src/workload/host.h"
#include "src/workload/replay_kernel.h"
#include "src/workload/trace.h"
#include "src/workload/window_masks.h"

namespace spur::workload {

/** Highest valid vm::PageKind value in an op payload. */
constexpr uint8_t kMaxPageKind =
    static_cast<uint8_t>(vm::PageKind::kFileCache);

/** Highest valid segment-register index in a share op. */
constexpr uint8_t kMaxSegReg = 3;

// Op opcodes (see the format comment in trace.h).
constexpr uint8_t kOpCreate = 0;
constexpr uint8_t kOpDestroy = 1;
constexpr uint8_t kOpMapRegion = 2;
constexpr uint8_t kOpShare = 3;
constexpr uint8_t kOpSwitch = 4;
constexpr uint8_t kOpSetPid = 5;
constexpr uint8_t kOpIFetch = 6;
constexpr uint8_t kOpRead = 7;
constexpr uint8_t kOpWrite = 8;

/** Bytes an access run needs left in its payload (AccessRunEnds). */
constexpr size_t kRunBytes = 72;

/** Most accesses one 64-byte run window can hold (2 bytes each). */
constexpr size_t kMaxRunAccesses = 32;

/** How far validation keeps the digests ahead of its ops (OpCounter). */
constexpr size_t kDigestLead = 64;

inline uint64_t
Load64(const char* p)
{
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    return word;
}

/** std::popcount without a libgcc call (baseline x86-64 has no popcnt). */
inline unsigned
PopCount(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555;
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F;
    return static_cast<unsigned>((x * 0x0101010101010101) >> 56);
}

// Forced inline: it runs for every op field the run path leaves to the
// switch, and with DecodeOps instantiated more than once GCC otherwise
// keeps it out of line.
[[gnu::always_inline]] inline bool
ReadVarint(std::string_view bytes, size_t* pos, uint64_t* out)
{
    uint64_t value = 0;
    unsigned shift = 0;
    while (*pos < bytes.size()) {
        const uint8_t byte = static_cast<uint8_t>(bytes[*pos]);
        ++*pos;
        if (shift == 63 && (byte & 0x7f) > 1) {
            return false;  // Overflows 64 bits.
        }
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            // Reject non-canonical encodings (a trailing 0x00 group)
            // so every accepted op stream re-encodes byte-identically.
            if (byte == 0 && shift != 0) {
                return false;
            }
            *out = value;
            return true;
        }
        shift += 7;
        if (shift > 63) {
            return false;
        }
    }
    return false;
}

inline int64_t
ZigzagDecode(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^
           -static_cast<int64_t>(value & 1);
}

inline bool
Fail(std::string* error, const std::string& message)
{
    if (error != nullptr) {
        *error = message;
    }
    return false;
}

/**
 * The access-run classifier of DecodeOps.  Returns the varint-end bits
 * of the access ops at the start of the 64-byte window at @p p (the
 * caller guarantees kRunBytes readable bytes): bit i is set when byte i
 * ends one of them, so the run holds popcount ops and spans up to the
 * highest set bit.  Zero means the window does not start with one.
 *
 * ClassifyWindow builds three masks — the stop bytes (below 0x80: every
 * opcode and every varint's last byte), the access opcodes 6-8, and the
 * zero bytes (window_masks.h) — and a prefix XOR of the stops (bit i
 * the XOR of bits 0..i) splits them by parity.  An access op is an opcode and one varint, so
 * in a run the stops alternate: a stop with odd inclusive parity is an
 * opcode, one with even parity ends a varint, and a non-stop byte is a
 * continuation byte when the parity is odd and a gap (a byte of 0x80 or
 * more where an opcode belongs) when it is even.  The run ends at the
 * first bad byte: a gap, an opcode that is not an access, a trailing
 * 0x00 group ending a multi-byte varint (non-canonical), or the fifth
 * continuation byte in a row (a varint longer than 5 bytes).  An op
 * that reaches the window's end has no end bit in it.  What the run
 * declines goes to DecodeOps' switch at the same offset.
 */
/** Bit i: the XOR of bits 0..i of @p bits (six shift-xor steps). */
[[gnu::always_inline]] inline uint64_t
PrefixXor(uint64_t bits)
{
    for (unsigned shift = 1; shift < 64; shift *= 2) {
        bits ^= bits << shift;
    }
    return bits;
}

/**
 * AccessRunEnds of a window whose byte classes are @p masks and whose
 * stops' prefix XOR is @p parity: the part every mask builder shares.
 */
[[gnu::always_inline]] inline uint64_t
RunEnds(const WindowMasks& masks, uint64_t parity)
{
    const auto [stops, access, zeros] = masks;
    const uint64_t opcodes = stops & parity;
    const uint64_t ends = stops & ~parity;
    const uint64_t cont = ~stops & parity;
    const uint64_t gaps = ~stops & ~parity;
    const uint64_t bad = gaps | (opcodes & ~access) |
                         (ends & zeros & (cont << 1)) |
                         (cont & (cont >> 1) & (cont >> 2) & (cont >> 3) &
                          (cont >> 4));
    return ends & (bad - 1) & ~bad;
}

[[gnu::always_inline]] inline uint64_t
AccessRunEnds(const char* p)
{
    const WindowMasks masks = ClassifyWindow(p);
    return RunEnds(masks, PrefixXor(masks.stops));
}

/**
 * The access-run decoder of DecodeOps: writes the run whose end bits
 * @p run AccessRunEnds found at @p p to @p out as references of
 * @p pid, advancing *last_addr, and returns how many it wrote.  The
 * classifier has already checked every op, so the loop has no check
 * and no data-dependent exit: each op's opcode follows the previous
 * end, and @p Varint (replay_kernel.h) turns one 8-byte load and the
 * varint's length into its value.
 */
template <class Varint>
[[gnu::always_inline]] inline size_t
DecodeAccessRun(const char* p, uint64_t run, ProcessAddr* last_addr,
                Pid pid, MemRef* out)
{
    ProcessAddr addr = *last_addr;
    unsigned at = 0;  // The next op's opcode.
    size_t n = 0;
    do {
        const auto end = static_cast<unsigned>(std::countr_zero(run));
        run &= run - 1;
        const uint64_t value = Varint::Value(Load64(p + at + 1), end - at);
        addr = static_cast<ProcessAddr>(static_cast<int64_t>(addr) +
                                        ZigzagDecode(value));
        out[n++] = MemRef{pid, addr,
                          static_cast<AccessType>(
                              static_cast<uint8_t>(p[at]) - kOpIFetch)};
        at = end + 1;
    } while (run != 0);
    *last_addr = addr;
    return n;
}

/**
 * What one run step did at a window: wrote @c refs references and took
 * @c bytes bytes.  Zero bytes means the window does not start with an
 * access run, and the step wrote nothing.
 */
struct RunStep {
    size_t refs = 0;
    size_t bytes = 0;
};

/**
 * The run step of the scalar kernels: AccessRunEnds, then
 * DecodeAccessRun with @p Varint.
 */
template <class Varint>
struct ScalarRun {
    [[gnu::always_inline]] static RunStep
    Decode(const char* p, ProcessAddr* last_addr, Pid pid, MemRef* out)
    {
        const uint64_t run = AccessRunEnds(p);
        if (run == 0) {
            return {};
        }
        return {DecodeAccessRun<Varint>(p, run, last_addr, pid, out),
                static_cast<size_t>(std::bit_width(run))};
    }
};

/** Decoder state carried from one B payload of a stream to the next. */
struct DecodeState {
    uint64_t created = 0;      ///< Trace pids created so far.
    bool have_pid = false;     ///< A setpid has been seen.
    ProcessAddr last_addr = 0; ///< Base of the next access delta
                               ///< (replay only; counting skips it).
};

/**
 * The one op decoder.  Walks one B payload of whole ops, enforcing
 * well-formed varints, known opcodes, dense pid assignment, a current
 * pid before the first access, and in-range field values, and hands
 * each op to @p visitor with its pids already range-checked and its
 * access address already un-delta'd.  An op cut by the payload's end is
 * malformed: ops never straddle B frames.  Stops at the first malformed
 * op with *why set.  The visitor is a template parameter, not a virtual
 * interface, so every visitor call inlines into the replay loop.  A
 * visitor with kCountOnly set gets access counts (CountAccessOps) and
 * no addresses, so validation does no per-access work in a run, and
 * before each run or op it digests the payload up to kDigestLead bytes
 * past it (DigestTo); any other one gets each access decoded into its
 * AccessSlots(), each run by @p Run's step (ScalarRun, or the AVX-512
 * kernel's).  Forced inline, so each caller is one instantiation's whole
 * loop: the PEXT and AVX-512 replay wrappers must compile all of it for
 * their targets.
 */
template <class Visitor, class Run = ScalarRun<VarintSwar>>
[[gnu::always_inline]] inline bool
DecodeOps(std::string_view ops, DecodeState* state, Visitor& visitor,
          std::string* why)
{
    // Locals, not *state, so the loop keeps them in registers across the
    // visitor calls; written back on success only (a failure ends the
    // stream anyway).
    size_t pos = 0;
    uint64_t created = state->created;
    bool have_pid = state->have_pid;
    ProcessAddr last_addr = state->last_addr;
    while (pos < ops.size()) {
        if constexpr (Visitor::kCountOnly) {
            visitor.DigestTo(ops, std::min(pos + kDigestLead, ops.size()));
        }
        // Access runs first; whatever the run path declines (including
        // the payload's last kRunBytes) falls to the switch at the same
        // offset, which alone accepts, rejects and words the errors.
        if (have_pid && ops.size() - pos >= kRunBytes) {
            const char* window = ops.data() + pos;
            if constexpr (Visitor::kCountOnly) {
                const uint64_t run = AccessRunEnds(window);
                if (run != 0) {
                    visitor.CountAccessOps(PopCount(run));
                    pos += static_cast<size_t>(std::bit_width(run));
                    continue;
                }
            } else {
                const RunStep step = Run::Decode(window, &last_addr,
                                                 visitor.pid(),
                                                 visitor.AccessSlots());
                if (step.bytes != 0) {
                    visitor.Issue(step.refs);
                    pos += step.bytes;
                    continue;
                }
            }
        }
        const uint8_t opcode = static_cast<uint8_t>(ops[pos]);
        ++pos;
        uint64_t value = 0;
        switch (opcode) {
          case kOpCreate:
            if (!ReadVarint(ops, &pos, &value) || value != created) {
                return Fail(why, "op stream: bad create pid");
            }
            ++created;
            visitor.Create();
            break;
          case kOpDestroy:
          case kOpSetPid:
            if (!ReadVarint(ops, &pos, &value) || value >= created) {
                return Fail(why, "op stream: pid out of range");
            }
            if (opcode == kOpDestroy) {
                visitor.Destroy(value);
            } else {
                have_pid = true;
                visitor.SetPid(value);
            }
            break;
          case kOpMapRegion: {
            uint64_t base = 0;
            uint64_t bytes = 0;
            if (!ReadVarint(ops, &pos, &value) || value >= created ||
                !ReadVarint(ops, &pos, &base) || base > ~ProcessAddr{0} ||
                !ReadVarint(ops, &pos, &bytes) || pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxPageKind) {
                return Fail(why, "op stream: bad map op");
            }
            const auto kind =
                static_cast<vm::PageKind>(static_cast<uint8_t>(ops[pos]));
            ++pos;
            visitor.Map(value, static_cast<ProcessAddr>(base), bytes, kind);
            break;
          }
          case kOpShare: {
            uint64_t other = 0;
            if (!ReadVarint(ops, &pos, &value) || value >= created ||
                pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxSegReg) {
                return Fail(why, "op stream: bad share op");
            }
            const auto reg = static_cast<uint8_t>(ops[pos]);
            ++pos;
            if (!ReadVarint(ops, &pos, &other) || other >= created ||
                pos >= ops.size() ||
                static_cast<uint8_t>(ops[pos]) > kMaxSegReg) {
                return Fail(why, "op stream: bad share op");
            }
            const auto other_reg = static_cast<uint8_t>(ops[pos]);
            ++pos;
            visitor.Share(value, reg, other, other_reg);
            break;
          }
          case kOpSwitch:
            visitor.Switch();
            break;
          case kOpIFetch:
          case kOpRead:
          case kOpWrite:
            if (!ReadVarint(ops, &pos, &value) || !have_pid) {
                return Fail(why, "op stream: bad access");
            }
            if constexpr (Visitor::kCountOnly) {
                visitor.CountAccessOps(1);
            } else {
                last_addr = static_cast<ProcessAddr>(
                    static_cast<int64_t>(last_addr) + ZigzagDecode(value));
                *visitor.AccessSlots() =
                    MemRef{visitor.pid(), last_addr,
                           static_cast<AccessType>(opcode - kOpIFetch)};
                visitor.Issue(1);
            }
            break;
          default:
            return Fail(why, "op stream: unknown opcode");
        }
    }
    state->created = created;
    state->have_pid = have_pid;
    if constexpr (!Visitor::kCountOnly) {
        state->last_addr = last_addr;
    }
    return true;
}

/**
 * Replay: renames trace pids back to host pids and issues every op to
 * the host, batching accesses through AccessBatch.  Any other op
 * flushes the open batch first, so the host sees recording order.
 */
class Replayer
{
  public:
    static constexpr bool kCountOnly = false;

    explicit Replayer(WorkloadHost& host)
        : host_(host)
    {
    }

    void Create()
    {
        Flush();
        host_pid_.push_back(host_.CreateProcess());
        ++stats.processes;
    }

    void Destroy(uint64_t pid)
    {
        Flush();
        host_.DestroyProcess(host_pid_[pid]);
    }

    void SetPid(uint64_t pid) { current_pid_ = host_pid_[pid]; }

    void Map(uint64_t pid, ProcessAddr base, uint64_t bytes,
             vm::PageKind kind)
    {
        Flush();
        host_.MapRegion(host_pid_[pid], base, bytes, kind);
    }

    void Share(uint64_t pid, unsigned reg, uint64_t other,
               unsigned other_reg)
    {
        Flush();
        host_.ShareSegment(host_pid_[pid], reg, host_pid_[other],
                           other_reg);
    }

    void Switch()
    {
        Flush();
        host_.OnContextSwitch();
        ++stats.context_switches;
    }

    /** The pid of the accesses decoded next. */
    Pid pid() const { return current_pid_; }

    /** Where decoded accesses go: room for kMaxRunAccesses references. */
    MemRef* AccessSlots() { return batch_.data() + fill_; }

    /**
     * Takes the @p n references just decoded into AccessSlots().  A
     * batch is issued as soon as it holds kBatchRefs, at exactly that
     * size; the references past it open the next one.
     */
    void Issue(size_t n)
    {
        stats.accesses += n;
        fill_ += n;
        if (fill_ >= kBatchRefs) [[unlikely]] {
            host_.AccessBatch(batch_.data(), kBatchRefs);
            fill_ -= kBatchRefs;
            std::copy_n(batch_.data() + kBatchRefs, fill_, batch_.data());
        }
    }

    void Flush()
    {
        if (fill_ != 0) {
            host_.AccessBatch(batch_.data(), fill_);
            fill_ = 0;
        }
    }

    ReplayStats stats;

  private:
    /** AccessBatch size: a full batch is issued as soon as it fills. */
    static constexpr size_t kBatchRefs = 4096;

    WorkloadHost& host_;
    std::vector<Pid> host_pid_;  ///< Indexed by trace pid.
    /** kBatchRefs plus the room a run decoded past it needs. */
    std::vector<MemRef> batch_ =
        std::vector<MemRef>(kBatchRefs + kMaxRunAccesses);
    size_t fill_ = 0;            ///< References in batch_.
    Pid current_pid_ = 0;
};

#if defined(__x86_64__)
/**
 * WindowMasks of the 64 bytes at @p p from one zmm load and three mask
 * compares: the AVX-512 kernel's builder, out of line for the tests.
 */
[[gnu::target(SPUR_AVX512_TARGET)]] WindowMasks
WindowMasksAvx512(const char* p);

/** PrefixXor as one carry-less multiply by all ones, out of line. */
[[gnu::target(SPUR_AVX512_TARGET)]] uint64_t PrefixXorClmul(uint64_t bits);

/**
 * The AVX-512 kernel's run step at the window @p p, out of line for the
 * tests: what ScalarRun<VarintSwar>::Decode writes and returns, except
 * that it writes all 16 or 32 slots of the groups of 16 it decodes.
 */
[[gnu::target(SPUR_AVX512_TARGET)]] RunStep
DecodeRunAvx512(const char* p, ProcessAddr* last_addr, Pid pid, MemRef* out);

/**
 * The AVX-512 kernel's decode (replay_avx512.cc): all of
 * DecodeOps<Replayer, RunAvx512>, compiled for SPUR_AVX512_TARGET.  Only
 * HostReplayKernel() or a CpuHasAvx512Vbmi2() check may lead here.
 */
[[gnu::target(SPUR_AVX512_TARGET)]] bool
DecodeOpsAvx512(std::string_view ops, DecodeState* state, Replayer& replayer,
                std::string* why);
#endif

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_OP_DECODER_H_
