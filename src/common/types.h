/**
 * @file
 * Fundamental address and size types shared by every SPUR module.
 *
 * SPUR processes issue 32-bit virtual addresses.  The top two bits of a
 * process address select one of four segment registers, which map the
 * address into a larger *global* virtual address space shared by all
 * processes (this is how SPUR prevents virtual-address synonyms, see
 * [Hill86]).  The global space is what the virtual-address cache and the
 * page tables are indexed by, so global addresses are 64-bit here even
 * though the hardware used 38 bits.
 */
#ifndef SPUR_COMMON_TYPES_H_
#define SPUR_COMMON_TYPES_H_

#include <cstdint>

namespace spur {

/** A 32-bit per-process virtual address. */
using ProcessAddr = uint32_t;

/** A global virtual address (post segment mapping). */
using GlobalAddr = uint64_t;

/** A physical address. */
using PhysAddr = uint64_t;

/** A global virtual page number (GlobalAddr >> kPageShift). */
using GlobalVpn = uint64_t;

/** A physical frame number. */
using FrameNum = uint32_t;

/** Sentinel for "no frame". */
inline constexpr FrameNum kInvalidFrame = ~FrameNum{0};

/** Process identifier. */
using Pid = uint32_t;

/** Simulated time in CPU cycles. */
using Cycles = uint64_t;

/** The kind of processor memory reference. */
enum class AccessType : uint8_t {
    kIFetch = 0,  ///< Instruction fetch.
    kRead = 1,    ///< Processor load.
    kWrite = 2,   ///< Processor store.
};

/** A single memory reference as issued by a workload. */
struct MemRef {
    Pid pid = 0;
    ProcessAddr addr = 0;
    AccessType type = AccessType::kRead;
};

/** Page protection levels stored in PTEs and cached in cache lines. */
enum class Protection : uint8_t {
    kNone = 0,      ///< Invalid / kernel only.
    kReadOnly = 1,  ///< Loads and instruction fetches permitted.
    kReadWrite = 2, ///< All accesses permitted.
};

/** Returns a short human-readable name for a protection level. */
const char* ToString(Protection prot);

}  // namespace spur

#endif  // SPUR_COMMON_TYPES_H_
