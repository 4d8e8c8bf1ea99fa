/**
 * @file
 * The built-in audit passes: each one encodes an invariant the paper's
 * argument depends on (see DESIGN.md "Machine-checked invariants" for the
 * table mapping passes to paper sections).
 *
 * Summary of what each pass asserts:
 *
 * | Pass                   | Invariant                                      |
 * |------------------------|------------------------------------------------|
 * | cache-resident         | Every valid non-PTE cache line belongs to a    |
 * |                        | resident page (reclaim always flushes first).  |
 * | cache-pte-dirty        | A cached P bit never runs ahead of the PTE's D |
 * |                        | bit, and a block-dirty line implies the page   |
 * |                        | is dirty under the running policy's notion.    |
 * | protection-emulation   | FAULT/FLUSH/SPUR-PROT: no writable mapping     |
 * |                        | (PTE or cached PR) on a clean page.            |
 * | frame-table            | Frame table and page table agree: every bound  |
 * |                        | frame has exactly one valid PTE pointing back. |
 * | frame-freelist         | Free-list bookkeeping is internally coherent.  |
 * | backing-store          | Page-out/-in event counts match the store's    |
 * |                        | I/O counters.                                  |
 * | ref-flush              | REF policy: a page whose R bit is clear has no |
 * |                        | resident cache blocks (the clear flushed them).|
 * | mp-coherency           | Berkeley Ownership: at most one owner per      |
 * |                        | block; an exclusive owner has no peers.        |
 *
 * Cross-policy checks over finished experiment matrices live in
 * src/audit/dominance.h (they need run results, not machine state, and
 * so sit above src/core in the layer graph — see LAYERS.toml).
 */
#ifndef SPUR_CHECK_INVARIANTS_H_
#define SPUR_CHECK_INVARIANTS_H_

#include "src/check/checker.h"
#include "src/check/report.h"

namespace spur::check {

// Stable pass names (also the `invariant` field of violations).
inline constexpr const char* kPassCacheResident = "cache-resident";
inline constexpr const char* kPassCachePteDirty = "cache-pte-dirty";
inline constexpr const char* kPassProtectionEmulation =
    "protection-emulation";
inline constexpr const char* kPassFrameTable = "frame-table";
inline constexpr const char* kPassFrameFreeList = "frame-freelist";
inline constexpr const char* kPassBackingStore = "backing-store";
inline constexpr const char* kPassRefFlush = "ref-flush";
inline constexpr const char* kPassMpCoherency = "mp-coherency";

/** True when @p kind tracks page dirtiness via protection emulation
 *  (software dirty bit) rather than the hardware D bit. */
bool UsesProtectionEmulation(policy::DirtyPolicyKind kind);

/** The running policy's notion of "this page was modified". */
bool PolicyPageDirty(policy::DirtyPolicyKind kind, const pt::Pte& pte);

void CheckCacheResidency(const AuditContext& context, AuditReport& report);
void CheckCacheDirtyCoherence(const AuditContext& context,
                              AuditReport& report);
void CheckProtectionEmulation(const AuditContext& context,
                              AuditReport& report);
void CheckFrameResidency(const AuditContext& context, AuditReport& report);
void CheckFrameFreeList(const AuditContext& context, AuditReport& report);
void CheckBackingStoreCounts(const AuditContext& context,
                             AuditReport& report);
void CheckRefFlushHygiene(const AuditContext& context, AuditReport& report);
void CheckMpCoherency(const AuditContext& context, AuditReport& report);

}  // namespace spur::check

#endif  // SPUR_CHECK_INVARIANTS_H_
