/**
 * @file
 * SPUR-TRACE/1: the deterministic workload-trace substrate (DESIGN.md
 * §19).
 *
 * The paper's Section 2 explains why the study could not use
 * trace-driven simulation: paging-scale traces were unaffordable to
 * collect in 1989.  We reverse that verdict.  Because the synthetic
 * generators are pure (rng + cursors, no feedback from the machine), a
 * workload's *operation stream* — every WorkloadHost call the driver
 * makes — depends only on (spec, refs, seed, slice_refs, page geometry),
 * never on the policies or memory size under test.  Recording that
 * stream once therefore feeds every cell of a policy/memory matrix
 * byte-identically, which is exactly the classical trace-driven
 * methodology, now the *cheap* path.
 *
 * A trace is an op trace, not a bare reference trace: process creation,
 * teardown, region maps, segment shares and context switches are all
 * frames of the stream, so replaying reproduces the live run's counters
 * exactly (the old format's "map generous regions per pid" replay could
 * not).  Host pids are renamed to dense first-seen order on record and
 * renamed back on replay, so the same workload recorded against any
 * host — the real SpurSystem or the counts-only CountingHost — produces
 * byte-identical trace bytes.
 *
 * File format, a framed log (src/common/framed_log.h, DESIGN.md §20,
 * which owns the framing, the digest and the truncation-vs-corruption
 * rule; this file owns the payloads and the op coding):
 *
 *     SPUR-TRACE/1\n                    magic line
 *     H <len>\n<header-json>\n          trace format version
 *     per stream (one per distinct stream identity):
 *       S <len>\n<meta-json>\n          workload, seed, refs, intensity,
 *                                       page/block geometry
 *       B <len>\n<binary-ops>\n         delta/varint op batches (~64 KiB)
 *       ...
 *       E <len>\n<end-json>\n           op/access counts, refs issued,
 *                                       FNV-1a64 digest over the B
 *                                       payloads
 *     T <len>\n<trailer-json>\n         stream count + whole-file digest
 *
 * Binary op encoding (all integers LEB128 varints; access addresses are
 * zigzag deltas against the previous access address):
 *
 *     0 create   <pid>                       pid must be the next dense id
 *     1 destroy  <pid>
 *     2 map      <pid> <base> <bytes> <kind>
 *     3 share    <pid> <reg> <other> <other_reg>
 *     4 switch
 *     5 setpid   <pid>                       current pid for accesses
 *     6 ifetch   <zigzag addr delta>
 *     7 read     <zigzag addr delta>
 *     8 write    <zigzag addr delta>
 *
 * The coding of access ops has no branch on varint length (DESIGN.md
 * §19), so it assumes a little-endian host (a static_assert).  The
 * encoder writes each varint below 2^56 with one 8-byte word store, and
 * mixes the op bytes it has written into the E digest as it goes.  The
 * decoder classifies a 64-byte window at a time: word masks of its stop
 * bytes (below 0x80), access opcodes and zero bytes, split by a prefix
 * XOR of the stops into opcodes, varint ends and continuation bytes,
 * give the run of access ops before the first bad byte.  Validation
 * only counts the run's ends; replay extracts each 1-5 byte varint
 * from one 8-byte load.  Everything else — other ops, longer or
 * non-canonical varints, a payload's last 72 bytes — goes to the op
 * switch.  Both paths accept exactly the same bytes.
 *
 * An access before the first setpid is malformed.  Every B payload
 * holds whole ops: an op never straddles two B frames (the encoder
 * flushes its batch only between ops), and an op cut by its
 * payload's end is malformed.  Decoder state — pids created, the current
 * pid, the delta base — does carry from one payload to the next.  One
 * decoder both validates ops at recovery and executes them at replay, so
 * whatever recovery accepts, replay runs.
 *
 * Recovery reads each stream once: every B payload goes through the op
 * digest and the file digest together and is validated in place.  The
 * stream's S..E bytes are never copied: TraceStream::framed is a view
 * into the one immutable buffer that holds the whole file, and replay
 * decodes the B payloads inside it.
 *
 * Recovery semantics: a trace cut at any byte offset recovers the
 * streams whose E frame is present and verified; a torn tail (and any
 * stream it cut) is dropped and reported.  Damage truncation cannot
 * explain — bad magic, malformed frames, a digest or count that
 * disagrees — is a hard error, never a silent partial result.
 * tests/trace_test.cc and the TraceFuzzTest corpus in
 * tests/json_fuzz_test.cc enforce this at every byte offset.
 */
#ifndef SPUR_WORKLOAD_TRACE_H_
#define SPUR_WORKLOAD_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/framed_log.h"
#include "src/common/types.h"
#include "src/sim/config.h"
#include "src/workload/host.h"

namespace spur::workload {

/** Version of the trace framing; bump on any format change. */
inline constexpr int kTraceVersion = 1;

/** First line of every trace file. */
inline constexpr char kTraceMagic[] = "SPUR-TRACE/1\n";

/**
 * The identity of one recorded stream: everything the generator's
 * output depends on.  Policies and memory size are deliberately absent
 * — the generator cannot see them — which is what lets one recording
 * feed every cell of a policy/memory matrix.
 */
struct TraceStreamMeta {
    std::string workload;     ///< Scenario name (core::ToString spelling).
    uint64_t seed = 0;        ///< Driver seed (cell-derived for matrices).
    uint64_t refs = 0;        ///< Reference budget of the recorded run.
    double intensity = 1.0;   ///< Dev-machine intensity knob.
    uint64_t page_bytes = 0;  ///< Page size the stream was generated at.
    uint64_t block_bytes = 0; ///< Cache block size likewise.

    /** Canonical lookup key ("<workload>|seed=...|..."). */
    std::string Identity() const;
};

/**
 * Encodes one stream's op sequence into framed bytes.  The encoder
 * renames host pids to dense first-seen trace pids, so the output is
 * independent of the recording host's pid policy.
 */
class TraceEncoder
{
  public:
    explicit TraceEncoder(TraceStreamMeta meta);

    TraceEncoder(const TraceEncoder&) = delete;
    TraceEncoder& operator=(const TraceEncoder&) = delete;

    // One call per WorkloadHost operation, in issue order.
    void OnCreateProcess(Pid host_pid);
    void OnDestroyProcess(Pid host_pid);
    void OnMapRegion(Pid host_pid, ProcessAddr base, uint64_t bytes,
                     vm::PageKind kind);
    void OnShareSegment(Pid host_pid, unsigned reg, Pid other,
                        unsigned other_reg);
    void OnContextSwitch();
    void OnAccess(const MemRef& ref) { OnAccesses(&ref, 1); }

    /**
     * Records @p n accesses: the one access-encoding loop.  Besides the
     * ops it advances the op digest over bytes of the open batch it has
     * already written (never past batch_len_), so FlushBatch mixes only
     * the rest.
     */
    void OnAccesses(const MemRef* refs, size_t n);

    /**
     * Seals the stream: flushes the final op batch and appends the E
     * frame.  @p refs_issued is the driver's global reference clock
     * (idle skips advance it without accesses, so it cannot be
     * recomputed from the ops).  Returns the complete framed S..E
     * bytes; the encoder must not be used afterwards.
     */
    std::string Finish(uint64_t refs_issued);

    /** Access ops recorded so far. */
    uint64_t accesses() const { return accesses_; }

    /** Ops of any kind recorded so far. */
    uint64_t ops() const { return ops_; }

  private:
    /** No current pid: the next access writes a setpid. */
    static constexpr uint32_t kNoTracePid = ~uint32_t{0};

    /** Makes room for one op in the batch; returns where it starts. */
    char* Room();
    /** Room()'s cold path, out of line so Room() inlines. */
    void Grow();
    /** Closes the op(s) written from Room() up to @p end. */
    void Emit(const char* end, uint64_t ops);
    void FlushBatch();
    uint32_t TracePid(Pid host_pid) const;

    TraceStreamMeta meta_;
    std::string framed_;        ///< S frame + completed B frames.
    std::string batch_;         ///< Open batch buffer; bytes past
                                ///< batch_len_ are scratch.
    size_t batch_len_ = 0;      ///< Op bytes in the open batch.
    size_t digested_ = 0;       ///< Open-batch bytes already in digest_
                                ///< (<= batch_len_).
    uint64_t digest_;           ///< Rolling FNV over B payloads.
    uint64_t ops_ = 0;
    uint64_t accesses_ = 0;
    uint32_t next_trace_pid_ = 0;
    std::vector<std::pair<Pid, uint32_t>> pid_map_;  ///< host -> trace.
    uint32_t current_pid_ = kNoTracePid;  ///< Trace pid of the last setpid.
    Pid current_host_pid_ = 0;  ///< Its host pid, when current_pid_ is set.
    ProcessAddr last_addr_ = 0;
    bool finished_ = false;
};

/**
 * A WorkloadHost shim that records every operation into a TraceEncoder
 * while forwarding it to the real host unchanged.  StopRecording()
 * keeps forwarding but stops recording — RunOnce samples counters
 * before driver teardown, so teardown ops must not enter the trace.
 */
class RecordingHost : public WorkloadHost
{
  public:
    RecordingHost(WorkloadHost& host, TraceEncoder& encoder)
        : host_(host), encoder_(encoder)
    {
    }

    void StopRecording() { recording_ = false; }

    Pid CreateProcess() override;
    void DestroyProcess(Pid pid) override;
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override;
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override;
    void Access(const MemRef& ref) override;
    void AccessBatch(const MemRef* refs, size_t n) override;
    void OnContextSwitch() override;
    const sim::MachineConfig& config() const override;

  private:
    WorkloadHost& host_;
    TraceEncoder& encoder_;
    bool recording_ = true;
};

/**
 * A counts-only host: accepts the full WorkloadHost surface without
 * simulating anything, so `spur_trace record` can capture a scenario's
 * op stream without paying for cache/VM simulation.  Thanks to pid
 * normalization, a trace recorded through CountingHost is byte-
 * identical to one recorded against the live SpurSystem.
 */
class CountingHost : public WorkloadHost
{
  public:
    explicit CountingHost(const sim::MachineConfig& config)
        : config_(config)
    {
    }

    Pid CreateProcess() override { return next_pid_++; }
    void DestroyProcess(Pid) override {}
    void MapRegion(Pid, ProcessAddr, uint64_t, vm::PageKind) override {}
    void ShareSegment(Pid, unsigned, Pid, unsigned) override {}
    void Access(const MemRef&) override { ++accesses_; }
    void AccessBatch(const MemRef*, size_t n) override { accesses_ += n; }
    void OnContextSwitch() override { ++context_switches_; }
    const sim::MachineConfig& config() const override { return config_; }

    uint64_t accesses() const { return accesses_; }
    uint64_t context_switches() const { return context_switches_; }

  private:
    sim::MachineConfig config_;
    Pid next_pid_ = 1;
    uint64_t accesses_ = 0;
    uint64_t context_switches_ = 0;
};

/**
 * Appends encoded streams to a trace file.  The magic line and H frame
 * land at Open; every AppendStream is written and fsync'd whole, so a
 * killed recorder leaves a file whose complete-stream prefix recovers.
 * Not thread-safe: core::TraceRecordSession calls it under its mutex,
 * appending streams in place order and holding any that arrive early.
 */
class TraceFileWriter
{
  public:
    /** Creates/truncates @p path, writes magic + H frame (fsync'd). */
    bool Open(const std::string& path, std::string* error);

    /** Appends one TraceEncoder::Finish() result (fsync'd whole). */
    bool AppendStream(const std::string& stream_bytes, std::string* error);

    /** Writes the T trailer frame and closes. */
    bool Finish(std::string* error);

    bool is_open() const { return log_.is_open(); }

    /** Streams appended so far. */
    uint64_t streams() const { return streams_; }

  private:
    framed_log::DurableAppender log_;
    uint64_t streams_ = 0;
    uint64_t digest_ = 0;
};

/**
 * One complete, digest-verified stream read back from a trace.  Its
 * stream bytes are `framed`, a view into the recovered file's one
 * immutable buffer, which `file` keeps alive: every stream of a file
 * shares that buffer, and it lives while any copy of any of them does,
 * so a TraceStream may be copied out of its RecoveredTrace or
 * TraceLibrary and outlive it.  Re-encoding writes `framed` as is, and
 * replay decodes the B payloads inside it.
 */
struct TraceStream {
    TraceStreamMeta meta;
    std::shared_ptr<const std::string> file;  ///< Owns `framed`'s bytes.
    std::string_view framed;  ///< The exact S..E frame bytes.
    uint64_t op_count = 0;
    uint64_t accesses = 0;
    uint64_t refs_issued = 0;
    uint64_t digest = 0;   ///< FNV-1a64 over the B payloads.
};

/** Outcome of reading a trace file back. */
struct RecoveredTrace {
    /// True when the T trailer was present and verified.  False =
    /// truncated: `streams` holds every stream whose E frame verified;
    /// the torn tail (and any stream it cut) was dropped.
    bool complete = false;
    std::vector<TraceStream> streams;
    /// Bytes dropped after the last complete stream.
    uint64_t dropped_bytes = 0;
    /// One-line human-readable recovery summary.
    std::string note;
};

/**
 * Parses @p bytes as a trace.  Truncation at any byte offset recovers
 * the complete-stream prefix; corruption (anything truncation cannot
 * produce, including malformed op payloads behind a valid digest)
 * returns nullopt with *error set.  @p bytes is copied once into the
 * buffer the recovered streams share, so the result does not depend on
 * the argument's lifetime.
 */
std::optional<RecoveredTrace> RecoverTraceBytes(const std::string& bytes,
                                                std::string* error);

/** Reads @p path into the streams' shared buffer, with no further copy,
 *  and recovers it as RecoverTraceBytes does. */
std::optional<RecoveredTrace> RecoverTraceFile(const std::string& path,
                                               std::string* error);

/**
 * Renders a complete trace file from framed stream bytes (each entry a
 * TraceEncoder::Finish() result or a TraceStream::framed).  A complete
 * file recovered by RecoverTraceBytes re-encodes byte-identically —
 * the fix-point the fuzzer holds the parser to.  The other two
 * overloads forward here.
 */
std::string EncodeTraceFile(std::span<const std::string_view> stream_frames);
std::string EncodeTraceFile(
    std::initializer_list<std::string_view> stream_frames);
std::string EncodeTraceFile(const std::vector<std::string>& stream_frames);

/**
 * A loaded trace library: the replay side of --replay-trace.  Load
 * demands a complete file (recover partial ones with `spur_trace
 * validate` / RecoverTraceFile first) and reads it once; every stream
 * views that one buffer.  Lookups are read-only and therefore safe
 * from parallel sweep cells.
 */
class TraceLibrary
{
  public:
    /** Loads @p path; false + *error on I/O error, corruption, or a
     *  truncated (trailerless) file. */
    bool Load(const std::string& path, std::string* error);

    /** Finds a stream by TraceStreamMeta::Identity(), else nullptr. */
    const TraceStream* Find(const std::string& identity) const;

    const std::vector<TraceStream>& streams() const { return streams_; }

  private:
    std::vector<TraceStream> streams_;
};

/** Counters from one replayed stream. */
struct ReplayStats {
    uint64_t refs_issued = 0;      ///< The recorded driver clock.
    uint64_t accesses = 0;
    uint64_t context_switches = 0;
    uint64_t processes = 0;        ///< Processes created during replay.
};

/**
 * Replays one stream against @p host, issuing every recorded operation
 * in order (accesses are batched through AccessBatch, which the host
 * contract makes equivalent to the per-reference loop).  Fatal on a
 * page/block geometry mismatch with the host.
 */
ReplayStats ReplayStream(const TraceStream& stream, WorkloadHost& host);

/**
 * Loads @p path (Fatal on error or a truncated file) and replays every
 * stream in file order.  Convenience for examples and spur_trace.
 */
ReplayStats ReplayTrace(const std::string& path, WorkloadHost& host);

}  // namespace spur::workload

#endif  // SPUR_WORKLOAD_TRACE_H_
