/**
 * @file
 * spur_bench: the simulator's layered, digest-checked benchmark.
 *
 *   spur_bench --workload=NAME [--seed=N] [--seconds=S] [--reps=N]
 *              [--refs=M] [--trace=0|1] [--trace-file=FILE]
 *              [--expected=FILE] [--scratch=DIR]
 *
 * One process runs one workload, so its peak RSS belongs to that
 * workload alone.  The workloads (README.md says why each was chosen):
 *
 *   live           WORKLOAD1, 8 MB, SPUR/MISS with live generation, as
 *                  core::RunOnce runs it.
 *   replay-hot     WORKLOAD1 replayed at 8 MB under {MIN, FAULT, FLUSH,
 *                  SPUR, WRITE}/MISS (Table 3.4's column).
 *   replay-paging  WORKLOAD1 at 5 MB under SPUR/REF and SPUR/NOREF, and
 *                  gc-sweep at 5 MB under FLUSH/REF and WRITE/NOREF.
 *   record         flush-storm and gc-sweep generated into TraceEncoder
 *                  and round-tripped through EncodeTraceFile and
 *                  RecoverTraceBytes; no simulation.
 *
 * Every stream is kBenchRefs references unless --refs says otherwise.
 * A run records the streams its cells replay or are checked against
 * into one trace file (untimed: these are the inputs the seed makes),
 * and sets up kSetups times, each a TraceReplaySource::Load of that file
 * (setup_s is the median): before the timed passes for the replay
 * workloads, whose cells replay it, and after them for live and record,
 * which only check against it, so that its memory stays out of
 * peak_rss_mb.  Timed passes over all of the workload's cells run until
 * --seconds have elapsed (at least three), or exactly --reps passes.
 * Each timed cell runs by hand what core::RunOnce runs, through a
 * LapHost (tracing.h) that splits it into laps of kLapRefs references,
 * and on another CPU than its previous run.  Between passes a clock
 * probe times a serial multiply-add chain.  host_cycles_per_ref is the
 * sum of every lap's fastest time, in cycles of the fastest clock the
 * probe saw, over one pass's references; setup_s is counted in the same
 * cycles, as seconds at kReferenceHz.  Every cell's FNV-1a64 digest
 * of its event counters and reference clock (for record, of its trace
 * file) is checked against the digests pinned in --expected for seeds 1
 * and 2, and otherwise against the same cell computed another way:
 * replayed cells against a live RunOnce, the live cell against a replay
 * of its recording through RunOnce, and recorded streams against an
 * independent recording.
 *
 * --trace=1 adds three passes through a TracingHost decorator
 * (tracing.h), each with, per simulated cell, a 64 MB replay of the
 * same stream and an isolated cache-lookup pass, and reports the
 * per-layer metrics from each layer's fastest pass.
 *
 * stdout carries two JSON lines: the spur-bench/1 document (medians,
 * quartiles, cell digests, host and build), then the summary line
 * {"correct", "attempted", "failed", "metrics"} holding the end-to-end
 * metrics, or with --trace=1 the per-layer ones.  Exit status: 0 when
 * every check passed, 1 when one failed, 2 on a usage error.
 */
#include <sched.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spur_bench/tracing.h"
#include "src/cache/cache.h"
#include "src/common/args.h"
#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/core/system.h"
#include "src/sim/config.h"
#include "src/sim/events.h"
#include "src/sweep/json.h"
#include "src/sweep/telemetry.h"
#include "src/workload/driver.h"
#include "src/workload/trace.h"

namespace spur::bench {
namespace {

using policy::DirtyPolicyKind;
using policy::RefPolicyKind;
using sim::Event;

constexpr char kFormat[] = "spur-bench/1";

/**
 * References per stream.  A quarter or less of each workload's default
 * budget, so that a pass is short and every lap of it runs many times
 * in one run: the lap floors need those repeats to find quiet moments on
 * a shared host.  WORKLOAD1 still pages at 5 MB at this length.
 */
constexpr uint64_t kBenchRefs = 4'000'000;

/** Setups per run; setup_s is their median. */
constexpr int kSetups = 7;

/** The clock setup_s is counted at: a setup's time in cycles of the
 *  probe's clock, over this rate. */
constexpr double kReferenceHz = 3.0e9;

/** Fewest timed passes a --seconds-bounded run makes. */
constexpr size_t kMinPasses = 3;

/** Traced passes under --trace=1. */
constexpr int kTracedPasses = 3;

/** Memory size of the traced run's no-paging baseline. */
constexpr uint32_t kBaselineMb = 64;

/** Global addresses per cell replayed by the isolated lookup pass. */
constexpr size_t kLookupRefs = size_t{4} << 20;

/** References per lap of a timed cell (a few milliseconds of work). */
constexpr uint64_t kLapRefs = uint64_t{1} << 18;

/** Steps of the clock probe's chain (a few milliseconds). */
constexpr uint64_t kChainSteps = uint64_t{3} << 20;

/** Cycles one chain step takes on its critical path: a 64-bit multiply
 *  (3 cycles on current x86-64 cores) and an add (1). */
constexpr double kCyclesPerStep = 4.0;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    uint64_t reps = 0;  ///< 0 = as many passes as --seconds allows.
    uint64_t refs = 0;  ///< 0 = kBenchRefs.
    bool trace = false;
    std::string trace_file;
    std::string expected;
    std::string scratch = ".";
};

int
Usage(const std::string& error)
{
    std::fprintf(stderr,
                 "spur_bench: %s\n"
                 "usage: spur_bench --workload=live|replay-hot|"
                 "replay-paging|record\n"
                 "       [--seed=N] [--seconds=S] [--reps=N] "
                 "[--refs=MILLIONS]\n"
                 "       [--trace=0|1] [--trace-file=FILE] "
                 "[--expected=FILE] [--scratch=DIR]\n",
                 error.c_str());
    return 2;
}

bool
ParseOptions(int argc, char** argv, Options* options, std::string* error)
{
    for (int i = 1; i < argc; ++i) {
        std::string name = argv[i];
        if (name.rfind("--", 0) != 0) {
            *error = "unexpected argument '" + name + "'";
            return false;
        }
        name.erase(0, 2);
        std::string value;
        const size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            *error = "--" + name + " needs a value";
            return false;
        }
        double number = 0.0;
        bool ok = true;
        if (name == "workload") {
            options->workload = value;
        } else if (name == "seed") {
            ok = ParseUnsigned(value, &options->seed);
        } else if (name == "seconds") {
            ok = ParsePositiveDouble(value, &options->seconds);
        } else if (name == "reps") {
            ok = ParseUnsigned(value, &options->reps) && options->reps > 0;
        } else if (name == "refs") {
            ok = ParsePositiveDouble(value, &number) && number <= 1e6;
            options->refs =
                ok ? static_cast<uint64_t>(std::llround(number * 1e6)) : 0;
            ok = ok && options->refs > 0;
        } else if (name == "trace") {
            ok = value == "0" || value == "1";
            options->trace = value == "1";
        } else if (name == "trace-file") {
            options->trace_file = value;
        } else if (name == "expected") {
            options->expected = value;
        } else if (name == "scratch") {
            options->scratch = value;
        } else {
            *error = "unknown option --" + name;
            return false;
        }
        if (!ok) {
            *error = "bad value '" + value + "' for --" + name;
            return false;
        }
    }
    if (options->workload.empty()) {
        *error = "--workload is required";
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

enum class CellKind : uint8_t {
    kLive,    ///< core::RunOnce with live generation.
    kReplay,  ///< core::RunOnce driven by the setup's trace library.
    kRecord,  ///< Generate, encode and round-trip one stream.
};

struct Cell {
    std::string name;
    CellKind kind = CellKind::kLive;
    core::RunConfig config;
};

Cell
MakeCell(CellKind kind, core::WorkloadId id, uint32_t memory_mb,
         DirtyPolicyKind dirty, RefPolicyKind ref, const Options& options)
{
    Cell cell;
    cell.kind = kind;
    cell.config.workload = id;
    cell.config.memory_mb = memory_mb;
    cell.config.dirty = dirty;
    cell.config.ref = ref;
    cell.config.refs = options.refs != 0 ? options.refs : kBenchRefs;
    cell.config.seed = options.seed;
    cell.name = core::ToString(id);
    if (kind != CellKind::kRecord) {
        cell.name += "/" + std::to_string(memory_mb) + "MB/" +
                     policy::ToString(dirty) + "/" + policy::ToString(ref);
    }
    return cell;
}

/** The cells of one workload; empty for an unknown name. */
std::vector<Cell>
CellsFor(const Options& o)
{
    using W = core::WorkloadId;
    std::vector<Cell> cells;
    if (o.workload == "live") {
        cells.push_back(MakeCell(CellKind::kLive, W::kWorkload1, 8,
                                 DirtyPolicyKind::kSpur, RefPolicyKind::kMiss,
                                 o));
    } else if (o.workload == "replay-hot") {
        for (const DirtyPolicyKind dirty :
             {DirtyPolicyKind::kMin, DirtyPolicyKind::kFault,
              DirtyPolicyKind::kFlush, DirtyPolicyKind::kSpur,
              DirtyPolicyKind::kWrite}) {
            cells.push_back(MakeCell(CellKind::kReplay, W::kWorkload1, 8,
                                     dirty, RefPolicyKind::kMiss, o));
        }
    } else if (o.workload == "replay-paging") {
        cells.push_back(MakeCell(CellKind::kReplay, W::kWorkload1, 5,
                                 DirtyPolicyKind::kSpur, RefPolicyKind::kRef,
                                 o));
        cells.push_back(MakeCell(CellKind::kReplay, W::kWorkload1, 5,
                                 DirtyPolicyKind::kSpur,
                                 RefPolicyKind::kNoRef, o));
        cells.push_back(MakeCell(CellKind::kReplay, W::kGcSweep, 5,
                                 DirtyPolicyKind::kFlush, RefPolicyKind::kRef,
                                 o));
        cells.push_back(MakeCell(CellKind::kReplay, W::kGcSweep, 5,
                                 DirtyPolicyKind::kWrite,
                                 RefPolicyKind::kNoRef, o));
    } else if (o.workload == "record") {
        for (const W id : {W::kFlushStorm, W::kGcSweep}) {
            cells.push_back(MakeCell(CellKind::kRecord, id, 8,
                                     DirtyPolicyKind::kSpur,
                                     RefPolicyKind::kMiss, o));
        }
    }
    return cells;
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

uint64_t
FnvWord(uint64_t digest, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xff;
        digest *= kFnvPrime;
    }
    return digest;
}

uint64_t
FnvBytes(const std::string& bytes)
{
    uint64_t digest = kFnvOffset;
    for (const char c : bytes) {
        digest ^= static_cast<unsigned char>(c);
        digest *= kFnvPrime;
    }
    return digest;
}

/** FNV-1a64 over every event counter, then the driver's reference
 *  clock, each as eight little-endian bytes. */
uint64_t
CounterDigest(const sim::EventCounts& events, uint64_t refs_issued)
{
    uint64_t digest = kFnvOffset;
    for (size_t i = 0; i < sim::kNumEvents; ++i) {
        digest = FnvWord(digest, events.Get(static_cast<Event>(i)));
    }
    return FnvWord(digest, refs_issued);
}

std::string
Hex(uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

// ---------------------------------------------------------------------------
// Running cells
// ---------------------------------------------------------------------------

struct CellResult {
    uint64_t digest = 0;
    uint64_t refs = 0;         ///< References simulated (record: encoded).
    double sim_s = 0.0;        ///< Simulated elapsed seconds.
    sim::EventCounts events;
    std::string file;          ///< Record cells: the encoded trace file,
                               ///< digested by Seal() outside the timing.
    uint64_t trace_bytes = 0;  ///< Record cells: size of `file`.
    uint64_t spawns = 0;       ///< Traced cells: processes created.
    bool ok = true;            ///< Record cells: the round trip held.
};

/** Digests a record cell's file once its timing has stopped. */
void
Seal(CellResult& result)
{
    if (!result.file.empty()) {
        result.digest = FnvBytes(result.file);
        result.file = {};
    }
}

/**
 * A workload's inputs: every stream its cells replay or are checked
 * against, recorded from the seed and written as one trace file.  The
 * replay workloads replay it; for live it is the recording its cell is
 * replayed from, and for record the independent recordings its streams
 * are compared with.
 */
struct TraceFile {
    std::string path;
    uint64_t bytes = 0;  ///< File size.
    uint64_t refs = 0;   ///< References in its streams.
};

/** A simulated cell's result from its final counters. */
CellResult
SimResult(const sim::EventCounts& events, uint64_t refs_issued,
          double sim_s)
{
    CellResult result;
    result.events = events;
    result.digest = CounterDigest(events, refs_issued);
    result.refs = events.TotalRefs();
    result.sim_s = sim_s;
    return result;
}

CellResult
FromRun(const core::RunResult& run)
{
    return SimResult(run.events, run.refs_issued, run.elapsed_seconds);
}

struct Recording {
    std::string frames;  ///< TraceEncoder::Finish() bytes.
    uint64_t accesses = 0;
    uint64_t spawns = 0;
};

/** Generates @p config's stream through the counts-only host, as
 *  `spur_trace record` does; traced when @p tracer is set, split into
 *  laps when @p laps is. */
Recording
RecordStream(const core::RunConfig& config, Tracer* tracer, LapClock* laps)
{
    const workload::TraceStreamMeta meta = core::TraceMetaFor(config);
    workload::WorkloadSpec spec = core::SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    workload::CountingHost counting(
        sim::MachineConfig::Prototype(config.memory_mb));
    workload::TraceEncoder encoder(meta);
    workload::RecordingHost recorder(counting, encoder);
    std::optional<TracingHost> traced;
    std::optional<LapHost> lapped;
    workload::WorkloadHost* host = &recorder;
    if (tracer != nullptr) {
        host = &traced.emplace(recorder, *tracer, "trace.encode",
                               "trace.encode");
    }
    if (laps != nullptr) {
        host = &lapped.emplace(*host, *laps, kLapRefs);
    }

    Recording recording;
    workload::Driver driver(*host, std::move(spec), meta.refs, config.seed,
                            slice_refs);
    {
        ScopedSpan span(tracer, "driver.run");
        driver.Run();
    }
    recorder.StopRecording();
    Lap(laps);
    recording.accesses = encoder.accesses();
    recording.spawns = traced ? traced->spawns() : 0;
    ScopedSpan span(tracer, "trace.encode");
    recording.frames = encoder.Finish(driver.refs_issued());
    Lap(laps);
    return recording;
}

/** A record cell: generate and encode one stream, render it as a trace
 *  file, and parse that file back. */
CellResult
RecordCell(const Cell& cell, Tracer* tracer, LapClock* laps)
{
    Recording recording = RecordStream(cell.config, tracer, laps);
    CellResult result;
    result.refs = recording.accesses;
    result.spawns = recording.spawns;
    std::vector<std::string> frames;
    frames.push_back(std::move(recording.frames));
    {
        ScopedSpan span(tracer, "trace.encode");
        result.file = workload::EncodeTraceFile(frames);
    }
    Lap(laps);
    result.trace_bytes = result.file.size();
    ScopedSpan span(tracer, "trace.parse");
    std::string error;
    const std::optional<workload::RecoveredTrace> recovered =
        workload::RecoverTraceBytes(result.file, &error);
    result.ok = recovered && recovered->complete &&
                recovered->streams.size() == 1 &&
                recovered->streams[0].framed == frames[0] &&
                recovered->streams[0].accesses == recording.accesses;
    frames = {};  // Freed inside the span, like `recovered`.
    return result;
}

/** A cell exactly as the table benches run it, through core::RunOnce:
 *  the reference the timed path is checked against. */
CellResult
RunCell(const Cell& cell, const core::TraceReplaySource& library)
{
    switch (cell.kind) {
      case CellKind::kLive:
        return FromRun(core::RunOnce(cell.config));
      case CellKind::kReplay: {
        core::RunConfig config = cell.config;
        config.trace_replay = &library;
        return FromRun(core::RunOnce(config));
      }
      case CellKind::kRecord:
        return RecordCell(cell, nullptr, nullptr);
    }
    Panic("spur_bench: bad cell kind");
}

/**
 * A simulated cell composed by hand: what RunOnce does, at
 * @p memory_mb, with a span at every layer boundary when @p tracer is
 * set (and then global addresses captured into @p capture when that is
 * set), or split into laps when @p laps is.
 */
CellResult
SimCell(const Cell& cell, uint32_t memory_mb,
        const core::TraceReplaySource& library, Tracer* tracer,
        LapClock* laps, std::vector<GlobalAddr>* capture)
{
    sim::MachineConfig machine = sim::MachineConfig::Prototype(memory_mb);
    machine.page_in_us = core::kScaledPageInUs;
    std::optional<core::SpurSystem> system;
    {
        ScopedSpan span(tracer, "core.setup");
        system.emplace(machine, cell.config.dirty, cell.config.ref);
    }
    std::optional<TracingHost> traced;
    std::optional<LapHost> lapped;
    workload::WorkloadHost* host = &*system;
    if (tracer != nullptr) {
        host = &traced.emplace(*system, *tracer, "core.access_batch",
                               "core.lifecycle");
        if (capture != nullptr) {
            traced->CaptureGlobal(*system, capture, kLookupRefs);
        }
    }
    if (laps != nullptr) {
        host = &lapped.emplace(*host, *laps, kLapRefs);
    }
    const workload::TraceStreamMeta meta = core::TraceMetaFor(cell.config);
    CellResult result;
    if (cell.kind == CellKind::kReplay) {
        const workload::TraceStream* stream = library.Find(meta.Identity());
        if (stream == nullptr) {
            Panic("spur_bench: setup did not record " + meta.Identity());
        }
        workload::ReplayStats stats;
        {
            ScopedSpan span(tracer, "trace.replay");
            stats = workload::ReplayStream(*stream, *host);
        }
        result = SimResult(system->events(), stats.refs_issued,
                           system->timing().ElapsedSeconds());
    } else {
        workload::WorkloadSpec spec = core::SpecFor(cell.config);
        const uint32_t slice_refs = spec.slice_refs;
        workload::Driver driver(*host, std::move(spec), meta.refs,
                                cell.config.seed, slice_refs);
        {
            ScopedSpan span(tracer, "driver.run");
            driver.Run();
        }
        // Sampled before the driver's teardown, as RunOnce does.
        result = SimResult(system->events(), driver.refs_issued(),
                           system->timing().ElapsedSeconds());
    }
    result.spawns = traced ? traced->spawns() : 0;
    return result;
}

/** A cell as the timed passes run it, split into @p laps; the caller
 *  closes the last lap when the call returns. */
CellResult
TimedCell(const Cell& cell, const core::TraceReplaySource& library,
          LapClock& laps)
{
    return cell.kind == CellKind::kRecord
               ? RecordCell(cell, nullptr, &laps)
               : SimCell(cell, cell.config.memory_mb, library, nullptr,
                         &laps, nullptr);
}

/**
 * Pins this process to one CPU at a time, taken in turn from those it
 * may run on, and gives it back all of them when destroyed.  On a
 * shared host each CPU's neighbours slow it at different times; timed
 * runs spread over every CPU let each lap's fastest run find a quiet
 * one.  Only one thread ever runs, so nothing here competes with it.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (::sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
            return;
        }
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed_)) {
                cpus_.push_back(cpu);
            }
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty()) {
            ::sched_setaffinity(0, sizeof(allowed_), &allowed_);
        }
    }

    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    /** Pins to the (@p turn mod count)-th allowed CPU. */
    void Pin(size_t turn)
    {
        if (cpus_.size() < 2) {
            return;
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[turn % cpus_.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
};

/** Seconds for VirtualCache::Lookup, with Fill on a miss, over @p addrs
 *  on a fresh cache of @p machine's geometry. */
double
TimeLookups(const std::vector<GlobalAddr>& addrs,
            const sim::MachineConfig& machine)
{
    cache::VirtualCache cache(machine);
    cache::Eviction eviction;
    const sweep::Stopwatch watch;
    for (const GlobalAddr addr : addrs) {
        if (!cache.Lookup(addr)) {
            cache.Fill(addr, Protection::kReadWrite, false, &eviction);
        }
    }
    return watch.Seconds();
}

/** Where TimeChain leaves its result, so the chain is computed. */
volatile uint64_t chain_sink = 0;

/**
 * Seconds for kChainSteps steps of a serial multiply-add chain: the
 * clock probe.  Each step waits on the last and the chain touches no
 * memory, so its time is kChainSteps * kCyclesPerStep cycles of the
 * core's clock, whatever the neighbours do to caches and memory.  A
 * shared host's clock moves with their load by a tenth or more between
 * runs, so simulator time is reported in these cycles.
 */
double
TimeChain()
{
    uint64_t x = 1;
    const sweep::Stopwatch watch;
    for (uint64_t i = 0; i < kChainSteps; ++i) {
        x = x * 0x9E3779B97F4A7C15ULL + i;
    }
    chain_sink = x;  // Before the clock is read, so the chain stays inside.
    return watch.Seconds();
}

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

bool
WriteFile(const std::string& path, const std::string& bytes)
{
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        return false;
    }
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
    return (std::fclose(file) == 0) && ok;
}

bool
ReadFile(const std::string& path, std::string* bytes)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        return false;
    }
    char buffer[64 * 1024];
    size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
        bytes->append(buffer, n);
    }
    const bool ok = std::ferror(file) == 0;
    std::fclose(file);
    return ok;
}

/**
 * Makes a workload's inputs from its seed, untimed: records each
 * distinct stream its cells need through the counts-only host and
 * writes them as one trace file under @p scratch (not fsync'd: that
 * would time the disk).
 */
TraceFile
RecordInputs(const std::vector<Cell>& cells, const std::string& scratch)
{
    TraceFile file;
    std::vector<std::string> identities;
    std::vector<std::string> frames;
    for (const Cell& cell : cells) {
        const std::string identity =
            core::TraceMetaFor(cell.config).Identity();
        if (std::find(identities.begin(), identities.end(), identity) !=
            identities.end()) {
            continue;
        }
        identities.push_back(identity);
        Recording recording = RecordStream(cell.config, nullptr, nullptr);
        file.refs += recording.accesses;
        frames.push_back(std::move(recording.frames));
    }
    const std::string bytes = workload::EncodeTraceFile(frames);
    file.bytes = bytes.size();
    file.path = scratch + "/spur_bench-" + std::to_string(::getpid()) +
                ".trace";
    if (!WriteFile(file.path, bytes)) {
        Fatal("spur_bench: cannot write '" + file.path + "'");
    }
    return file;
}

/** One setup: loads @p file the way --replay-trace does. */
std::unique_ptr<core::TraceReplaySource>
Setup(const TraceFile& file)
{
    auto library = std::make_unique<core::TraceReplaySource>();
    std::string error;
    if (!library->Load(file.path, &error)) {
        Fatal("spur_bench: " + error);
    }
    return library;
}

/** Digests pinned for this seed and workload, by cell name.  Only
 *  streams of kBenchRefs references are pinned. */
bool
LoadPinned(const Options& options, std::map<std::string, uint64_t>* pinned,
           std::string* error)
{
    if (options.expected.empty() || options.refs != 0) {
        return true;
    }
    std::string text;
    if (!ReadFile(options.expected, &text)) {
        *error = "cannot read '" + options.expected + "'";
        return false;
    }
    const std::optional<sweep::JsonValue> doc = sweep::ParseJson(text, error);
    if (!doc) {
        return false;
    }
    const sweep::JsonValue* format = doc->Find("format");
    const sweep::JsonValue* seeds = doc->Find("seeds");
    if (format == nullptr || format->AsString() != kFormat ||
        seeds == nullptr) {
        *error = options.expected + ": not a " + kFormat + " digest file";
        return false;
    }
    const sweep::JsonValue* seed = seeds->Find(std::to_string(options.seed));
    const sweep::JsonValue* cells =
        seed != nullptr ? seed->Find(options.workload) : nullptr;
    if (cells == nullptr) {
        return true;
    }
    for (const auto& [name, value] : cells->members()) {
        const std::string& hex = value.AsString();
        char* end = nullptr;
        const uint64_t digest = std::strtoull(hex.c_str(), &end, 16);
        if (hex.size() != 16 || end != hex.c_str() + hex.size()) {
            *error = options.expected + ": bad digest for " + name;
            return false;
        }
        (*pinned)[name] = digest;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

/**
 * Counts checks and failures and remembers which cells failed.  Cell
 * results are noted as they run and checked by Verify() once the
 * expected digests exist, which for live and record is after timing.
 */
class Checker
{
  public:
    explicit Checker(const std::vector<Cell>& cells)
        : cells_(cells), failed_cells_(cells.size(), false)
    {
    }

    /** One check of cell @p i; @p what names it in the failure note. */
    void Check(size_t i, bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            failed_cells_[i] = true;
            Warn("spur_bench: " + cells_[i].name + ": " + what);
        }
    }

    /** Notes a (sealed) result of cell @p i from @p pass. */
    void Note(size_t i, const CellResult& result, const char* pass)
    {
        noted_.push_back({i, result.digest, result.ok, pass});
    }

    /** Checks every noted result against @p expected, by cell. */
    void Verify(const std::vector<uint64_t>& expected)
    {
        for (const Noted& n : noted_) {
            Check(n.cell, n.ok && n.digest == expected[n.cell],
                  std::string(n.pass) + (n.ok ? "" : " round trip failed,") +
                      " digest " + Hex(n.digest) + ", expected " +
                      Hex(expected[n.cell]));
        }
        noted_.clear();
    }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    size_t failed_cells() const
    {
        return static_cast<size_t>(
            std::count(failed_cells_.begin(), failed_cells_.end(), true));
    }

  private:
    struct Noted {
        size_t cell;
        uint64_t digest;
        bool ok;
        const char* pass;
    };

    const std::vector<Cell>& cells_;
    std::vector<bool> failed_cells_;
    std::vector<Noted> noted_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Each cell's expected digest: the pinned one, or else the cell
 * computed another way, untimed.  Where both exist they must agree.
 */
std::vector<uint64_t>
ExpectedDigests(const std::vector<Cell>& cells,
                const core::TraceReplaySource& library,
                const std::map<std::string, uint64_t>& pinned,
                Checker& checker)
{
    std::vector<uint64_t> expected(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        const auto pin = pinned.find(cell.name);
        std::optional<uint64_t> reference;
        if (cell.kind == CellKind::kLive) {
            Cell replay = cell;
            replay.kind = CellKind::kReplay;
            reference = RunCell(replay, library).digest;
        } else if (cell.kind == CellKind::kRecord) {
            // The independent recording, rendered as the cell renders
            // its own.
            const std::string identity =
                core::TraceMetaFor(cell.config).Identity();
            reference = FnvBytes(
                workload::EncodeTraceFile({library.Find(identity)->framed}));
        } else if (pin == pinned.end()) {
            Cell live = cell;
            live.kind = CellKind::kLive;
            reference = RunCell(live, library).digest;
        }
        if (pin != pinned.end() && reference) {
            checker.Check(i, *reference == pin->second,
                          "reference digest " + Hex(*reference) +
                              " != pinned " + Hex(pin->second));
        }
        expected[i] = (pin != pinned.end()) ? pin->second : *reference;
    }
    return expected;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;  ///< The samples' median (the rates: see Main).
    double q1 = 0.0;
    double q3 = 0.0;
    size_t n = 1;
};

/** Median and quartiles as Python's statistics.quantiles(n=4) gives
 *  them (the "exclusive" method), so compare.py reads the same. */
Metric
Summarize(const std::string& name, const std::string& unit,
          std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    Metric metric{name, unit, 0.0, 0.0, 0.0, values.size()};
    const size_t n = values.size();
    if (n == 0) {
        return metric;
    }
    metric.value = (n % 2 == 1) ? values[n / 2]
                                : (values[n / 2 - 1] + values[n / 2]) / 2;
    if (n == 1) {
        metric.q1 = metric.q3 = values[0];
        return metric;
    }
    const auto quantile = [&](size_t i) {
        const size_t m = n + 1;
        const size_t j = std::clamp<size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) - 4.0 * j;
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    metric.q1 = quantile(1);
    metric.q3 = quantile(3);
    return metric;
}

Metric
Single(const std::string& name, const std::string& unit, double value)
{
    return Summarize(name, unit, {value});
}

double
Sum(const std::vector<double>& values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

/** Keeps in @p floor, lap by lap, the faster of it and @p laps, one
 *  run's laps of the same cell. */
void
KeepFastestLaps(const std::vector<double>& laps, std::vector<double>* floor)
{
    if (floor->empty()) {
        *floor = laps;
        return;
    }
    if (floor->size() != laps.size()) {
        Panic("spur_bench: a cell's laps changed between runs");
    }
    for (size_t j = 0; j < laps.size(); ++j) {
        (*floor)[j] = std::min((*floor)[j], laps[j]);
    }
}

std::string
Num(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
NumList(const std::vector<double>& values)
{
    std::string json = "[";
    for (size_t i = 0; i < values.size(); ++i) {
        json += (i == 0 ? "" : ", ") + Num(values[i]);
    }
    return json + "]";
}

std::string
Quote(const std::string& text)
{
    return "\"" + text + "\"";
}

/** {"name": {"value": .., "unit": ..[, "q1", "q3", "n"]}, ...} */
std::string
MetricsJson(const std::vector<Metric>& metrics, bool with_spread)
{
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json += (i == 0 ? "" : ", ") + Quote(m.name) +
                ": {\"value\": " + Num(m.value) +
                ", \"unit\": " + Quote(m.unit);
        if (with_spread) {
            json += ", \"q1\": " + Num(m.q1) + ", \"q3\": " + Num(m.q3) +
                    ", \"n\": " + std::to_string(m.n);
        }
        json += "}";
    }
    return json + "}";
}

std::string
HostJson()
{
    struct utsname name {};
    std::string system = "unknown";
    if (::uname(&name) == 0) {
        system = std::string(name.sysname) + " " + name.release + " " +
                 name.machine;
    }
    return "{\"system\": " + Quote(system) + ", \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
}

const char*
Compiler()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Sums of span self time and span counts per layer name. */
struct LayerTotals {
    std::map<std::string, double> self_s;
    std::map<std::string, uint64_t> spans;
};

/** Everything a traced pass measured. */
struct TracedPass {
    std::vector<CellResult> cells;
    std::map<std::string, LayerTotals> by_root;  ///< "cell", "baseline".
    double cell_s = 0.0;            ///< Sum of the "cell" root spans.
    double max_unattributed = 0.0;  ///< Largest cell self share.
    double lookup_s = 0.0;
    uint64_t lookups = 0;

    /** Keeps, per timing, the faster of this pass and @p other (the
     *  same cells, so the same spans and counts). */
    void KeepFastest(const TracedPass& other)
    {
        for (auto& [root, totals] : by_root) {
            for (auto& [layer, self] : totals.self_s) {
                self = std::min(self, other.by_root.at(root).self_s.at(layer));
            }
        }
        cell_s = std::min(cell_s, other.cell_s);
        max_unattributed = std::max(max_unattributed, other.max_unattributed);
        lookup_s = std::min(lookup_s, other.lookup_s);
    }
};

TracedPass
RunTracedPass(const std::vector<Cell>& cells,
              const core::TraceReplaySource& library, Checker& checker,
              Tracer& tracer)
{
    TracedPass pass;
    std::vector<GlobalAddr> addrs;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell& cell = cells[i];
        CellResult result;
        {
            ScopedSpan root(&tracer, "cell", cell.name);
            result = cell.kind == CellKind::kRecord
                         ? RecordCell(cell, &tracer, nullptr)
                         : SimCell(cell, cell.config.memory_mb, library,
                                   &tracer, nullptr, nullptr);
        }
        Seal(result);
        checker.Note(i, result, "traced");
        pass.cells.push_back(std::move(result));
        if (cell.kind == CellKind::kRecord) {
            continue;
        }
        // The same stream and policies with memory to spare: its
        // AccessBatch time is the cell's minus the paging work.
        addrs.clear();
        CellResult baseline;
        {
            ScopedSpan root(&tracer, "baseline",
                            cell.name + "@" + std::to_string(kBaselineMb) +
                                "MB");
            baseline = SimCell(cell, kBaselineMb, library, &tracer, nullptr,
                               &addrs);
        }
        checker.Check(i, baseline.events.Get(Event::kDaemonSweep) == 0,
                      "the 64 MB baseline ran the page daemon");
        pass.lookup_s += TimeLookups(
            addrs, sim::MachineConfig::Prototype(kBaselineMb));
        pass.lookups += addrs.size();
    }

    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = tracer.SelfSeconds();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& root = spans[static_cast<size_t>(spans[i].root)];
        LayerTotals& totals = pass.by_root[root.name];
        totals.self_s[spans[i].name] += self[i];
        ++totals.spans[spans[i].name];
        if (spans[i].parent < 0 && std::string(spans[i].name) == "cell") {
            const double duration = spans[i].end_s - spans[i].start_s;
            pass.cell_s += duration;
            pass.max_unattributed =
                std::max(pass.max_unattributed, self[i] / duration);
        }
    }
    return pass;
}

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<Metric>
LayerMetrics(const std::vector<Cell>& cells, const TraceFile& file,
             double load_s, const TracedPass& pass,
             double untraced_refs_per_s)
{
    sim::EventCounts ev;
    uint64_t refs = 0;
    uint64_t sim_refs = 0;
    uint64_t spawns = 0;
    uint64_t record_bytes = 0;
    double sim_s = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult& r = pass.cells[i];
        for (size_t e = 0; e < sim::kNumEvents; ++e) {
            ev.Add(static_cast<Event>(e), r.events.Get(static_cast<Event>(e)));
        }
        refs += r.refs;
        spawns += r.spawns;
        sim_s += r.sim_s;
        record_bytes += r.trace_bytes;
        if (cells[i].kind != CellKind::kRecord) {
            sim_refs += r.refs;
        }
    }
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const auto self = [&](const char* root, const char* layer) {
        const auto it = pass.by_root.find(root);
        if (it == pass.by_root.end()) {
            return 0.0;
        }
        const auto layer_it = it->second.self_s.find(layer);
        return layer_it == it->second.self_s.end() ? 0.0 : layer_it->second;
    };
    const auto spans = [&](const char* layer) {
        const auto it = pass.by_root.find("cell");
        if (it == pass.by_root.end()) {
            return 0.0;
        }
        const auto layer_it = it->second.spans.find(layer);
        return layer_it == it->second.spans.end()
                   ? 0.0
                   : static_cast<double>(layer_it->second);
    };
    const auto count = [&](Event event) {
        return static_cast<double>(ev.Get(event));
    };
    const double r = static_cast<double>(refs);
    // Parse speed and density describe the record cells' own files on
    // record, else the trace file every setup loads.
    const bool records = cells.front().kind == CellKind::kRecord;
    const double bytes = static_cast<double>(file.bytes);
    const double parse_ns_per_byte =
        records ? ratio(self("cell", "trace.parse") * 1e9,
                        static_cast<double>(record_bytes))
                : ratio(load_s * 1e9, bytes);
    const double bytes_per_ref =
        records ? ratio(static_cast<double>(record_bytes), r)
                : ratio(bytes, static_cast<double>(file.refs));
    const double traced_refs_per_s = ratio(r, pass.cell_s);
    const double reclaims = count(Event::kPageReclaimClean) +
                            count(Event::kPageOutDirty);

    return {
        Single("workload.gen_ns_per_ref", "ns/ref",
               ratio(self("cell", "driver.run") * 1e9, r)),
        Single("workload.spawns", "count", static_cast<double>(spawns)),
        Single("trace.decode_ns_per_ref", "ns/ref",
               ratio(self("cell", "trace.replay") * 1e9, r)),
        Single("trace.encode_ns_per_ref", "ns/ref",
               ratio(self("cell", "trace.encode") * 1e9, r)),
        Single("trace.parse_ns_per_byte", "ns/B", parse_ns_per_byte),
        Single("trace.load_s", "s", load_s),
        Single("trace.bytes_per_ref", "B/ref", bytes_per_ref),
        Single("core.access_ns_per_ref", "ns/ref",
               ratio(self("cell", "core.access_batch") * 1e9, r)),
        Single("core.refs_per_batch", "count",
               ratio(static_cast<double>(sim_refs),
                     spans("core.access_batch"))),
        Single("core.lifecycle_us_per_op", "us/op",
               ratio(self("cell", "core.lifecycle") * 1e6,
                     spans("core.lifecycle"))),
        Single("core.system_setup_ms", "ms",
               ratio(self("cell", "core.setup") * 1e3,
                     spans("core.setup"))),
        Single("cache.lookup_ns_per_ref", "ns/ref",
               ratio(pass.lookup_s * 1e9, static_cast<double>(pass.lookups))),
        Single("cache.miss_rate", "ratio",
               ratio(static_cast<double>(ev.TotalMisses()),
                     static_cast<double>(ev.TotalRefs()))),
        Single("cache.writebacks", "count", count(Event::kWriteback)),
        Single("cache.block_flushes", "count", count(Event::kBlockFlush)),
        Single("cache.page_flushes", "count", count(Event::kPageFlush)),
        Single("xlate.pte_miss_rate", "ratio",
               ratio(count(Event::kXlatePteMiss),
                     count(Event::kXlatePteHit) +
                         count(Event::kXlatePteMiss))),
        Single("xlate.l2_accesses", "count", count(Event::kXlateL2Access)),
        Single("policy.dirty_faults", "count", count(Event::kDirtyFault)),
        Single("policy.excess_faults", "count", count(Event::kExcessFault)),
        Single("policy.ref_faults", "count", count(Event::kRefFault)),
        Single("policy.ref_clear_flushes", "count",
               count(Event::kRefClearFlush)),
        Single("policy.dirty_checks", "count", count(Event::kDirtyCheck)),
        Single("vm.paging_ns_per_ref", "ns/ref",
               ratio((self("cell", "core.access_batch") -
                      self("baseline", "core.access_batch")) * 1e9,
                     static_cast<double>(sim_refs))),
        Single("vm.page_ins", "count", count(Event::kPageIn)),
        Single("vm.page_outs", "count", count(Event::kPageOutDirty)),
        Single("vm.zero_fills", "count", count(Event::kZeroFill)),
        Single("vm.daemon_sweeps", "count", count(Event::kDaemonSweep)),
        Single("vm.clean_reclaim_frac", "ratio",
               ratio(count(Event::kPageReclaimClean), reclaims)),
        Single("model.sim_s", "s", sim_s),
        Single("bench.trace_overhead_pct", "%",
               (ratio(untraced_refs_per_s, traced_refs_per_s) - 1.0) * 100),
        Single("bench.unattributed_pct", "%", pass.max_unattributed * 100),
    };
}

int
Main(int argc, char** argv)
{
    Options options;
    std::string error;
    if (!ParseOptions(argc, argv, &options, &error)) {
        return Usage(error);
    }
    const std::vector<Cell> cells = CellsFor(options);
    if (cells.empty()) {
        return Usage("unknown workload '" + options.workload + "'");
    }
    std::map<std::string, uint64_t> pinned;
    if (!LoadPinned(options, &pinned, &error)) {
        return Usage(error);
    }

    // The inputs, recorded once from the seed, then setup several times
    // over, each loading them afresh, each on another CPU; the last
    // setup's library is kept.  The replay workloads time against it,
    // so they set up first.  Live and record need it only for their
    // reference digests, so they set up after the timed passes, keeping
    // it out of peak_rss_mb.
    const bool replays =
        std::any_of(cells.begin(), cells.end(), [](const Cell& cell) {
            return cell.kind == CellKind::kReplay;
        });
    TraceFile file;
    std::vector<double> setup_s;
    auto library = std::make_unique<core::TraceReplaySource>();
    const auto set_up = [&] {
        file = RecordInputs(cells, options.scratch);
        CpuRotation rotation;
        for (int k = 0; k < kSetups; ++k) {
            rotation.Pin(static_cast<size_t>(k));
            library.reset();
            const sweep::Stopwatch watch;
            library = Setup(file);
            setup_s.push_back(watch.Seconds());
        }
        std::remove(file.path.c_str());
    };
    if (replays) {
        set_up();
    }

    // The timed passes, each followed by the clock probe.  No pass is a
    // warm-up: a lap that ran cold is slower than its warm runs, so the
    // lap floors below never take it.
    Checker checker(cells);
    std::vector<CellResult> results(cells.size());
    std::vector<double> pass_s;  ///< Per timed pass.
    std::vector<std::vector<double>> cell_s(cells.size());
    std::vector<std::vector<double>> lap_floor_s(cells.size());
    uint64_t pass_refs = 0;
    double chain_s = HUGE_VAL;  ///< The probe's fastest run.
    // Taken after the first pass: the footprint of running every cell
    // once.  Later passes only add the allocator's fragmentation, which
    // on record grows with the number of passes, that is with the
    // host's speed.
    double peak_rss_mb = 0.0;
    {
        CpuRotation rotation;
        const sweep::Stopwatch timed;
        while (options.reps != 0
                   ? pass_s.size() < options.reps
                   : (pass_s.size() < kMinPasses ||
                      timed.Seconds() < options.seconds)) {
            double seconds = 0.0;
            pass_refs = 0;
            for (size_t i = 0; i < cells.size(); ++i) {
                // Cell i of pass k runs on CPU k + i: every cell visits
                // every CPU, whatever the number of cells.
                rotation.Pin(pass_s.size() + i);
                LapClock laps;
                results[i] = TimedCell(cells[i], *library, laps);
                laps.Lap();
                KeepFastestLaps(laps.laps(), &lap_floor_s[i]);
                cell_s[i].push_back(Sum(laps.laps()));
                seconds += cell_s[i].back();
                Seal(results[i]);
                pass_refs += results[i].refs;
                checker.Note(i, results[i], "timed");
            }
            pass_s.push_back(seconds);
            if (pass_s.size() == 1) {
                peak_rss_mb =
                    static_cast<double>(sweep::PeakRssBytes()) / (1 << 20);
            }
            chain_s = std::min(chain_s, TimeChain());
        }
    }
    if (!replays) {
        set_up();
    }
    const std::vector<uint64_t> expected =
        ExpectedDigests(cells, *library, pinned, checker);

    double sim_s = 0.0;
    for (const CellResult& result : results) {
        sim_s += result.sim_s;
    }
    // Every cell is deterministic, so noise only ever adds time, and each
    // lap's fastest run is its steadiest estimate.  On a shared machine,
    // neighbours' cache traffic slows the simulator up to 1.8 times for
    // seconds at a time, so a whole pass, or even a whole cell, often
    // has no quiet run at all, while each few-millisecond lap has had
    // one in some pass.  What the floors cannot remove is the clock
    // itself, which drifts with the neighbours' load for minutes at a
    // time; counting in probe cycles removes it.  q1/q3 stay those of
    // the per-pass samples.
    double floor_s = 0.0;
    double fastest_s = 0.0;  ///< Of whole cells, as the traced run takes.
    for (size_t i = 0; i < cells.size(); ++i) {
        floor_s += Sum(lap_floor_s[i]);
        fastest_s += *std::min_element(cell_s[i].begin(), cell_s[i].end());
    }
    const double refs = static_cast<double>(pass_refs);
    const double hz =
        static_cast<double>(kChainSteps) * kCyclesPerStep / chain_s;
    std::vector<double> pass_cycles_per_ref;
    std::vector<double> pass_refs_per_s;
    for (const double seconds : pass_s) {
        pass_cycles_per_ref.push_back(seconds * hz / refs);
        pass_refs_per_s.push_back(refs / seconds);
    }
    Metric cycles = Summarize("host_cycles_per_ref", "cycles/ref",
                              pass_cycles_per_ref);
    cycles.value = floor_s * hz / refs;
    Metric throughput = Summarize("refs_per_s", "refs/s", pass_refs_per_s);
    throughput.value = refs / floor_s;
    // Setup is one load of a file, too short to split into laps, so only
    // the clock is taken out of it: seconds at kReferenceHz.
    std::vector<double> setup_ref_s;
    for (const double seconds : setup_s) {
        setup_ref_s.push_back(seconds * hz / kReferenceHz);
    }
    const Metric setup = Summarize("setup_s", "s", setup_ref_s);
    const std::vector<Metric> end_to_end = {
        cycles,
        setup,
        Single("peak_rss_mb", "MiB", peak_rss_mb),
    };

    std::vector<Metric> per_layer;
    if (options.trace) {
        // Layer times are each layer's fastest over the traced passes,
        // as the end-to-end numbers take the fastest laps; the last pass
        // is written out.
        std::optional<TracedPass> fastest;
        for (int k = 0; k < kTracedPasses; ++k) {
            Tracer tracer;
            const TracedPass pass =
                RunTracedPass(cells, *library, checker, tracer);
            if (fastest) {
                fastest->KeepFastest(pass);
            } else {
                fastest = pass;
            }
            if (k + 1 == kTracedPasses && !options.trace_file.empty() &&
                !tracer.WriteChromeJson(options.trace_file)) {
                Fatal("spur_bench: cannot write '" + options.trace_file +
                      "'");
            }
        }
        per_layer = LayerMetrics(cells, file, setup.value, *fastest,
                                 static_cast<double>(pass_refs) / fastest_s);
    }
    checker.Verify(expected);

    // The spur-bench/1 document.
    std::string doc = "{\"format\": " + Quote(kFormat) +
                      ", \"workload\": " + Quote(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"refs\": " +
                      std::to_string(cells.front().config.refs) +
                      ", \"trace\": " + (options.trace ? "true" : "false") +
                      ", \"passes\": " + std::to_string(pass_s.size()) +
                      ", \"setups\": " + std::to_string(kSetups) +
                      ", \"host\": " + HostJson() +
                      ", \"host_ghz\": " + Num(hz / 1e9) +
                      ", \"compiler\": " + Quote(Compiler()) +
                      ", \"build_type\": " + Quote(SPUR_BENCH_BUILD_TYPE) +
                      ", \"sim_s\": " + Num(sim_s) +
                      ", \"cells\": " + std::to_string(cells.size()) +
                      ", \"cells_failed\": " +
                      std::to_string(checker.failed_cells()) +
                      ", \"digests\": {";
    for (size_t i = 0; i < cells.size(); ++i) {
        doc += (i == 0 ? "" : ", ") + Quote(cells[i].name) + ": " +
               Quote(Hex(results[i].digest));
    }
    doc += "}, \"pinned\": " + std::string(pinned.empty() ? "false" : "true") +
           ", \"samples\": {\"refs_per_s\": " + NumList(pass_refs_per_s) +
           ", \"setup_wall_s\": " + NumList(setup_s) +
           ", \"chain_floor_s\": " + Num(chain_s) + ", \"cell_s\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        doc += (i == 0 ? "" : ", ") + NumList(cell_s[i]);
    }
    doc += "], \"laps\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        doc += (i == 0 ? "" : ", ") + std::to_string(lap_floor_s[i].size());
    }
    doc += "], \"lap_floor_s\": [";
    for (size_t i = 0; i < cells.size(); ++i) {
        doc += (i == 0 ? "" : ", ") + Num(Sum(lap_floor_s[i]));
    }
    std::vector<Metric> document = end_to_end;
    document.push_back(throughput);
    doc += "]}, \"metrics\": " + MetricsJson(document, true);
    if (options.trace) {
        doc += ", \"layers\": " + MetricsJson(per_layer, true);
    }
    doc += "}";

    const bool correct = checker.failed() == 0;
    std::printf("%s\n", doc.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                MetricsJson(options.trace ? per_layer : end_to_end, false)
                    .c_str());
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace spur::bench

int
main(int argc, char** argv)
{
    // A process keeps its launcher's peak RSS across exec, so getrusage
    // would report a large launcher's footprint instead of this
    // workload's.  A forked child's peak starts from its own pages.
    std::fflush(nullptr);
    const pid_t child = ::fork();
    if (child < 0) {
        std::perror("spur_bench: fork");
        return 1;
    }
    if (child == 0) {
        std::exit(spur::bench::Main(argc, argv));
    }
    int status = 0;
    while (::waitpid(child, &status, 0) < 0) {
        if (errno != EINTR) {
            std::perror("spur_bench: waitpid");
            return 1;
        }
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
