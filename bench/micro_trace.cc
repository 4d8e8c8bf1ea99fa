/**
 * @file
 * google-benchmark micro-benchmarks for SPUR-TRACE/1 encode and decode
 * on their own:
 *
 *   BM_EncodeTrace    RecordingHost -> CountingHost over a captured op
 *                     sequence: the encoder's op coding, its in-loop op
 *                     digest and Finish, no generation.
 *   BM_RecoverTrace   RecoverTraceBytes over a whole trace file: frame
 *                     parse, both digests and count-only op validation.
 *   BM_DigestFloor    DigestMixPair over the same file's B payloads: the
 *                     two FNV-1a chains recovery must run over every op
 *                     byte, alone, so BM_RecoverTrace's distance from it
 *                     is what parsing and validation add.
 *   BM_LoadTrace      TraceLibrary::Load of the same file from a temp
 *                     file: the read plus everything BM_RecoverTrace
 *                     times, the replay side's whole setup.
 *   BM_ReplayDecode   ReplayStreamWith of the recovered stream into a
 *                     host whose AccessBatch only sums the references,
 *                     so the time is decode plus batching, no
 *                     simulation; once per replay kernel, /swar,
 *                     /pext and /avx512 (each of the last two reports
 *                     an error and times nothing on a CPU that cannot
 *                     run it: without BMI2, or without the AVX-512
 *                     kernel's features).
 *
 *   BM_Generate/<workload>
 *                     A Driver run of 1 M references into a
 *                     CountingHost, whose AccessBatch only counts: the
 *                     reference generators and the driver's scheduling,
 *                     no encoding and no simulation.  Once each for
 *                     WORKLOAD1, flush-storm and gc-sweep.
 *
 * All but BM_Generate run over one WORKLOAD1 run of 1 M references (seed
 * 1, the 8 MB prototype's geometry), generated untimed before the loop:
 * its host calls for BM_EncodeTrace, its recording for the rest.
 * BM_EncodeTrace, BM_RecoverTrace, BM_DigestFloor, BM_ReplayDecode and
 * BM_Generate report time_per_ref, the run time per access; BM_LoadTrace
 * reports time_per_byte, the run time per file byte (both printed in ns;
 * google-benchmark's JSON holds them in seconds).
 */
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/micro_common.h"

#include "src/common/cpu.h"
#include "src/common/framed_log.h"
#include "src/common/log.h"
#include "src/core/experiment.h"
#include "src/core/run_trace.h"
#include "src/sim/config.h"
#include "src/workload/replay_kernel.h"
#include "src/workload/trace.h"
#include "src/workload/workloads.h"

namespace {

using namespace spur;

/** The WORKLOAD1 run every benchmark here works on. */
core::RunConfig
Workload1Config()
{
    core::RunConfig config;
    config.workload = core::WorkloadId::kWorkload1;
    config.refs = 1'000'000;
    return config;
}

/** A counts-only host that also logs every call, to be made again on
 *  another host. */
class CaptureHost : public workload::CountingHost
{
  public:
    using Call = std::function<void(workload::WorkloadHost&)>;

    CaptureHost()
        : CountingHost(sim::MachineConfig::Prototype(8))
    {
    }

    Pid CreateProcess() override
    {
        calls.push_back([](workload::WorkloadHost& h) { h.CreateProcess(); });
        return CountingHost::CreateProcess();
    }
    void DestroyProcess(Pid pid) override
    {
        calls.push_back(
            [pid](workload::WorkloadHost& h) { h.DestroyProcess(pid); });
    }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        calls.push_back([=](workload::WorkloadHost& h) {
            h.MapRegion(pid, base, bytes, kind);
        });
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        calls.push_back([=](workload::WorkloadHost& h) {
            h.ShareSegment(pid, reg, other, other_reg);
        });
    }
    void Access(const MemRef& ref) override { AccessBatch(&ref, 1); }
    void AccessBatch(const MemRef* refs, size_t n) override
    {
        calls.push_back([batch = std::vector<MemRef>(refs, refs + n)](
                            workload::WorkloadHost& h) {
            h.AccessBatch(batch.data(), batch.size());
        });
        accesses += n;
    }
    void OnContextSwitch() override
    {
        calls.push_back([](workload::WorkloadHost& h) { h.OnContextSwitch(); });
    }

    std::vector<Call> calls;
    uint64_t accesses = 0;
};

/** A run's host calls, in order. */
struct CapturedRun {
    std::vector<CaptureHost::Call> calls;
    uint64_t accesses = 0;
    uint64_t refs_issued = 0;
};

/** Captures the host calls of 1 M references of WORKLOAD1. */
const CapturedRun&
Workload1Calls()
{
    static const CapturedRun captured = [] {
        const core::RunConfig config = Workload1Config();
        workload::WorkloadSpec spec = core::SpecFor(config);
        const uint32_t slice_refs = spec.slice_refs;
        CaptureHost capture;
        workload::Driver driver(capture, std::move(spec), config.refs,
                                config.seed, slice_refs);
        driver.Run();
        // Taken before ~Driver's teardown calls reach the host.
        return CapturedRun{std::move(capture.calls), capture.accesses,
                           driver.refs_issued()};
    }();
    return captured;
}

/** A recorded trace file and the accesses it holds. */
struct Recording {
    std::string file;
    uint64_t accesses = 0;
};

/** Records 1 M references of WORKLOAD1 through the counts-only host. */
const Recording&
Workload1Recording()
{
    static const Recording recording = [] {
        const core::RunConfig config = Workload1Config();
        const workload::TraceStreamMeta meta = core::TraceMetaFor(config);
        workload::WorkloadSpec spec = core::SpecFor(config);
        const uint32_t slice_refs = spec.slice_refs;
        workload::CountingHost counting(
            sim::MachineConfig::Prototype(config.memory_mb));
        workload::TraceEncoder encoder(meta);
        workload::RecordingHost recorder(counting, encoder);
        workload::Driver driver(recorder, std::move(spec), meta.refs,
                                config.seed, slice_refs);
        driver.Run();
        recorder.StopRecording();
        Recording r;
        r.accesses = encoder.accesses();
        r.file = workload::EncodeTraceFile(
            {encoder.Finish(driver.refs_issued())});
        return r;
    }();
    return recording;
}

/** Sets the time_per_ref counter: run time over every decoded access. */
void
ReportTimePerRef(benchmark::State& state, uint64_t accesses)
{
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(accesses));
    // An inverted iteration-invariant rate: seconds per access.
    state.counters["time_per_ref"] = benchmark::Counter(
        static_cast<double>(accesses),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

/** Lifecycle ops are counted, and each batch is only summed. */
class SumHost : public workload::CountingHost
{
  public:
    SumHost()
        : CountingHost(sim::MachineConfig::Prototype(8))
    {
    }

    void AccessBatch(const MemRef* refs, size_t n) override
    {
        for (size_t i = 0; i < n; ++i) {
            sum_ += refs[i].pid + refs[i].addr +
                    static_cast<uint64_t>(refs[i].type);
        }
    }

    uint64_t sum() const { return sum_; }

  private:
    uint64_t sum_ = 0;
};

void
BM_EncodeTrace(benchmark::State& state)
{
    const CapturedRun& captured = Workload1Calls();
    const workload::TraceStreamMeta meta =
        core::TraceMetaFor(Workload1Config());
    std::string framed;
    for (auto _ : state) {
        workload::CountingHost counting(sim::MachineConfig::Prototype(8));
        workload::TraceEncoder encoder(meta);
        workload::RecordingHost recorder(counting, encoder);
        for (const CaptureHost::Call& call : captured.calls) {
            call(recorder);
        }
        framed = encoder.Finish(captured.refs_issued);
        benchmark::DoNotOptimize(framed);
    }
    if (Workload1Recording().file.find(framed) == std::string::npos) {
        Fatal("micro_trace: the captured calls encode another stream");
    }
    ReportTimePerRef(state, captured.accesses);
}
BENCHMARK(BM_EncodeTrace)->Unit(benchmark::kMillisecond);

void
BM_RecoverTrace(benchmark::State& state)
{
    const Recording& recording = Workload1Recording();
    std::string error;
    for (auto _ : state) {
        auto recovered = workload::RecoverTraceBytes(recording.file, &error);
        if (!recovered || !recovered->complete) {
            Fatal("micro_trace: the recording did not recover: " + error);
        }
        benchmark::DoNotOptimize(recovered);
    }
    ReportTimePerRef(state, recording.accesses);
}
BENCHMARK(BM_RecoverTrace)->Unit(benchmark::kMillisecond);

void
BM_DigestFloor(benchmark::State& state)
{
    const Recording& recording = Workload1Recording();
    // The B payloads, in file order, found untimed.
    std::vector<std::string_view> payloads;
    framed_log::Frame frame;
    std::string why;
    for (size_t pos = std::string_view(workload::kTraceMagic).size();
         pos < recording.file.size(); pos = frame.end) {
        if (framed_log::ParseFrame(recording.file, pos, "HSBET",
                                   framed_log::kMaxFilePayload, &frame,
                                   &why) != framed_log::ParseStatus::kOk) {
            Fatal("micro_trace: the recording does not parse: " + why);
        }
        if (frame.tag == 'B') {
            payloads.push_back(frame.payload);
        }
    }
    uint64_t ops_digest = 0;
    for (auto _ : state) {
        ops_digest = framed_log::kDigestInit;
        uint64_t file_digest = framed_log::kDigestInit;
        for (const std::string_view payload : payloads) {
            framed_log::DigestMixPair(&ops_digest, &file_digest, payload);
        }
        benchmark::DoNotOptimize(ops_digest);
        benchmark::DoNotOptimize(file_digest);
    }
    std::string error;
    const auto recovered = workload::RecoverTraceBytes(recording.file, &error);
    if (!recovered || recovered->streams.size() != 1 ||
        recovered->streams[0].digest != ops_digest) {
        Fatal("micro_trace: the floor digested other bytes than recovery");
    }
    ReportTimePerRef(state, recording.accesses);
}
BENCHMARK(BM_DigestFloor)->Unit(benchmark::kMillisecond);

void
BM_LoadTrace(benchmark::State& state)
{
    const Recording& recording = Workload1Recording();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("micro_trace-" + std::to_string(::getpid()) + ".trace"))
            .string();
    std::string error;
    framed_log::DurableAppender out;
    if (!out.Open(path, &error) || !out.Append(recording.file, &error)) {
        Fatal("micro_trace: " + error);
    }
    out.Close();
    for (auto _ : state) {
        workload::TraceLibrary library;
        if (!library.Load(path, &error)) {
            Fatal("micro_trace: the recording did not load: " + error);
        }
        benchmark::DoNotOptimize(library);
    }
    std::remove(path.c_str());
    const auto bytes = static_cast<int64_t>(recording.file.size());
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            bytes);
    // An inverted iteration-invariant rate: seconds per file byte.
    state.counters["time_per_byte"] = benchmark::Counter(
        static_cast<double>(bytes),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_LoadTrace)->Unit(benchmark::kMillisecond);

void
BM_ReplayDecode(benchmark::State& state, workload::ReplayKernel kernel)
{
    if (kernel == workload::ReplayKernel::kPext && !CpuHasBmi2()) {
        state.SkipWithError("skipped: this CPU has no BMI2 for the PEXT "
                            "kernel");
        return;
    }
    if (kernel == workload::ReplayKernel::kAvx512 && !CpuHasAvx512Vbmi2()) {
        state.SkipWithError("skipped: this CPU or OS lacks AVX512F/BW/"
                            "VBMI/VBMI2, PCLMUL or BMI2 for the AVX-512 "
                            "kernel");
        return;
    }
    const Recording& recording = Workload1Recording();
    std::string error;
    const auto recovered = workload::RecoverTraceBytes(recording.file, &error);
    if (!recovered || recovered->streams.size() != 1) {
        Fatal("micro_trace: the recording did not recover: " + error);
    }
    for (auto _ : state) {
        SumHost host;
        workload::ReplayStreamWith(recovered->streams[0], host, kernel);
        benchmark::DoNotOptimize(host.sum());
    }
    ReportTimePerRef(state, recording.accesses);
}
BENCHMARK_CAPTURE(BM_ReplayDecode, swar, workload::ReplayKernel::kSwar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayDecode, pext, workload::ReplayKernel::kPext)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayDecode, avx512, workload::ReplayKernel::kAvx512)
    ->Unit(benchmark::kMillisecond);

void
BM_Generate(benchmark::State& state, core::WorkloadId id)
{
    core::RunConfig config = Workload1Config();
    config.workload = id;
    const workload::WorkloadSpec spec = core::SpecFor(config);
    uint64_t accesses = 0;
    for (auto _ : state) {
        workload::CountingHost host(
            sim::MachineConfig::Prototype(config.memory_mb));
        workload::Driver driver(host, spec, config.refs, config.seed,
                                spec.slice_refs);
        driver.Run();
        accesses = host.accesses();
    }
    if (accesses == 0) {
        Fatal("micro_trace: the generator issued no accesses");
    }
    ReportTimePerRef(state, accesses);
}

/** BM_Generate/<workload>, under core::ToString's workload names. */
const bool kGenerateRegistered = [] {
    for (const core::WorkloadId id :
         {core::WorkloadId::kWorkload1, core::WorkloadId::kFlushStorm,
          core::WorkloadId::kGcSweep}) {
        benchmark::RegisterBenchmark(
            (std::string("BM_Generate/") + core::ToString(id)).c_str(),
            BM_Generate, id)
            ->Unit(benchmark::kMillisecond);
    }
    return true;
}();

}  // namespace

SPUR_MICRO_BENCHMARK_MAIN();
