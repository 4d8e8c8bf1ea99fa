/**
 * @file
 * Layer spans for spur_bench, recorded from outside the simulator.
 *
 * The benchmark times each layer at the boundary of its public calls
 * instead of instrumenting src/: a TracingHost decorates the machine a
 * workload drives (core::SpurSystem, or the recording host on the
 * record workload) and opens one span around every call it forwards.
 * The decorator exists only in the traced run.
 *
 * Spans nest: each one records the span that was open when it began,
 * so a layer's self time is its duration minus its children's.  Spans
 * stay in memory and are written as Chrome trace-event JSON at exit.
 *
 * The untraced timed passes use a LapHost instead, which adds nothing
 * but a forwarding call and one clock read every few milliseconds.
 */
#ifndef SPUR_BENCH_TRACING_H_
#define SPUR_BENCH_TRACING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/core/system.h"
#include "src/sweep/telemetry.h"
#include "src/workload/host.h"

namespace spur::bench {

/** One closed (or still open) span. */
struct Span {
    const char* name = "";  ///< Static layer name, e.g. "core.access_batch".
    std::string label;      ///< Free text for root spans (the cell name).
    int64_t parent = -1;    ///< Index of the enclosing span; -1 for roots.
    int64_t root = -1;      ///< Index of the outermost enclosing span.
    double start_s = 0.0;   ///< Seconds since the tracer started.
    double end_s = 0.0;
};

/** In-memory span recorder; one clock for every span. */
class Tracer
{
  public:
    /** Opens a span nested in the innermost open one; returns its id. */
    size_t Begin(const char* name, std::string label = {});

    /** Closes span @p id, which must be the innermost open span. */
    void End(size_t id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Per span: its duration minus its direct children's durations. */
    std::vector<double> SelfSeconds() const;

    /** Writes every span as Chrome trace-event JSON; false on I/O error. */
    bool WriteChromeJson(const std::string& path) const;

  private:
    sweep::Stopwatch clock_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** RAII span; a null tracer makes it a no-op (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const char* name, std::string label = {})
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->Begin(name, std::move(label)) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->End(id_);
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer_;
    size_t id_;
};

/**
 * Forwards every WorkloadHost call to @p inner inside a span: reference
 * batches under @p access_span, process and address-space operations
 * and context switches under @p lifecycle_span.
 */
class TracingHost : public workload::WorkloadHost
{
  public:
    TracingHost(workload::WorkloadHost& inner, Tracer& tracer,
                const char* access_span, const char* lifecycle_span)
        : inner_(inner),
          tracer_(tracer),
          access_span_(access_span),
          lifecycle_span_(lifecycle_span)
    {
    }

    /**
     * Also records the global address of each of the first @p limit
     * references into @p out, resolved through @p system before the
     * batch is forwarded and outside the access span.
     */
    void CaptureGlobal(const core::SpurSystem& system,
                       std::vector<GlobalAddr>* out, size_t limit)
    {
        capture_system_ = &system;
        capture_ = out;
        capture_limit_ = limit;
    }

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

    /** Processes created through this host. */
    uint64_t spawns() const { return spawns_; }

  private:
    workload::WorkloadHost& inner_;
    Tracer& tracer_;
    const char* access_span_;
    const char* lifecycle_span_;
    const core::SpurSystem* capture_system_ = nullptr;
    std::vector<GlobalAddr>* capture_ = nullptr;
    size_t capture_limit_ = 0;
    uint64_t spawns_ = 0;
};

/**
 * Splits a timed cell into laps: wall-time intervals that end where the
 * cell's work passes fixed marks.  A deterministic cell passes the same
 * marks at the same calls on every run, so lap j covers the same work
 * each time, and noise can be taken out lap by lap.
 */
class LapClock
{
  public:
    /** Closes the current lap; the next one starts now. */
    void Lap()
    {
        const double now = clock_.Seconds();
        laps_.push_back(now - last_);
        last_ = now;
    }

    const std::vector<double>& laps() const { return laps_; }

  private:
    sweep::Stopwatch clock_;
    double last_ = 0.0;
    std::vector<double> laps_;
};

/** LapClock::Lap on @p laps, when there is one (the untimed paths). */
inline void
Lap(LapClock* laps)
{
    if (laps != nullptr) {
        laps->Lap();
    }
}

/**
 * Forwards every WorkloadHost call to @p inner and closes a lap on
 * @p laps after each reference batch that carries the count past a
 * multiple of @p lap_refs.  One clock read per lap: nothing else is
 * added to the path it decorates but a forwarding call.
 */
class LapHost : public workload::WorkloadHost
{
  public:
    LapHost(workload::WorkloadHost& inner, LapClock& laps, uint64_t lap_refs)
        : inner_(inner), laps_(laps), lap_refs_(lap_refs), next_(lap_refs)
    {
    }

    Pid CreateProcess() override { return inner_.CreateProcess(); }
    void DestroyProcess(Pid pid) override { inner_.DestroyProcess(pid); }
    void MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                   vm::PageKind kind) override
    {
        inner_.MapRegion(pid, base, bytes, kind);
    }
    void ShareSegment(Pid pid, unsigned reg, Pid other,
                      unsigned other_reg) override
    {
        inner_.ShareSegment(pid, reg, other, other_reg);
    }
    void Access(const MemRef& ref) override { AccessBatch(&ref, 1); }
    void AccessBatch(const MemRef* refs, size_t n) override;
    void OnContextSwitch() override { inner_.OnContextSwitch(); }
    const sim::MachineConfig& config() const override
    {
        return inner_.config();
    }

  private:
    workload::WorkloadHost& inner_;
    LapClock& laps_;
    uint64_t lap_refs_;
    uint64_t refs_ = 0;
    uint64_t next_;
};

}  // namespace spur::bench

#endif  // SPUR_BENCH_TRACING_H_
