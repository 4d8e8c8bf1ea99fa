#include "spur_bench/tracing.h"

#include <cstdio>

#include "src/common/log.h"

namespace spur::bench {

size_t
Tracer::Begin(const char* name, std::string label)
{
    Span span;
    span.name = name;
    span.label = std::move(label);
    if (!open_.empty()) {
        span.parent = static_cast<int64_t>(open_.back());
        span.root = spans_[open_.back()].root;
    } else {
        span.root = static_cast<int64_t>(spans_.size());
    }
    span.start_s = clock_.Seconds();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::End(size_t id)
{
    if (open_.empty() || open_.back() != id) {
        Panic("spur_bench: span closed out of order");
    }
    spans_[id].end_s = clock_.Seconds();
    open_.pop_back();
}

std::vector<double>
Tracer::SelfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const double duration = spans_[i].end_s - spans_[i].start_s;
        self[i] += duration;
        if (spans_[i].parent >= 0) {
            self[static_cast<size_t>(spans_[i].parent)] -= duration;
        }
    }
    return self;
}

bool
Tracer::WriteChromeJson(const std::string& path) const
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        return false;
    }
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        // Timestamps are microseconds; the "X" (complete) event nests by
        // interval, and args carry the explicit parent link.
        std::fprintf(file,
                     "%s{\"name\": \"%s\", \"cat\": \"spur_bench\", "
                     "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                     "\"parent\": %lld, \"label\": \"%s\"}}",
                     i == 0 ? "" : ",\n", span.name, span.start_s * 1e6,
                     (span.end_s - span.start_s) * 1e6, i,
                     static_cast<long long>(span.parent),
                     span.label.c_str());
    }
    std::fputs("\n]}\n", file);
    const bool ok = std::ferror(file) == 0;
    return (std::fclose(file) == 0) && ok;
}

Pid
TracingHost::CreateProcess()
{
    ScopedSpan span(&tracer_, lifecycle_span_);
    ++spawns_;
    return inner_.CreateProcess();
}

void
TracingHost::DestroyProcess(Pid pid)
{
    ScopedSpan span(&tracer_, lifecycle_span_);
    inner_.DestroyProcess(pid);
}

void
TracingHost::MapRegion(Pid pid, ProcessAddr base, uint64_t bytes,
                       vm::PageKind kind)
{
    ScopedSpan span(&tracer_, lifecycle_span_);
    inner_.MapRegion(pid, base, bytes, kind);
}

void
TracingHost::ShareSegment(Pid pid, unsigned reg, Pid other,
                          unsigned other_reg)
{
    ScopedSpan span(&tracer_, lifecycle_span_);
    inner_.ShareSegment(pid, reg, other, other_reg);
}

void
TracingHost::Access(const MemRef& ref)
{
    AccessBatch(&ref, 1);
}

void
TracingHost::AccessBatch(const MemRef* refs, size_t n)
{
    if (capture_ != nullptr && capture_->size() < capture_limit_) {
        const size_t room = capture_limit_ - capture_->size();
        for (size_t i = 0; i < n && i < room; ++i) {
            capture_->push_back(
                capture_system_->ToGlobal(refs[i].pid, refs[i].addr));
        }
    }
    ScopedSpan span(&tracer_, access_span_);
    inner_.AccessBatch(refs, n);
}

void
TracingHost::OnContextSwitch()
{
    ScopedSpan span(&tracer_, lifecycle_span_);
    inner_.OnContextSwitch();
}

const sim::MachineConfig&
TracingHost::config() const
{
    return inner_.config();
}

void
LapHost::AccessBatch(const MemRef* refs, size_t n)
{
    inner_.AccessBatch(refs, n);
    refs_ += n;
    if (refs_ >= next_) {
        laps_.Lap();
        next_ = (refs_ / lap_refs_ + 1) * lap_refs_;
    }
}

}  // namespace spur::bench
