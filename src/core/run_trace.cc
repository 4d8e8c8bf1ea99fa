#include "src/core/run_trace.h"

#include <utility>

#include "src/common/log.h"
#include "src/sim/config.h"
#include "src/workload/driver.h"

namespace spur::core {

workload::TraceStreamMeta
TraceMetaFor(const RunConfig& config)
{
    // The geometry fields come from the same Prototype the run builds;
    // memory_mb scales memory_bytes only, so identities are shared
    // across memory sizes (one recording feeds a whole memory sweep).
    const sim::MachineConfig machine =
        sim::MachineConfig::Prototype(config.memory_mb);
    workload::TraceStreamMeta meta;
    meta.workload = ToString(config.workload);
    meta.seed = config.seed;
    meta.refs = (config.refs != 0) ? config.refs
                                   : DefaultRefs(config.workload);
    meta.intensity = config.intensity;
    meta.page_bytes = machine.page_bytes;
    meta.block_bytes = machine.block_bytes;
    return meta;
}

RecordedStream
RecordLiveStream(const RunConfig& config, workload::WorkloadHost& host,
                 const std::function<void(uint64_t refs_issued)>& at_end)
{
    const workload::TraceStreamMeta meta = TraceMetaFor(config);
    workload::WorkloadSpec spec = SpecFor(config);
    const uint32_t slice_refs = spec.slice_refs;
    workload::TraceEncoder encoder(meta);
    workload::RecordingHost recorder(host, encoder);
    workload::Driver driver(recorder, std::move(spec), meta.refs,
                            config.seed, slice_refs);
    driver.Run();
    // Stop before teardown: the stream (and whatever at_end samples)
    // ends at this point of the run, not after driver teardown.
    recorder.StopRecording();
    if (at_end) {
        at_end(driver.refs_issued());
    }
    RecordedStream stream;
    stream.ops = encoder.ops();
    stream.accesses = encoder.accesses();
    stream.bytes = encoder.Finish(driver.refs_issued());
    return stream;
}

bool
TraceRecordSession::Open(const std::string& path, std::string* error)
{
    MutexLock lock(mutex_);
    return writer_.Open(path, error);
}

TraceRecordSession::Stream&
TraceRecordSession::Place(const std::string& identity)
{
    const auto [it, fresh] = streams_.try_emplace(identity);
    if (fresh) {
        it->second.place = places_++;
    }
    return it->second;
}

void
TraceRecordSession::Reserve(const std::string& identity)
{
    MutexLock lock(mutex_);
    Place(identity);
}

bool
TraceRecordSession::Claim(const std::string& identity)
{
    MutexLock lock(mutex_);
    if (!writer_.is_open()) {
        return false;
    }
    Stream& stream = Place(identity);
    if (stream.claimed) {
        return false;
    }
    stream.claimed = true;
    return true;
}

void
TraceRecordSession::Commit(const std::string& identity, std::string bytes)
{
    MutexLock lock(mutex_);
    held_.emplace(streams_.at(identity).place, std::move(bytes));
    for (auto it = held_.begin(); it != held_.end() && it->first == next_;
         it = held_.erase(it), ++next_) {
        std::string error;
        if (!failed_ && !writer_.AppendStream(it->second, &error)) {
            Warn("--record-trace: " + error);
            failed_ = true;
        }
    }
}

bool
TraceRecordSession::Finish(std::string* error)
{
    MutexLock lock(mutex_);
    if (failed_ || next_ != places_) {
        // A stream append failed, or a placed stream never landed: the
        // file is a recoverable prefix, not a complete trace.
        if (error != nullptr) {
            *error = "a stream was not recorded; the trace is partial";
        }
        return false;
    }
    return writer_.Finish(error);
}

}  // namespace spur::core
