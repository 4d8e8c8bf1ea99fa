#include "src/core/run_trace.h"

#include "src/common/log.h"
#include "src/sim/config.h"

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
TraceRecordSession::Commit(const std::string& identity,
                           const std::string& bytes)
{
    MutexLock lock(mutex_);
    const size_t place = streams_.at(identity).place;
    while (next_ != place && !failed_) {
        landed_.Wait(mutex_);
    }
    std::string error;
    if (!failed_ && !writer_.AppendStream(bytes, &error)) {
        Warn("--record-trace: stream '" + identity + "': " + error);
        failed_ = true;
    }
    ++next_;
    landed_.NotifyAll();
}

void
TraceRecordSession::Abandon(const std::string& identity)
{
    MutexLock lock(mutex_);
    if (streams_.at(identity).place < next_) {
        return;  // It landed before its cell failed.
    }
    Warn("--record-trace: stream '" + identity +
         "' was not recorded (its cell failed)");
    failed_ = true;
    landed_.NotifyAll();
}

bool
TraceRecordSession::Finish(std::string* error)
{
    MutexLock lock(mutex_);
    if (failed_) {
        // A stream append failed or a claimed stream was abandoned: the
        // file is a recoverable prefix, not a complete trace.
        if (error != nullptr) {
            *error = "a stream was not recorded; the trace is partial";
        }
        return false;
    }
    return writer_.Finish(error);
}

bool
TraceReplaySource::Load(const std::string& path, std::string* error)
{
    return library_.Load(path, error);
}

}  // namespace spur::core
