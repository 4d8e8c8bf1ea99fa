#include "src/workload/driver.h"

#include <algorithm>

#include "src/common/log.h"

namespace spur::workload {

Driver::Driver(WorkloadHost& system, WorkloadSpec spec,
               uint64_t total_refs, uint64_t seed, uint32_t slice_refs)
    : system_(system),
      spec_(std::move(spec)),
      total_refs_(total_refs),
      rng_(seed),
      slice_refs_(std::max(1u, slice_refs))
{
    batch_.resize(slice_refs_);
    if (spec_.jobs.empty()) {
        Fatal("Driver: workload has no jobs");
    }
    owners_.assign(spec_.jobs.size(), kNoOwner);
    for (size_t i = 0; i < spec_.jobs.size(); ++i) {
        for (uint32_t n = 0; n < spec_.jobs[i].concurrency; ++n) {
            pending_.push_back(Pending{spec_.jobs[i].start_refs, i});
        }
    }
}

Driver::~Driver()
{
    // Instances go first (vector member order would do it too, but be
    // explicit): they reference the owners' segments.
    live_.clear();
    for (Pid owner : owners_) {
        if (owner != kNoOwner) {
            system_.DestroyProcess(owner);
        }
    }
}

void
Driver::Run()
{
    if (refs_issued_ < total_refs_) {
        RunRefs(total_refs_ - refs_issued_);
    }
}

void
Driver::RunRefs(uint64_t refs)
{
    const uint64_t stop = refs_issued_ + refs;
    while (refs_issued_ < stop) {
        SpawnDue();
        if (live_.empty()) {
            if (pending_.empty()) {
                Warn("Driver: all jobs finished before the reference "
                     "budget was reached");
                return;
            }
            // Idle until the next pending job: skip time forward.
            uint64_t next = ~uint64_t{0};
            for (const Pending& p : pending_) {
                next = std::min(next, p.at_refs);
            }
            refs_issued_ = std::max(refs_issued_ + 1, next);
            continue;
        }
        // Round-robin: one quantum for the process at the cursor.  The
        // quantum's references are generated up front and issued through
        // one AccessBatch() dispatch; the generator is pure, so the
        // stream and the access order match the old per-reference loop
        // exactly.
        next_slot_ = (next_slot_ >= live_.size()) ? 0 : next_slot_;
        SyntheticProcess& proc = *live_[next_slot_].process;
        const uint64_t quantum =
            std::min<uint64_t>(slice_refs_, stop - refs_issued_);
        const size_t issued =
            proc.NextBatch(batch_.data(), static_cast<size_t>(quantum));
        system_.AccessBatch(batch_.data(), issued);
        refs_issued_ += issued;
        ++next_slot_;
        system_.OnContextSwitch();
        ReapFinished();
    }
}

void
Driver::SpawnDue()
{
    for (size_t i = 0; i < pending_.size();) {
        if (pending_[i].at_refs <= refs_issued_) {
            Spawn(pending_[i].job_index);
            pending_[i] = pending_.back();
            pending_.pop_back();
        } else {
            ++i;
        }
    }
}

void
Driver::Spawn(size_t job_index)
{
    const JobSpec& job = spec_.jobs[job_index];
    ShareSpec share;
    const bool wants_share = (job.share_text || job.share_data) &&
                             job.respawn_delay_refs != 0;
    if (wants_share) {
        if (owners_[job_index] == kNoOwner) {
            // Materialize the job's shared segments on a passive owner
            // process that exists for the whole run.
            const Pid owner = system_.CreateProcess();
            const uint64_t page_bytes = system_.config().page_bytes;
            if (job.share_text && job.profile.code_pages > 0) {
                system_.MapRegion(owner, kCodeBase,
                                  job.profile.code_pages * page_bytes,
                                  vm::PageKind::kCode);
            }
            if (job.share_data && job.profile.data_pages > 0) {
                MapDataSegment(system_, owner, job.profile);
            }
            owners_[job_index] = owner;
        }
        share.owner = owners_[job_index];
        share.text = job.share_text && job.profile.code_pages > 0;
        share.data = job.share_data && job.profile.data_pages > 0;
    }
    ++spawns_;
    live_.push_back(Instance{
        std::make_unique<SyntheticProcess>(system_, job.profile, rng_.Next(),
                                           wants_share ? &share : nullptr),
        job_index});
}

void
Driver::ReapFinished()
{
    for (size_t i = 0; i < live_.size();) {
        if (live_[i].process->Done()) {
            const size_t job_index = live_[i].job_index;
            live_[i].process.reset();  // Destroys the process's pages.
            if (i + 1 != live_.size()) {
                live_[i] = std::move(live_.back());
            }
            live_.pop_back();
            const JobSpec& job = spec_.jobs[job_index];
            if (job.respawn_delay_refs != 0) {
                pending_.push_back(Pending{
                    refs_issued_ + job.respawn_delay_refs, job_index});
            }
            if (next_slot_ >= live_.size()) {
                next_slot_ = 0;
            }
        } else {
            ++i;
        }
    }
}

}  // namespace spur::workload
