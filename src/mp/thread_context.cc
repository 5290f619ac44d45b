#include "mp/thread_context.h"

#include "mp/engine.h"

namespace dsmem::mp {

using trace::InstIndex;
using trace::TraceInst;

ThreadContext::ThreadContext(Engine *engine, uint32_t proc)
    : engine_(engine),
      rec_(proc == engine->config().traced_proc ? &engine->recorder_
                                                : nullptr),
      proc_(proc),
      legacy_(engine->config().legacy_engine)
{}

uint32_t
ThreadContext::numProcs() const
{
    return engine_->config().num_procs;
}

Arena &
ThreadContext::arena()
{
    return engine_->arena();
}

InstIndex
ThreadContext::emitLegacy(const TraceInst &inst)
{
    InstIndex idx = next_inst_++;
    ++stats_.instructions;
    cycle_ += 1;
    if (proc_ == engine_->config().traced_proc)
        engine_->trace_.append(inst);
    return idx;
}

InstIndex
ThreadContext::recordTimed(const TraceInst &inst)
{
    InstIndex idx = next_inst_++;
    if (!isSync(inst.op))
        ++stats_.instructions;
    if (legacy_) {
        // Seed path: plain append to the contiguous capture vector.
        if (proc_ == engine_->config().traced_proc)
            engine_->trace_.append(inst);
    } else if (rec_) {
        rec_->append(inst);
    }
    return idx;
}

// ---------------------------------------------------------------------
// Synchronization awaitables
// ---------------------------------------------------------------------

ThreadContext::Awaiter
ThreadContext::lock(LockId lock)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::LOCK;
    pending_.sync_id = lock;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::unlock(LockId lock)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::UNLOCK;
    pending_.sync_id = lock;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::barrier(BarrierId barrier)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::BARRIER;
    pending_.sync_id = barrier;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::waitEvent(EventId event)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::WAIT_EVENT;
    pending_.sync_id = event;
    return Awaiter{this};
}

ThreadContext::Awaiter
ThreadContext::setEvent(EventId event)
{
    pending_ = PendingOp{};
    pending_.kind = PendingKind::SET_EVENT;
    pending_.sync_id = event;
    return Awaiter{this};
}

} // namespace dsmem::mp
