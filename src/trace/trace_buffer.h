#ifndef DSMEM_TRACE_TRACE_BUFFER_H
#define DSMEM_TRACE_TRACE_BUFFER_H

#include <memory>
#include <vector>

#include "trace/trace.h"

namespace dsmem::trace {

/**
 * Append-only chunked buffer of trace records — the phase-1 engine's
 * capture sink.
 *
 * The generation hot loop appends one record per traced instruction;
 * growing a flat std::vector there means periodic reallocate-and-copy
 * spikes of the entire trace (tens of MB for the full-size apps) and
 * a doubling growth curve whose peak holds two copies live. Fixed
 * 64 Ki-record chunks make every append O(1) with no copying, keep
 * the grow step off the fast path, and bound transient memory to one
 * chunk; the contiguous Trace the timing phase expects is assembled
 * once at the end of the run.
 */
class TraceRecorder
{
  public:
    static constexpr size_t kChunkInsts = size_t{1} << 16;

    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    void append(const TraceInst &inst)
    {
        if (cur_ == end_)
            grow();
        *cur_++ = inst;
    }

    size_t size() const
    {
        if (chunks_.empty())
            return 0;
        return (chunks_.size() - 1) * kChunkInsts +
            (kChunkInsts - static_cast<size_t>(end_ - cur_));
    }

    /**
     * Rewrite the latency annotation of the already-appended record
     * at @p index (its trace/SSA index). The DRAM model's deferred
     * stores use this: the record is appended at issue with a
     * provisional latency and patched when the write actually
     * completes at the memory. Only valid before drainInto.
     */
    void patchLatency(size_t index, uint32_t latency)
    {
        chunks_[index / kChunkInsts][index % kChunkInsts].latency =
            latency;
    }

    /**
     * Append every buffered record to @p t (one exact-size reserve,
     * no intermediate copies) and release the chunks.
     */
    void drainInto(Trace &t)
    {
        t.reserve(t.size() + size());
        const size_t n_chunks = chunks_.size();
        for (size_t c = 0; c < n_chunks; ++c) {
            const TraceInst *p = chunks_[c].get();
            const size_t count = (c + 1 == n_chunks)
                ? kChunkInsts - static_cast<size_t>(end_ - cur_)
                : kChunkInsts;
            t.append(p, count);
            chunks_[c].reset(); // Stream: never hold both copies whole.
        }
        chunks_.clear();
        cur_ = end_ = nullptr;
    }

  private:
    void grow()
    {
        chunks_.push_back(std::make_unique<TraceInst[]>(kChunkInsts));
        cur_ = chunks_.back().get();
        end_ = cur_ + kChunkInsts;
    }

    std::vector<std::unique_ptr<TraceInst[]>> chunks_;
    TraceInst *cur_ = nullptr;
    TraceInst *end_ = nullptr;
};

} // namespace dsmem::trace

#endif // DSMEM_TRACE_TRACE_BUFFER_H
