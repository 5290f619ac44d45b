#ifndef DSMEM_CORE_TILE_STREAM_H
#define DSMEM_CORE_TILE_STREAM_H

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "trace/chunked_view.h"

// ------------------------------------------------------------------
// Internal header: the trace sources the sweep executors run over — a
// flat TraceView, or a compressed ChunkedView fed through the
// decode-ahead TileStream. Not part of the public API.
// ------------------------------------------------------------------

namespace dsmem::core::detail {

/**
 * Sequential tile producer over a ChunkedView: next() hands out the
 * trace's chunks in order as decoded TraceTiles, recycling a small
 * ring of tiles borrowed from SimContext::TileScratch (so a campaign
 * of many streamed cells allocates the ring once). A tile returned by
 * next() stays valid until the following next() call.
 *
 * Two modes, selected by StreamOptions::decode_threads (the host
 * picks — see hostDecodeThreads):
 *
 *  - 0 (inline): next() decodes the chunk on the caller's thread into
 *    a single recycled tile. There is no decode/compute overlap, but
 *    the working set is one L2-resident tile instead of the whole
 *    flat trace — on a memory-bound sweep that traffic cut is the
 *    win, and it is the right choice on single-core hosts where a
 *    decoder thread would just time-slice against the sweep.
 *
 *  - 1 (decode-ahead thread): a single producer thread decodes up to
 *    two chunks ahead into a 3-tile ring (one being computed, one
 *    decoded ahead, one being written) while the caller's sweep
 *    computes the current tile, hiding the decode latency entirely
 *    when compute per tile exceeds decode per tile. Classic
 *    bounded single-producer/single-consumer handoff: all indices are
 *    exchanged under one mutex (TSan-clean), and a slot is never
 *    rewritten until the consumer has moved past it.
 *
 * A decode error on the producer thread (impossible for a validated
 * ChunkedView, but kept honest) is captured and rethrown from
 * next().
 */
class TileStream
{
  public:
    TileStream(const trace::ChunkedView &cv, SimContext &ctx,
               const StreamOptions &opt)
        : cv_(cv), ring_(ctx.tileScratch().tiles),
          threaded_(opt.decode_threads > 0 && cv.chunkCount() > 1)
    {
        const size_t ring = threaded_ ? kThreadedRing : 1;
        if (ring_.size() < ring)
            ring_.resize(ring);
        if (threaded_)
            producer_ = std::thread([this] { produce(); });
    }

    ~TileStream()
    {
        if (producer_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                stop_ = true;
            }
            cv_slot_.notify_all();
            producer_.join();
        }
    }

    TileStream(const TileStream &) = delete;
    TileStream &operator=(const TileStream &) = delete;

    /** Next tile in trace order, or nullptr after the last chunk. */
    const trace::TraceTile *next()
    {
        if (!threaded_) {
            if (handed_ >= cv_.chunkCount())
                return nullptr;
            trace::TraceTile &t = ring_[0];
            cv_.decodeChunk(handed_, t);
            ++handed_;
            return &t;
        }

        std::unique_lock<std::mutex> lock(mu_);
        // Release the previously handed-out slot for rewriting.
        if (consumed_ < handed_) {
            consumed_ = handed_;
            cv_slot_.notify_all();
        }
        if (handed_ >= cv_.chunkCount()) {
            if (err_)
                std::rethrow_exception(err_);
            return nullptr;
        }
        cv_tile_.wait(lock,
                      [this] { return produced_ > handed_ || err_; });
        if (err_)
            std::rethrow_exception(err_);
        return &ring_[handed_++ % kThreadedRing];
    }

  private:
    /** Threaded ring: one tile computed, one decoded ahead, one being
     *  written. */
    static constexpr size_t kThreadedRing = 3;

    void produce()
    {
        const size_t chunks = cv_.chunkCount();
        try {
            for (size_t c = 0; c < chunks; ++c) {
                {
                    std::unique_lock<std::mutex> lock(mu_);
                    cv_slot_.wait(lock, [&] {
                        return produced_ - consumed_ < kThreadedRing ||
                            stop_;
                    });
                    if (stop_)
                        return;
                }
                cv_.decodeChunk(c, ring_[c % kThreadedRing]);
                {
                    std::lock_guard<std::mutex> lock(mu_);
                    ++produced_;
                }
                cv_tile_.notify_all();
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            err_ = std::current_exception();
            cv_tile_.notify_all();
        }
    }

    const trace::ChunkedView &cv_;
    std::vector<trace::TraceTile> &ring_;
    const bool threaded_;

    size_t handed_ = 0; ///< Chunks handed to the consumer.

    // Threaded-mode shared state, all under mu_.
    std::mutex mu_;
    std::condition_variable cv_tile_; ///< Producer -> consumer.
    std::condition_variable cv_slot_; ///< Consumer -> producer.
    size_t produced_ = 0; ///< Chunks fully decoded into the ring.
    size_t consumed_ = 0; ///< Chunks the consumer has moved past.
    bool stop_ = false;
    std::exception_ptr err_;
    std::thread producer_;
};

/**
 * The trace a sweep executor runs over, as an in-order sequence of
 * contiguous global index ranges: a flat TraceView is the single
 * range [0, n); a ChunkedView is one range per decoded tile, pulled
 * off a TileStream. forEachRange(ctx, f) calls f(view, lo, hi) per
 * range, where view is a trace::TraceView or a trace::TileSpan — both
 * expose the accessor interface Lane::step and SolSweepState::runRange
 * are templated on, so each executor has exactly one body for both
 * residencies, and streamed results are bit-identical to flat ones by
 * construction (every piece of cross-instruction state lives in the
 * lanes, never in the view).
 */
class TraceSource
{
  public:
    explicit TraceSource(const trace::TraceView &v) : flat_(&v) {}
    TraceSource(const trace::ChunkedView &cv, const StreamOptions &opt)
        : chunked_(&cv), opt_(opt)
    {
    }

    template <typename F>
    void forEachRange(SimContext &ctx, F &&f) const
    {
        if (flat_ != nullptr) {
            f(*flat_, size_t{0}, flat_->size());
            return;
        }
        TileStream stream(*chunked_, ctx, opt_);
        while (const trace::TraceTile *tile = stream.next()) {
            const trace::TileSpan span(*tile);
            f(span, span.lo(), span.hi());
        }
    }

  private:
    const trace::TraceView *flat_ = nullptr;
    const trace::ChunkedView *chunked_ = nullptr;
    StreamOptions opt_;
};

} // namespace dsmem::core::detail

#endif // DSMEM_CORE_TILE_STREAM_H
