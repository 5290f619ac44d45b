#ifndef DSMEM_RUNNER_CAMPAIGN_H
#define DSMEM_RUNNER_CAMPAIGN_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "runner/journal.h"
#include "runner/result_sink.h"
#include "runner/runner.h"
#include "runner/trace_store.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"

namespace dsmem::runner {

/**
 * One recorded failure inside a campaign unit. Non-fatal entries are
 * absorbed faults (a store rename that failed, a retry that later
 * succeeded); fatal entries mean the unit is missing results.
 */
struct UnitError {
    std::string site;    ///< Failing boundary ("phase1", "phase2", ...).
    std::string message; ///< Exception / error text.
    std::string spec;    ///< Spec label for row failures ("" = unit-wide).
    int attempts = 1;    ///< Attempts consumed, including the last.
    bool fatal = true;
};

/**
 * Results of one campaign unit, in the unit's declared spec order
 * (never in worker completion order — output stays bit-identical to
 * serial execution for any --jobs value).
 */
struct UnitResult {
    const sim::ViewBundle *bundle = nullptr;
    sim::TraceOrigin origin = sim::TraceOrigin::GENERATED;
    double trace_wall_ms = 0.0;        ///< Phase-1 getView() cost.
    sim::TraceTiming trace_timing;     ///< Generate vs load split.
    std::vector<sim::LabelledResult> rows;
    std::vector<double> row_wall_ms;   ///< Per-row timing cost.

    /**
     * Per-row sampling summary (index-matching rows). All entries
     * stay default (sampled == false) when the campaign ran without
     * a sampling plan or the row fell back to an exact run.
     */
    std::vector<sim::SampleSummary> row_sampling;

    /**
     * 1 when rows[s] holds a finished result (run now or restored
     * from the journal); 0 when the row failed or never ran.
     */
    std::vector<uint8_t> row_done;

    /**
     * Trace provenance restored from a journal: the unit skipped
     * phase 1, bundle stays null, and trace_instructions carries what
     * bundle->stats.instructions would have.
     */
    bool trace_from_journal = false;
    uint64_t trace_instructions = 0;

    std::vector<UnitError> errors;
    bool failed = false; ///< Any fatal error (missing rows).
};

/**
 * An experiment campaign: the declarative job graph the bench
 * binaries hand to the worker pool.
 *
 * A *unit* is one (app, MemoryConfig, size) trace timed under a list
 * of ModelSpecs. The campaign deduplicates phase-1 trace generation
 * across units keyed by the full MemoryConfig, executes everything on
 * a fixed-size pool (phase-2 runs for a trace are enqueued the moment
 * that trace lands — traces still generating don't block finished
 * ones), and exposes results in declaration order. Phase 2 re-times
 * an immutable trace, so parallel runs share nothing and results are
 * bit-identical to serial execution.
 *
 * Failure model (DESIGN.md "Failure model"): a job failure never
 * crashes the campaign. Transient faults (util::IoError) retry with
 * deterministic capped backoff; permanent failures mark their unit
 * failed while every other unit completes. With a journal configured
 * (RunnerOptions::journal_path) each completed row is made durable
 * before the campaign moves on, and resume (RunnerOptions::resume)
 * re-executes only the missing work — producing results identical to
 * an uninterrupted run.
 */
class Campaign
{
  public:
    Campaign(std::string bench_name, RunnerOptions opts);

    /** Declare a unit; returns its index. Call before run(). */
    size_t add(sim::AppId app, std::vector<sim::ModelSpec> specs,
               const memsys::MemoryConfig &mem = {},
               bool small = false);

    /** Execute every declared unit; idempotent per declaration set. */
    void run();

    /**
     * One (unit, spec) phase-2 cell: the dispatch granule of the
     * sharded campaign service (stable across processes because both
     * sides hold the same declaration set).
     */
    struct CellRef {
        size_t unit = 0;
        size_t spec = 0;
        friend auto operator<=>(const CellRef &, const CellRef &) =
            default;
    };

    /** Deterministic assignment of pending cells to worker shards. */
    struct ShardPlan {
        std::vector<std::vector<CellRef>> shards;
        size_t cells = 0; ///< Total pending cells across shards.
    };

    /**
     * Phase A of run(): result slots, sampling validation, journal
     * replay (--resume), journal open, optional store GC. Returns
     * false when the campaign is fatally unrunnable — the sink is
     * already filled and run()/the service layer must not execute
     * anything. The sharded coordinator calls prepare()/finish()
     * around its own dispatch loop; run() wraps them around the
     * in-process pool. Calling run() after prepare() would reset
     * state — use one or the other.
     */
    bool prepare();

    /** Phase C of run(): journal failure note, close, sink fill. */
    void finish();

    /** Pending (not journal-restored) cells, declaration order.
     *  Valid after prepare(). */
    std::vector<CellRef> pendingCells() const;

    /**
     * Shard pending cells across @p workers: cells are grouped by
     * phase-1 trace key (one shard resolves each trace once) and
     * groups go to the currently lightest shard, largest first.
     * Deterministic in the declaration set + journal state alone.
     */
    ShardPlan shardPlan(unsigned workers) const;

    /** Declaration accessors for the service layer's wire format. */
    sim::AppId unitApp(size_t u) const { return units_.at(u).app; }
    const memsys::MemoryConfig &unitMem(size_t u) const
    {
        return units_.at(u).mem;
    }
    bool unitSmall(size_t u) const { return units_.at(u).small; }
    const std::vector<sim::ModelSpec> &unitSpecs(size_t u) const
    {
        return units_.at(u).specs;
    }
    const std::string &benchName() const { return bench_name_; }

    /** Outcome of feeding one remote row result into the campaign. */
    enum class Accept {
        OK,        ///< Recorded and journalled.
        DUPLICATE, ///< Already done with the identical result.
        MISMATCH,  ///< Already done with a *different* result.
        BAD_REF,   ///< (unit, spec) outside the declaration set.
    };

    /**
     * Record a phase-2 row computed by a worker process. First result
     * wins: an at-least-once redeliver of the same bits is DUPLICATE
     * (harmless), different bits are MISMATCH (the caller must treat
     * the run as poisoned — two workers disagreed on a deterministic
     * cell). Coordinator-thread only; not safe against run().
     */
    Accept acceptRemoteRow(size_t unit, size_t spec,
                           const core::RunResult &result,
                           const sim::SampleSummary &sampling,
                           double wall_ms);

    /**
     * Record a unit's phase-1 trace provenance as reported by a
     * worker (bundle-less, like a journal-restored unit). First
     * report wins; returns false only for a bad unit/origin.
     */
    bool acceptRemoteTrace(size_t unit, const std::string &origin,
                           uint64_t instructions, double wall_ms,
                           double gen_ms, double load_ms);

    /** Record a worker-reported failure against a cell/unit. */
    void recordRemoteError(size_t unit, const std::string &spec_label,
                           const std::string &site,
                           const std::string &message, bool fatal);

    /**
     * Execute one cell in-process: phase 1 and phase 2 through the
     * same retry/backoff, live-point and sampled-vs-exact path run()
     * uses, so a transient fault recovers here exactly as it does in
     * the pool. The service's workers run every ASSIGN through this,
     * and the coordinator calls it when every worker slot retired.
     * Returns true when the row is done; a false return leaves the
     * cell's fatal UnitError last in result(unit).errors.
     */
    bool runCellInline(size_t unit, size_t spec);

    /** The journal (service layer appends epoch/lease records). */
    CampaignJournal &journal() { return journal_; }

    /** Highest epoch record replayed from the journal (0 fresh). */
    uint64_t resumedEpoch() const { return journal_meta_.last_epoch; }

    size_t size() const { return units_.size(); }
    const UnitResult &result(size_t unit) const
    {
        return results_.at(unit);
    }

    /** Structured records, populated by run(). */
    const ResultSink &sink() const { return sink_; }

    /** Export the sink as JSON; no-op returning true if @p path empty. */
    bool writeJson(const std::string &path) const;

    const RunnerOptions &options() const { return opts_; }

    /** True when every declared row finished (exit-code contract). */
    bool ok() const;

    /**
     * Human-readable account of what failed; "" when ok(). Bench
     * binaries print this to stderr before exiting non-zero.
     */
    std::string failureSummary() const;

    /**
     * FNV-1a over the full declaration set; the journal refuses to
     * resume under a different signature.
     */
    uint64_t signature() const;

    /** Store-layer counters for the executed run. */
    StoreStats storeStats() const { return store_.stats(); }

    /** What the --store-gc pass pruned ({} when not requested). */
    StoreGcStats storeGcStats() const { return store_gc_stats_; }

  private:
    struct Unit {
        sim::AppId app;
        memsys::MemoryConfig mem;
        bool small;
        std::vector<sim::ModelSpec> specs;
    };

    /** Units sharing one TraceKey share one phase-1 trace. */
    using TraceKey = std::tuple<sim::AppId, memsys::MemoryConfig, bool>;
    static TraceKey keyOf(const Unit &u) { return {u.app, u.mem, u.small}; }

    /** What phase 1 resolved for one trace key. */
    struct TraceHit {
        const sim::ViewBundle *bundle = nullptr;
        std::shared_ptr<const sim::LivePointSet> lp; ///< Sampled runs only.
        sim::TraceOrigin origin = sim::TraceOrigin::GENERATED;
        sim::TraceTiming timing;
        double wall_ms = 0.0; ///< The successful attempt's getView cost.
    };

    /**
     * Phase 1 for @p units (all one trace key): the view bundle
     * (memory -> disk -> generate) plus, when @p want_points, its live
     * points. Transient faults retry with backoff(); a permanent
     * fault, exhausted retries or the watchdog record a fatal error
     * (labelled @p spec) against every unit and return false. A
     * recovered fault is noted, non-fatal, on the first unit.
     */
    bool resolveTrace(const std::vector<size_t> &units,
                      const std::string &spec, bool want_points,
                      TraceHit &hit);
    /** Stamp @p hit as unit @p u's trace provenance and journal it. */
    void adoptTrace(size_t u, const TraceHit &hit);

    void fillSink();
    void replayJournal();
    /**
     * Execute one phase-2 group of unit @p u with retry/watchdog/
     * journal. A transient fault retries the whole group (lanes of a
     * fused sweep aren't separable mid-pass); on success every row
     * journals individually, so --resume granularity is one cell no
     * matter how rows were grouped.
     */
    void runGroup(const sim::ViewBundle *bundle, size_t u,
                  const sim::ExecGroup &group,
                  const std::shared_ptr<const sim::LivePointSet> &lp);

    /**
     * The live points for (unit's trace key, the campaign's sampling
     * plan): loaded from the store's .dslp cache when a valid file
     * exists, otherwise computed with one functional-warming pass
     * over @p view and persisted for the next sweep. Memoized per
     * trace key, so the warm pass (or .dslp read) runs once per trace
     * however many cells — pooled groups or inline cells — use it.
     * Throws util::IoError on a transient store fault (the phase-1
     * retry loop handles it).
     */
    std::shared_ptr<const sim::LivePointSet>
    resolveLivePoints(const Unit &unit, const trace::TraceView &view);
    void recordError(size_t unit, UnitError err);
    void recordCampaignError(UnitError err);

    /**
     * Deterministic backoff before retry @p attempt of work item
     * @p salt: capped exponential plus a jitter hashed from the item
     * and attempt (never wall clock / randomness, so a failing
     * campaign replays identically). Sleeps; affects only wall_ms.
     */
    void backoff(const std::string &salt, unsigned attempt) const;

    std::string bench_name_;
    RunnerOptions opts_;
    TraceStore store_;
    sim::TraceCache cache_;
    std::vector<Unit> units_;
    std::vector<UnitResult> results_;
    ResultSink sink_;
    CampaignJournal journal_;
    JournalMeta journal_meta_; ///< Epoch/lease records from replay.
    StoreGcStats store_gc_stats_;
    std::vector<UnitError> campaign_errors_; ///< Not tied to a unit.
    mutable std::mutex err_mu_; ///< Guards errors/failed across jobs.
    std::map<TraceKey, std::shared_ptr<const sim::LivePointSet>>
        live_points_;
    std::mutex lp_mu_; ///< Guards live_points_ across phase-1 jobs.
};

} // namespace dsmem::runner

#endif // DSMEM_RUNNER_CAMPAIGN_H
