#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sim_context.h"
#include "ledger.h"
#include "runner/campaign.h"
#include "sim/experiment.h"
#include "svc/coordinator.h"

// ------------------------------------------------------------------
// The four benchmark workloads (README.md has the table and the
// reason for each). A workload is set up once per measurement run,
// then executed as repeated *ops* through the repository's public
// entry points; a traced *replay* re-executes an op one layer call at
// a time for the per-layer ledger.
// ------------------------------------------------------------------

namespace perfbench {

enum class Workload {
    PaperCold, ///< Paper campaign, jobs=1, empty trace store.
    PaperWarm, ///< Paper campaign, jobs=1, store filled in set-up.
    SvcWarm,   ///< Paper campaign through svc::Coordinator, warm store.
    LongTrace, ///< One LLC-spilling synthetic trace, RC DS window sweep.
};

const char *workloadName(Workload w);
bool parseWorkload(const std::string &name, Workload *out);

/** long_trace's length: a flat SoA footprint of ~360 MB, at least a
 *  300 MB last-level cache. */
inline constexpr size_t kLongTraceInstructions = 10'000'000;

/** long_trace draws its synthetic seed from 1..kLongTraceSeeds (one
 *  golden digest each). */
inline constexpr uint64_t kLongTraceSeeds = 4;

/** dsmem_svc worker processes in svc_warm. */
inline constexpr unsigned kSvcWorkers = 2;

struct BenchConfig {
    Workload workload = Workload::PaperWarm;
    uint64_t seed = 1;
    /** Work directory this run owns (stores, bundles, exports). */
    std::string work_dir;
    /** Reduced paper problem sizes (self-tests only). */
    bool small = false;
    size_t long_instructions = kLongTraceInstructions;
};

/** Declare the paper campaign: bench_figure3's, bench_figure4's and
 *  bench_latency100's units, in that order (15 units, 185 rows). */
void declarePaperCampaign(dsmem::runner::Campaign &campaign,
                          bool small);

/** One op, untraced. */
struct OpResult {
    double wall_s = 0.0;
    uint64_t peak_rss_bytes = 0; ///< Max over this process and workers.
    /** Sum over rows (or sweep lanes) of trace instructions. */
    uint64_t sim_instructions = 0;
    std::vector<UnitRows> units;
    /** Campaign-level failure text ("" when every row finished). */
    std::string error;
    bool streamed = false;        ///< Some trace stayed chunk-resident.
    uint64_t resident_bytes = 0;  ///< Trace bytes the op kept resident.
    uint64_t trace_bytes_flat = 0; ///< Flat SoA footprint of its traces.
};

/** One traced replay: spans plus the counts the layers report. */
struct Replay {
    Spans spans;
    double wall_s = 0.0;
    std::vector<UnitRows> units;

    uint64_t mp_traces = 0;
    uint64_t mp_instructions = 0;
    uint64_t written_bytes = 0;
    uint64_t decoded_instructions = 0;
    uint64_t groups = 0;
    uint64_t fused_rows = 0;
    uint64_t ds_lane_instructions = 0;
    uint64_t static_instructions = 0;
    uint64_t sim_cycles = 0;
    bool streamed = false;
    uint64_t resident_bytes = 0;

    /** svc_warm only: the coordinator's counters and what the
     *  workers reported (their load and row wall time). */
    dsmem::svc::ServiceStats svc;
    double worker_load_s = 0.0;
    double worker_row_s = 0.0;
    double worker_ds_s = 0.0;
    double worker_static_s = 0.0;
};

/**
 * One workload, bound to a work directory. Not thread-safe; the
 * benchmark drives it from one thread.
 */
class Bench
{
  public:
    explicit Bench(BenchConfig cfg);

    const BenchConfig &config() const { return cfg_; }

    /** Do the workload's whole set-up anew (repeatable); returns
     *  its wall seconds. */
    double setup();

    /** One untraced op. Peak RSS is measured from a fresh VmHWM. */
    OpResult op();

    /** One traced replay of the op; exports through the Campaign of
     *  the most recent op() (runner.export). */
    Replay replay();

    /**
     * "" when @p units carry the golden results for this config;
     * otherwise why not. Paper workloads also check paper_err_pp.
     * @p goldens may be null for configs without goldens (small
     * paper campaigns, short long traces), which only need a
     * non-empty result set.
     */
    std::string check(const std::vector<UnitRows> &units,
                      const Goldens *goldens) const;

    /** The golden key this config's digest is checked against. */
    std::string digestKey() const;

    /** Synthetic seed long_trace generates with. */
    uint64_t syntheticSeed() const;

  private:
    std::string path(const std::string &name) const;
    dsmem::svc::ServiceOptions serviceOptions() const;
    void fillStore(const std::string &dir);
    OpResult campaignOp(bool cold);
    OpResult svcOp();
    OpResult longTraceOp();
    void replayPaper(Replay &r, bool cold);
    void replaySvc(Replay &r);
    void replayLongTrace(Replay &r);
    void replayPhase2(Replay &r, const dsmem::sim::ViewBundle &vb,
                      const std::vector<dsmem::sim::ModelSpec> &specs,
                      size_t lane_cap, dsmem::core::SimContext &ctx,
                      UnitRows &out, const std::string &app);

    BenchConfig cfg_;
    /** The most recent op's campaign (replay exports through it). */
    std::unique_ptr<dsmem::runner::Campaign> last_campaign_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
