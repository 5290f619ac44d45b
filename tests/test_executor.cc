/**
 * @file
 * Equivalence and planning tests for the zero-allocation phase-2
 * executor: fused window sweeps must be bit-identical to single-cell
 * runs (cycles, breakdowns, read-delay histograms), contexts must be
 * reusable across differently-sized consecutive cells without state
 * bleed, and the campaign scheduler's plan must cover every pending
 * row exactly once under any lane cap.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/dynamic_processor.h"
#include "core/sim_context.h"
#include "core/static_processor.h"
#include "random_trace.h"
#include "runner/campaign.h"
#include "runner/runner.h"
#include "sim/app_registry.h"
#include "sim/executor.h"
#include "sim/experiment.h"
#include "sim/trace_bundle.h"
#include "trace/chunked_view.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"
#include "util/simd.h"

namespace dsmem {
namespace {

using core::ConsistencyModel;
using core::DynamicConfig;
using core::DynamicProcessor;
using core::DynamicResult;
using core::RunResult;
using core::SimContext;
using core::StaticConfig;
using core::StaticProcessor;
using sim::ExecGroup;
using sim::ModelSpec;

/** Histograms have no operator==; compare every observable. */
void
expectSameHistogram(const stats::Histogram &a, const stats::Histogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.overflowCount(), b.overflowCount());
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    for (size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i));
}

void
expectSameDynamicResult(const DynamicResult &a, const DynamicResult &b)
{
    EXPECT_EQ(static_cast<const RunResult &>(a),
              static_cast<const RunResult &>(b));
    EXPECT_EQ(a.avg_window_occupancy, b.avg_window_occupancy);
    expectSameHistogram(a.read_issue_delay, b.read_issue_delay);
}

/**
 * Every config variant the sweep must reproduce: all four models,
 * free-window, MSHR limits, shallow store buffers, SC speculation,
 * multi-issue, perfect prediction, ignored dependences, and the
 * read-delay histogram collector.
 */
std::vector<DynamicConfig>
variantConfigs()
{
    std::vector<DynamicConfig> configs;
    for (ConsistencyModel m :
         {ConsistencyModel::SC, ConsistencyModel::PC,
          ConsistencyModel::WO, ConsistencyModel::RC}) {
        DynamicConfig c;
        c.model = m;
        c.window = 64;
        configs.push_back(c);
    }
    DynamicConfig c;
    c.model = ConsistencyModel::RC;
    c.window = 32;
    c.free_window = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 128;
    c.mshrs = 2;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::PC;
    c.window = 16;
    c.store_buffer_depth = 4;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::SC;
    c.window = 64;
    c.sc_speculation = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 256;
    c.width = 4;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 64;
    c.perfect_branch_prediction = true;
    c.ignore_data_deps = true;
    configs.push_back(c);
    c = DynamicConfig{};
    c.model = ConsistencyModel::RC;
    c.window = 64;
    c.collect_read_delay = true;
    configs.push_back(c);
    return configs;
}

// --- Trace sources -------------------------------------------------

/**
 * The residencies every sweep test runs over: the flat view, and its
 * chunk-compressed form decoded inline on the sweep thread and by the
 * decode-ahead thread. One executor body serves all three, so their
 * results must be bit-identical.
 */
enum class Source { Flat, ChunkedInline, ChunkedThreaded };
constexpr Source kSources[] = {Source::Flat, Source::ChunkedInline,
                               Source::ChunkedThreaded};

std::string
sourceName(Source src)
{
    switch (src) {
      case Source::Flat:
        return "flat";
      case Source::ChunkedInline:
        return "chunked-inline";
      case Source::ChunkedThreaded:
        break;
    }
    return "chunked-threaded";
}

/**
 * A multi-chunk random trace in both resident forms: chunked sweeps
 * must cross tile boundaries mid-window, not just run inside one
 * tile.
 */
struct TwoForms {
    explicit TwoForms(uint64_t seed)
        : view(testing::randomTrace(
              seed, 2 * trace::ChunkedView::kChunkInstrs + 1234)),
          cv(view)
    {
    }

    std::vector<DynamicResult>
    sweep(Source src, const std::vector<DynamicConfig> &configs,
          SimContext &ctx,
          core::SweepMode mode = core::SweepMode::Auto) const
    {
        if (src == Source::Flat)
            return core::runDynamicSweep(view, configs, ctx, mode);
        core::StreamOptions opt;
        opt.decode_threads = src == Source::ChunkedThreaded ? 1 : 0;
        return core::runDynamicSweep(cv, configs, ctx, mode, opt);
    }

    std::vector<DynamicResult>
    single(const std::vector<DynamicConfig> &configs) const
    {
        std::vector<DynamicResult> out;
        for (const DynamicConfig &cfg : configs)
            out.push_back(DynamicProcessor(cfg).run(view));
        return out;
    }

    trace::TraceView view;
    trace::ChunkedView cv;
};

// --- Fused sweep is bit-identical to single-cell runs ---------------

/**
 * Every config variant — all four models, mixed windows, MSHR limits,
 * SC speculation, the read-delay collector — must produce the same
 * bits through a fused sweep as through single-cell runs, from every
 * trace source.
 */
TEST(Executor, FusedSweepMatchesSingleCellRuns)
{
    for (uint64_t seed : {1u, 7u, 42u, 61u}) {
        TwoForms t(seed);
        std::vector<DynamicConfig> configs = variantConfigs();
        std::vector<DynamicResult> single = t.single(configs);

        SimContext ctx;
        for (Source src : kSources) {
            for (core::SweepMode mode :
                 {core::SweepMode::Auto, core::SweepMode::PerLaneTiled}) {
                std::vector<DynamicResult> fused =
                    t.sweep(src, configs, ctx, mode);
                ASSERT_EQ(fused.size(), single.size());
                for (size_t i = 0; i < fused.size(); ++i) {
                    SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                                 sourceName(src) + " mode " +
                                 std::to_string(int(mode)) +
                                 " config " + std::to_string(i));
                    expectSameDynamicResult(fused[i], single[i]);
                }
            }
        }
    }
}

// --- Context reuse across differently-sized cells -------------------

TEST(Executor, ContextReuseHasNoStateBleed)
{
    trace::TraceView view(testing::randomTrace(99, 5000));

    // Deliberately shrink and regrow between cells: big DS window,
    // tiny DS window, static cells, then big again. Each run through
    // the shared context must match a fresh-context run.
    std::vector<DynamicConfig> ds_cells;
    for (uint32_t w : {256u, 16u, 64u, 256u, 32u}) {
        DynamicConfig c;
        c.model = ConsistencyModel::RC;
        c.window = w;
        c.collect_read_delay = (w == 64);
        ds_cells.push_back(c);
    }

    SimContext shared;
    for (size_t i = 0; i < ds_cells.size(); ++i) {
        SCOPED_TRACE("ds cell " + std::to_string(i));
        DynamicResult reused =
            DynamicProcessor(ds_cells[i]).run(view, shared);
        DynamicResult fresh = DynamicProcessor(ds_cells[i]).run(view);
        expectSameDynamicResult(reused, fresh);

        // Interleave a static cell through the same context.
        StaticConfig sc;
        sc.model = ConsistencyModel::PC;
        sc.nonblocking_reads = (i % 2) == 0;
        StaticProcessor sp(sc);
        EXPECT_EQ(sp.run(view, shared), sp.run(view));
    }

    // A fused sweep through the already-used context also matches.
    std::vector<DynamicResult> fused =
        core::runDynamicSweep(view, ds_cells, shared);
    for (size_t i = 0; i < ds_cells.size(); ++i) {
        SCOPED_TRACE("fused cell " + std::to_string(i));
        expectSameDynamicResult(fused[i],
                                DynamicProcessor(ds_cells[i]).run(view));
    }
}

TEST(Executor, RunModelWithSharedContextMatchesFresh)
{
    trace::TraceView view(testing::randomTrace(5, 3000));
    std::vector<ModelSpec> specs = sim::figure3Columns();

    SimContext shared;
    for (const ModelSpec &spec : specs) {
        SCOPED_TRACE(spec.label());
        SimContext fresh;
        EXPECT_EQ(sim::runModel(view, spec, shared),
                  sim::runModel(view, spec, fresh));
    }
}

// --- Planner properties ---------------------------------------------

std::vector<ModelSpec>
combinedSpecs()
{
    std::vector<ModelSpec> specs = sim::figure3Columns();
    std::vector<ModelSpec> f4 = sim::figure4Columns();
    specs.insert(specs.end(), f4.begin(), f4.end());
    return specs;
}

/** Each pending row appears in exactly one group. */
void
expectExactCover(const std::vector<ExecGroup> &groups,
                 const std::vector<ModelSpec> &specs,
                 const std::vector<uint8_t> &done)
{
    std::set<size_t> seen;
    for (const ExecGroup &g : groups) {
        EXPECT_FALSE(g.rows.empty());
        for (size_t s : g.rows) {
            EXPECT_LT(s, specs.size());
            EXPECT_TRUE(seen.insert(s).second) << "row " << s << " twice";
        }
    }
    for (size_t s = 0; s < specs.size(); ++s) {
        bool pending = s >= done.size() || !done[s];
        EXPECT_EQ(seen.count(s), pending ? 1u : 0u) << "row " << s;
    }
}

TEST(Executor, PlanCoversPendingRowsExactlyOnce)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    for (size_t cap : {0u, 1u, 2u, 3u, 5u, 100u}) {
        SCOPED_TRACE("lane cap " + std::to_string(cap));
        std::vector<uint8_t> done(specs.size(), 0);
        expectExactCover(sim::planPhase2(specs, done, cap), specs, done);

        // Mark an arbitrary subset done; the plan must skip them.
        for (size_t s = 0; s < specs.size(); s += 3)
            done[s] = 1;
        expectExactCover(sim::planPhase2(specs, done, cap), specs, done);
    }
}

TEST(Executor, PlanRespectsLaneCapAndFusesOnlyDynamicRows)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (size_t cap : {0u, 1u, 2u, 3u, 4u}) {
        for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
            if (cap != 0) {
                EXPECT_LE(g.rows.size(), cap);
            }
            EXPECT_EQ(g.fused, g.rows.size() > 1);
            if (g.rows.size() > 1) {
                for (size_t s : g.rows)
                    EXPECT_EQ(specs[s].kind, ModelSpec::Kind::DS);
            }
            if (cap == 1) {
                EXPECT_FALSE(g.fused);
            }
        }
    }
}

TEST(Executor, PlanOrdersGroupsLongestFirst)
{
    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    std::vector<ExecGroup> groups = sim::planPhase2(specs, done, 0);
    for (size_t i = 1; i < groups.size(); ++i)
        EXPECT_GE(groups[i - 1].cost, groups[i].cost);
}

TEST(Executor, AdaptiveLaneCap)
{
    // A lone worker fuses without limit; parallel runs split sweeps
    // so every worker stays busy (at least two groups per worker).
    EXPECT_EQ(sim::adaptiveLaneCap(17, 0), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(17, 1), 0u);
    EXPECT_EQ(sim::adaptiveLaneCap(40, 4), 5u);
    EXPECT_EQ(sim::adaptiveLaneCap(17, 4), 3u);
    EXPECT_EQ(sim::adaptiveLaneCap(1, 8), 2u);  // Floor: never cap at 1.
    EXPECT_EQ(sim::adaptiveLaneCap(0, 8), 2u);
}

// --- runGroup delegates to the same paths ---------------------------

/** A flat bundle and its chunk-resident twin over one trace. */
struct BundlePair {
    explicit BundlePair(uint64_t seed)
    {
        trace::Trace raw = testing::randomTrace(
            seed, 2 * trace::ChunkedView::kChunkInstrs + 555);
        flat.view = trace::TraceView::build(raw);
        flat.stats = trace::computeStats(raw);
        flat.verified = true;
        chunked = flat;
        chunked.view.reset();
        chunked.chunked =
            std::make_shared<trace::ChunkedView>(*flat.view);
    }

    sim::ViewBundle flat;
    sim::ViewBundle chunked;
};

/**
 * runGroup must reproduce per-row runModel for every planned group,
 * from a flat bundle and from a chunk-resident one: fused DS sweeps
 * and DS singletons sweep the resident form, non-DS rows (which need
 * first_use random access) run against the memoized flatten.
 */
TEST(Executor, RunGroupMatchesPerRowRunModel)
{
    BundlePair b(79);
    EXPECT_LT(b.chunked.traceBytesResident(),
              b.flat.traceBytesResident() / 2);

    std::vector<ModelSpec> specs = combinedSpecs();
    std::vector<uint8_t> done(specs.size(), 0);
    for (const sim::ViewBundle *vb : {&b.flat, &b.chunked}) {
        const std::string form = vb->chunked ? "chunked" : "flat";
        for (size_t cap : {size_t{0}, size_t{1}, size_t{3}}) {
            SimContext ctx;
            for (const ExecGroup &g : sim::planPhase2(specs, done, cap)) {
                std::vector<RunResult> rows =
                    sim::runGroup(*vb, specs, g, ctx);
                ASSERT_EQ(rows.size(), g.rows.size());
                for (size_t i = 0; i < g.rows.size(); ++i) {
                    SCOPED_TRACE(form + " cap " + std::to_string(cap) +
                                 " " + specs[g.rows[i]].label());
                    SimContext fresh;
                    EXPECT_EQ(rows[i], sim::runModel(*b.flat.view,
                                                     specs[g.rows[i]],
                                                     fresh));
                }
            }
        }
    }
}

/** Once a chunked bundle's flat view is memoized, both forms are
 *  resident and the residency report counts both. */
TEST(Executor, ChunkedBundleCountsMemoizedFlatView)
{
    BundlePair b(83);
    const size_t flat_bytes = b.flat.traceBytesResident();
    const size_t compressed = b.chunked.traceBytesResident();
    EXPECT_LT(compressed, flat_bytes);
    ASSERT_NE(b.chunked.flatView(), nullptr);
    EXPECT_GE(b.chunked.traceBytesResident(), flat_bytes);
    EXPECT_EQ(b.chunked.traceBytesResident(), flat_bytes + compressed);
    EXPECT_EQ(b.flat.traceBytesResident(), flat_bytes);
}

// --- End to end: campaign results are fuse-invariant ----------------

TEST(Executor, CampaignFusedMatchesUnfused)
{
    runner::RunnerOptions fused_opts;
    fused_opts.jobs = 2;
    fused_opts.trace_dir.clear(); // No persistent store in tests.
    runner::RunnerOptions unfused_opts = fused_opts;
    unfused_opts.fuse_sweeps = false;

    runner::Campaign fused("executor_eq", fused_opts);
    runner::Campaign unfused("executor_eq", unfused_opts);
    for (runner::Campaign *c : {&fused, &unfused})
        c->add(sim::AppId::LU, combinedSpecs(), memsys::MemoryConfig{},
               /*small=*/true);
    fused.run();
    unfused.run();
    ASSERT_TRUE(fused.ok());
    ASSERT_TRUE(unfused.ok());

    const runner::UnitResult &a = fused.result(0);
    const runner::UnitResult &b = unfused.result(0);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t s = 0; s < a.rows.size(); ++s) {
        SCOPED_TRACE(a.rows[s].label);
        EXPECT_EQ(a.rows[s].label, b.rows[s].label);
        EXPECT_EQ(a.rows[s].result, b.rows[s].result);
    }
}

// --- Struct-of-lanes executor ---------------------------------------

/** A window-sweep family the SoL path accepts: one model/width, @p k
 *  ascending windows (deliberately not multiples of the batch). */
std::vector<DynamicConfig>
solFamily(size_t k, ConsistencyModel m, uint32_t width)
{
    std::vector<DynamicConfig> configs;
    uint32_t w = width >= 4 ? 16 : 8;
    for (size_t j = 0; j < k; ++j) {
        DynamicConfig c;
        c.model = m;
        c.window = w;
        c.width = width;
        configs.push_back(c);
        w = w * 2 > 256 ? w + 24 : w * 2;
    }
    return configs;
}

/** The executors a test sweeps through: each SweepMode, plus SoL
 *  with the scalar batch forced at run time. */
enum class Exec { SoL, SoLForcedScalar, PerLaneTiled, Auto };
constexpr Exec kExecs[] = {Exec::SoL, Exec::SoLForcedScalar,
                           Exec::PerLaneTiled, Exec::Auto};

std::vector<DynamicResult>
sweepWith(const TwoForms &t, Source src, Exec exec,
          const std::vector<DynamicConfig> &configs, SimContext &ctx)
{
    switch (exec) {
      case Exec::SoL:
        return t.sweep(src, configs, ctx, core::SweepMode::SoL);
      case Exec::SoLForcedScalar: {
        const bool was_forced = util::simd::forceScalar();
        util::simd::setForceScalar(true);
        std::vector<DynamicResult> out =
            t.sweep(src, configs, ctx, core::SweepMode::SoL);
        util::simd::setForceScalar(was_forced);
        return out;
      }
      case Exec::PerLaneTiled:
        return t.sweep(src, configs, ctx,
                       core::SweepMode::PerLaneTiled);
      case Exec::Auto:
        break;
    }
    return t.sweep(src, configs, ctx, core::SweepMode::Auto);
}

/**
 * Every SoL mode must be bit-identical to per-cell runs, for every
 * lane-count tail against the 4-wide batch (k = 1..5, 8), both
 * narrow and multi-issue widths, models with and without active
 * consistency gates, and every trace source. The random trace
 * carries sync ops (per-lane fallback), branch mispredict squashes,
 * store forwarding, and read misses mid-block.
 */
TEST(Executor, SolSweepAllModesMatchPerCellRuns)
{
    TwoForms t(21);
    for (ConsistencyModel m :
         {ConsistencyModel::SC, ConsistencyModel::RC}) {
        for (uint32_t width : {1u, 4u}) {
            for (size_t k : {size_t{1}, size_t{2}, size_t{3},
                             size_t{4}, size_t{5}, size_t{8}}) {
                std::vector<DynamicConfig> configs =
                    solFamily(k, m, width);
                ASSERT_TRUE(core::solSweepSupported(configs));
                std::vector<DynamicResult> single = t.single(configs);

                SimContext ctx;
                for (Source src : kSources) {
                    for (Exec exec : kExecs) {
                        std::vector<DynamicResult> swept =
                            sweepWith(t, src, exec, configs, ctx);
                        ASSERT_EQ(swept.size(), single.size());
                        for (size_t i = 0; i < swept.size(); ++i) {
                            SCOPED_TRACE(
                                "model " + std::to_string(int(m)) +
                                " width " + std::to_string(width) +
                                " k " + std::to_string(k) + " " +
                                sourceName(src) + " exec " +
                                std::to_string(int(exec)) + " lane " +
                                std::to_string(i));
                            expectSameDynamicResult(swept[i],
                                                    single[i]);
                        }
                    }
                }
            }
        }
    }
}

TEST(Executor, SolSweepSupportGate)
{
    // The mixed variant set (free_window, MSHRs, SC speculation,
    // differing widths/models) is not lockstep-runnable, from any
    // source...
    std::vector<DynamicConfig> mixed = variantConfigs();
    EXPECT_FALSE(core::solSweepSupported(mixed));
    TwoForms t(3);
    SimContext ctx;
    for (Source src : kSources) {
        SCOPED_TRACE(sourceName(src));
        EXPECT_THROW(t.sweep(src, mixed, ctx, core::SweepMode::SoL),
                     std::invalid_argument);
    }
    // ...but a window/store-buffer-only family is, even with uniform
    // non-default knobs.
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::PC, 4);
    fam[1].store_buffer_depth = 4;
    for (DynamicConfig &c : fam) {
        c.perfect_branch_prediction = true;
        c.ignore_data_deps = true;
    }
    EXPECT_TRUE(core::solSweepSupported(fam));
    std::vector<DynamicResult> single = t.single(fam);
    for (Source src : kSources) {
        std::vector<DynamicResult> swept =
            t.sweep(src, fam, ctx, core::SweepMode::SoL);
        for (size_t i = 0; i < fam.size(); ++i) {
            SCOPED_TRACE(sourceName(src) + " lane " +
                         std::to_string(i));
            expectSameDynamicResult(swept[i], single[i]);
        }
    }
}

/** One context must serve SoL, forced-scalar SoL, tiled, and
 *  single-cell runs back to back, from flat and chunked sources
 *  interleaved, with no state bleed. */
TEST(Executor, SolContextReuseAcrossModes)
{
    TwoForms t(17);
    std::vector<DynamicConfig> fam =
        solFamily(4, ConsistencyModel::RC, 1);
    std::vector<DynamicResult> single = t.single(fam);

    SimContext shared;
    for (Exec exec : {Exec::SoL, Exec::PerLaneTiled,
                      Exec::SoLForcedScalar, Exec::SoL, Exec::Auto}) {
        for (Source src : kSources) {
            std::vector<DynamicResult> swept =
                sweepWith(t, src, exec, fam, shared);
            for (size_t i = 0; i < fam.size(); ++i) {
                SCOPED_TRACE("exec " + std::to_string(int(exec)) + " " +
                             sourceName(src) + " lane " +
                             std::to_string(i));
                expectSameDynamicResult(swept[i], single[i]);
            }
            // Interleave a single-cell run through lane 0.
            expectSameDynamicResult(
                DynamicProcessor(fam[2]).run(t.view, shared),
                single[2]);
        }
    }
}

/** The runtime forced-scalar switch reroutes Auto from every source;
 *  results do not change. */
TEST(Executor, SolForcedScalarRuntimeSwitch)
{
    TwoForms t(29);
    std::vector<DynamicConfig> fam =
        solFamily(3, ConsistencyModel::SC, 1);
    SimContext ctx;
    for (Source src : kSources) {
        SCOPED_TRACE(sourceName(src));
        std::vector<DynamicResult> simd = t.sweep(src, fam, ctx);
        util::simd::setForceScalar(true);
        std::vector<DynamicResult> scalar = t.sweep(src, fam, ctx);
        util::simd::setForceScalar(false);
        ASSERT_EQ(simd.size(), scalar.size());
        for (size_t i = 0; i < simd.size(); ++i)
            expectSameDynamicResult(simd[i], scalar[i]);
    }
}

// --- SimContext rebind avoids re-zeroing warm rings -----------------

TEST(Executor, RingRebindSkipsZeroFill)
{
    trace::TraceView view(testing::randomTrace(13, 1000));
    DynamicConfig c;
    c.model = ConsistencyModel::RC;
    c.window = 256; // sb_depth defaults to the window
    SimContext ctx;

    DynamicProcessor p(c);
    DynamicResult first = p.run(view, ctx);
    uint64_t after_first = ctx.lane(0).rebind_bytes_skipped;

    DynamicResult second = p.run(view, ctx);
    uint64_t after_second = ctx.lane(0).rebind_bytes_skipped;

    // A warm rebind skips the whole assign(n, 0) the old scheme
    // performed: completion + retire rings (window each), decode ring
    // (width), store-buffer ring (window), MSHR ring (1 slot).
    const uint64_t warm_bytes =
        (uint64_t{c.window} * 3 + c.width + 1) * sizeof(uint64_t);
    EXPECT_EQ(after_second - after_first, warm_bytes);
    expectSameDynamicResult(second, first);

    // Shrinking then regrowing stays allocation- and zero-fill-free
    // once the high-water size is reached (grow-only rings).
    c.window = 16;
    DynamicProcessor(c).run(view, ctx);
    c.window = 256;
    DynamicProcessor(c).run(view, ctx);
    EXPECT_EQ(ctx.lane(0).rebind_bytes_skipped,
              after_second + (16ull * 3 + 1 + 1) * sizeof(uint64_t) +
                  warm_bytes);
}

} // namespace
} // namespace dsmem
