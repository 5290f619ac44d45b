/**
 * @file
 * Phase-1 throughput: generation instructions/second of the fast
 * engine against the retained legacy (seed) engine, and bundle load
 * throughput of the v1 and v2 containers (AoS decode and the v2
 * direct-to-view path) from real files. Before timing, the fast
 * engine's trace is checked bit-identical to the legacy engine's, and
 * every load path's trace is checked bit-identical to the engine
 * output — a reported speedup can never come from a divergence.
 *
 * Every measurement is best-of-N with the variants interleaved per
 * round, so background-load noise hits all of them alike instead of
 * biasing whichever ran last. A load round repeats its load for at
 * least 10 ms (see BestOf), so the small bundle's sub-millisecond
 * loads are not timed one call at a time.
 *
 * Results go to stdout as a table and to BENCH_phase1.json (override
 * with --json). Defaults to --small; pass --full for the paper-scaled
 * trace (the committed baseline).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.h"
#include "bench_args.h"
#include "mp/engine.h"
#include "runner/trace_store.h"
#include "sim/app_registry.h"
#include "sim/trace_bundle.h"
#include "stats/table.h"
#include "trace/trace_stats.h"
#include "trace/trace_view.h"

using namespace dsmem;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
jsonDouble(double v)
{
    std::ostringstream os;
    os.precision(6);
    os << std::fixed << v;
    return os.str();
}

/**
 * One phase-1 run. Only engine construction and the multiprocessor
 * simulation count toward *gen_seconds — bundle assembly (verify,
 * trace stats) is phase-agnostic packaging, identical in both engine
 * modes, and would only dilute the ratio being measured.
 */
sim::TraceBundle
generate(bool legacy, bool small, uint64_t *total_instr,
         double *gen_seconds)
{
    std::unique_ptr<apps::Application> app =
        sim::makeApp(sim::AppId::LU, small);

    Clock::time_point t0 = Clock::now();
    mp::EngineConfig config;
    config.legacy_engine = legacy;
    mp::Engine engine(config);
    apps::runApplication(engine, *app);
    *gen_seconds = secondsSince(t0);

    uint64_t total = 0;
    for (uint32_t p = 0; p < config.num_procs; ++p)
        total += engine.threadStats(p).instructions;
    *total_instr = total;

    sim::TraceBundle bundle;
    bundle.verified = app->verify(engine);
    bundle.cache0 = engine.memory().stats(config.traced_proc);
    bundle.thread0 = engine.threadStats(config.traced_proc);
    bundle.mp_cycles = engine.completionCycle(config.traced_proc);
    bundle.trace = engine.takeTrace();
    bundle.stats = trace::computeStats(bundle.trace);
    return bundle;
}

/**
 * Timing-loop body: engine construction + the simulation, nothing
 * else. Keeping bundle packaging out of the loop matters beyond the
 * timed window too — assembling and freeing a multi-megabyte bundle
 * between reps perturbs the allocator state the next engine run
 * inherits, which measurably distorts both modes.
 */
double
timeGeneration(bool legacy, bool small)
{
    std::unique_ptr<apps::Application> app =
        sim::makeApp(sim::AppId::LU, small);
    mp::EngineConfig config;
    config.legacy_engine = legacy;
    mp::Engine engine(config);
    Clock::time_point t0 = Clock::now();
    apps::runApplication(engine, *app);
    return secondsSince(t0);
}

size_t
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &save)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    save(os);
    os.flush();
    return static_cast<size_t>(os.tellp());
}

/**
 * Best per-call wall-clock seconds of @p fn over the recorded rounds.
 * A round calls @p fn until it has run for kMinRoundS and keeps the
 * mean, so a sub-millisecond load (the small bundle) is timed over
 * many calls and one preempted call cannot decide a round.
 */
struct BestOf {
    static constexpr double kMinRoundS = 0.010;
    double best = 1e100;

    void round(const std::function<void()> &fn)
    {
        Clock::time_point t0 = Clock::now();
        int calls = 0;
        double secs = 0.0;
        do {
            fn();
            ++calls;
            secs = secondsSince(t0);
        } while (secs < kMinRoundS);
        best = std::min(best, secs / calls);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::parseBenchArgs(argc, argv, /*default_small=*/true);
    if (args.json_path.empty())
        args.json_path = "BENCH_phase1.json";

    // The bit-identity checks below double as the untimed warmup;
    // every timing loop is best-of-reps, interleaved.
    const int reps = static_cast<int>(
        args.resolvedRepeat(args.small ? 20 : 8));
    int failures = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "MISMATCH: %s\n", what);
            ++failures;
        }
    };

    // ------------------------------------------------------------------
    // Generation: legacy (seed) engine vs fast engine, bit-identity
    // first, then interleaved best-of timing.
    // ------------------------------------------------------------------
    uint64_t total_instr = 0;
    double secs = 0.0;
    sim::TraceBundle legacy_bundle =
        generate(/*legacy=*/true, args.small, &total_instr, &secs);
    uint64_t fast_instr = 0;
    sim::TraceBundle bundle =
        generate(/*legacy=*/false, args.small, &fast_instr, &secs);
    check(legacy_bundle.trace == bundle.trace &&
              legacy_bundle.mp_cycles == bundle.mp_cycles &&
              total_instr == fast_instr,
          "fast engine output != legacy engine output");

    double legacy_best = 1e100, fast_best = 1e100;
    for (int r = 0; r < reps; ++r) {
        legacy_best =
            std::min(legacy_best, timeGeneration(true, args.small));
        fast_best =
            std::min(fast_best, timeGeneration(false, args.small));
    }
    double legacy_ips = static_cast<double>(total_instr) / legacy_best;
    double fast_ips = static_cast<double>(total_instr) / fast_best;

    // ------------------------------------------------------------------
    // Bundle I/O: serialize both container versions to real files,
    // check every load path against the engine trace, then time the
    // loads interleaved.
    // ------------------------------------------------------------------
    const std::string v1_path = "bench_phase1_v1.dsmb.tmp";
    const std::string v2_path = "bench_phase1_v2.dsmb.tmp";
    size_t v1_bytes = writeFile(
        v1_path, [&](std::ostream &os) { runner::saveBundleV1(bundle, os); });
    size_t v2_bytes = writeFile(
        v2_path, [&](std::ostream &os) { runner::saveBundle(bundle, os); });

    const size_t n = bundle.trace.size();
    auto load_aos = [&](const std::string &path) {
        std::ifstream is(path, std::ios::binary);
        sim::TraceBundle b = runner::loadBundle(is);
        if (b.trace.size() != n)
            throw std::runtime_error("bundle load dropped records");
        return b;
    };
    auto load_view = [&](const std::string &path) {
        std::ifstream is(path, std::ios::binary);
        sim::ViewBundle vb = runner::loadBundleView(is);
        if (vb.view->size() != n)
            throw std::runtime_error("bundle load dropped records");
        return vb;
    };

    {
        sim::TraceBundle v1b = load_aos(v1_path);
        sim::TraceBundle v2b = load_aos(v2_path);
        sim::ViewBundle v2v = load_view(v2_path);
        check(v1b.trace == bundle.trace,
              "v1 AoS load != engine trace");
        check(v2b.trace == bundle.trace,
              "v2 AoS load != engine trace");
        bool view_ok = v2v.view->size() == n &&
            v2v.mp_cycles == bundle.mp_cycles;
        for (size_t i = 0; view_ok && i < n; ++i)
            view_ok = v2v.view->materialize(i) == bundle.trace[i];
        check(view_ok, "v2 direct-to-view load != engine trace");
    }

    BestOf v1_aos, v2_aos, v2_view;
    for (int r = 0; r < reps; ++r) {
        v1_aos.round([&] { load_aos(v1_path); });
        v2_aos.round([&] { load_aos(v2_path); });
        v2_view.round([&] { load_view(v2_path); });
    }
    std::remove(v1_path.c_str());
    std::remove(v2_path.c_str());

    double v1_aos_ips = static_cast<double>(n) / v1_aos.best;
    double v2_aos_ips = static_cast<double>(n) / v2_aos.best;
    double v2_view_ips = static_cast<double>(n) / v2_view.best;

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    stats::Table table({"measurement", "Minstr/s", "vs baseline"});
    table.addRow({"generate (legacy engine)",
                  stats::Table::fixed(legacy_ips / 1e6, 2), "1.00"});
    table.addRow({"generate (fast engine)",
                  stats::Table::fixed(fast_ips / 1e6, 2),
                  stats::Table::fixed(fast_ips / legacy_ips, 2)});
    table.addRow({"load v1 AoS",
                  stats::Table::fixed(v1_aos_ips / 1e6, 2), "1.00"});
    table.addRow({"load v2 AoS",
                  stats::Table::fixed(v2_aos_ips / 1e6, 2),
                  stats::Table::fixed(v2_aos_ips / v1_aos_ips, 2)});
    table.addRow({"load v2 direct-to-view",
                  stats::Table::fixed(v2_view_ips / 1e6, 2),
                  stats::Table::fixed(v2_view_ips / v1_aos_ips, 2)});
    std::printf("phase-1 throughput — %s LU, %llu instructions "
                "generated (trace %zu records), best of %d\n%s",
                args.small ? "small" : "full",
                static_cast<unsigned long long>(total_instr), n, reps,
                table.toString().c_str());
    std::printf("bundle bytes: v1 %zu, v2 %zu (%.2fx smaller)\n",
                v1_bytes, v2_bytes,
                static_cast<double>(v1_bytes) /
                    static_cast<double>(v2_bytes));
    std::printf("headline: generation %.2fx, v2-view load %.2fx "
                "vs v1-AoS\n",
                fast_ips / legacy_ips, v2_view_ips / v1_aos_ips);

    std::ofstream out(args.json_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     args.json_path.c_str());
        return 1;
    }
    out << "{\n  \"schema_version\": 1,\n"
        << "  \"bench\": \"bench_phase1\",\n"
        << "  \"app\": \"LU\",\n"
        << "  \"small\": " << (args.small ? "true" : "false") << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"gen\": {\"instructions\": " << total_instr
        << ", \"legacy_instr_per_sec\": " << jsonDouble(legacy_ips)
        << ", \"fast_instr_per_sec\": " << jsonDouble(fast_ips)
        << ", \"speedup\": " << jsonDouble(fast_ips / legacy_ips)
        << "},\n"
        << "  \"bundle\": {\"trace_records\": " << n
        << ", \"v1_bytes\": " << v1_bytes
        << ", \"v2_bytes\": " << v2_bytes
        << ", \"size_ratio\": "
        << jsonDouble(static_cast<double>(v1_bytes) /
                      static_cast<double>(v2_bytes))
        << ",\n             \"v1_aos_instr_per_sec\": "
        << jsonDouble(v1_aos_ips)
        << ", \"v2_aos_instr_per_sec\": " << jsonDouble(v2_aos_ips)
        << ", \"v2_view_instr_per_sec\": " << jsonDouble(v2_view_ips)
        << ",\n             \"load_speedup_view_vs_v1\": "
        << jsonDouble(v2_view_ips / v1_aos_ips) << "}\n"
        << "}\n";

    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    return 0;
}
