/**
 * @file
 * dsmem_perfbench: one measurement run of one benchmark workload.
 *
 *   dsmem_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --work DIR --golden FILE
 *   dsmem_perfbench --list-metrics 0|1
 *
 * --trace 0 sets the workload up several times (setup_s is their
 * median), then runs untraced ops for S seconds and reports the
 * end-to-end metrics. --trace 1 sets up once, then alternates
 * untraced ops with traced replays for S seconds and reports the
 * per-layer ledger. Every op and replay is digest-checked against
 * the goldens. A human-readable report comes first; the last line of
 * stdout is the JSON result. perfbench/run.py builds this binary and
 * is the benchmark's entry point; README.md documents the metrics.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Set-ups per --trace 0 run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/**
 * The report's bound on |runner.unattributed_s| as a share of
 * campaign_s: the campaign_s bound of BENCHMARK.json, because the
 * untraced ops and the replays run seconds apart on a host whose
 * speed drifts by that much (README.md, "Noise"). A layer missing
 * from the ledger shows instead as spans covering clearly less than
 * the replay's own wall.
 */
constexpr double kUnattributedBound = 0.25;

constexpr double kMB = 1e6;

/** One reported metric. Its name and unit are those BENCHMARK.json
 *  declares (run.py and the self-tests check them). */
struct Metric {
    const char *name;
    const char *unit;
    double value;
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string work;
    std::string golden;
    int list_metrics = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dsmem_perfbench: %s\n"
                 "usage: dsmem_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR --golden FILE\n"
                 "       dsmem_perfbench --list-metrics 0|1\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::strtoull(v, &end, 10);
        else if (flag == "--seconds")
            a.seconds = std::strtod(v, &end);
        else if (flag == "--trace")
            a.trace = static_cast<int>(std::strtol(v, &end, 10));
        else if (flag == "--work")
            a.work = v;
        else if (flag == "--golden")
            a.golden = v;
        else if (flag == "--list-metrics")
            a.list_metrics = static_cast<int>(std::strtol(v, &end, 10));
        else
            usage(("unknown flag " + flag).c_str());
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    return a;
}

/** One JSON number, all digits kept; non-finite values become 0. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/** The per-layer metrics of one replay; @p campaign_s is the untraced
 *  ops' median. */
std::vector<Metric>
layerValues(const Replay &r, Workload w, double campaign_s)
{
    const Spans &sp = r.spans;
    const bool svc = w == Workload::SvcWarm;
    const double gen = sp.seconds("mp.generate");
    const double decode =
        svc ? r.worker_load_s : sp.seconds("trace.decode");
    const double load = svc ? r.worker_load_s
        : w == Workload::PaperCold
        ? 0.0
        : sp.seconds("runner.store_read") + sp.seconds("trace.decode");
    const double ds_s = svc ? r.worker_ds_s : sp.seconds("core.phase2.ds");
    const double static_s =
        svc ? r.worker_static_s : sp.seconds("core.phase2.static");
    const double worker_busy = r.worker_row_s + r.worker_load_s;
    const double svc_run = sp.seconds("svc.run");
    return {
        {"mp.generate_s", "s", gen},
        {"mp.trace_minstr_per_s", "Minstr/s", ratio(r.mp_instructions / 1e6, gen)},
        {"mp.traces", "count", static_cast<double>(r.mp_traces)},
        {"runner.store_write_s", "s", sp.seconds("runner.store_write")},
        {"runner.store_written_mb", "MB", r.written_bytes / kMB},
        {"runner.store_load_s", "s", load},
        {"runner.export_s", "s", sp.seconds("runner.export")},
        {"runner.unattributed_s", "s", campaign_s - sp.total()},
        {"trace.decode_minstr_per_s", "Minstr/s",
         ratio(r.decoded_instructions / 1e6, decode)},
        {"trace.resident_mb", "MB", r.resident_bytes / kMB},
        {"trace.streamed", "flag", r.streamed ? 1.0 : 0.0},
        {"sim.groups", "count", static_cast<double>(r.groups)},
        {"sim.fused_rows", "count", static_cast<double>(r.fused_rows)},
        {"core.phase2_s", "s", ds_s + static_s},
        {"core.ds_lane_minstr_per_s", "Minstr/s",
         ratio(r.ds_lane_instructions / 1e6, ds_s)},
        {"core.static_minstr_per_s", "Minstr/s",
         ratio(r.static_instructions / 1e6, static_s)},
        {"core.sim_cycles", "count", static_cast<double>(r.sim_cycles)},
        {"svc.dispatched", "count", static_cast<double>(r.svc.dispatched)},
        {"svc.redispatched", "count", static_cast<double>(r.svc.redispatched)},
        {"svc.duplicates", "count", static_cast<double>(r.svc.duplicates)},
        {"svc.worker_deaths", "count", static_cast<double>(r.svc.worker_deaths)},
        {"svc.worker_busy_frac", "ratio", ratio(worker_busy, kSvcWorkers * svc_run)},
        {"svc.dispatch_overhead_s", "s",
         svc ? svc_run - worker_busy / kSvcWorkers : 0.0},
        {"svc.worker_peak_rss_mb", "MB", r.svc.peak_rss_bytes / kMB},
        {"bench.tracing_overhead_pct", "%",
         100.0 * ratio(r.wall_s - campaign_s, campaign_s)},
    };
}

struct Run {
    int ops = 0;
    int attempted = 0;
    int failed = 0;
    std::vector<double> walls;
    std::vector<double> rates;
    std::vector<double> rss;
    bool streamed = false;
    uint64_t resident_bytes = 0;
    uint64_t flat_bytes = 0;
    std::array<double, 3> paper_hidden{};
    double paper_err = NAN;
};

/** The end-to-end metrics of a --trace 0 run. long_trace has no
 *  paper reference, so it reports no paper_err_pp. */
std::vector<Metric>
endToEnd(const std::vector<double> &setups, const Run &run,
         Workload w)
{
    std::vector<Metric> m = {
        {"setup_s", "s", median(setups)},
        {"campaign_s", "s", median(run.walls)},
        {"sim_minstr_per_s", "Minstr/s", median(run.rates)},
        // The highest op peak, not the median: svc_warm's worker peak
        // depends on which cells each worker drew, and flips between
        // modes 20% apart from op to op.
        {"peak_rss_mb", "MB",
         run.rss.empty() ? 0.0
                         : *std::max_element(run.rss.begin(),
                                             run.rss.end())},
    };
    if (w != Workload::LongTrace)
        m.push_back({"paper_err_pp", "pp", run.paper_err});
    return m;
}

/** Run one untraced op, check it, and record it in @p run. */
void
timedOp(Bench &bench, const Goldens &goldens, Run &run)
{
    ++run.attempted;
    ++run.ops;
    std::string why;
    try {
        const double cpu0 = cpuSeconds();
        OpResult op = bench.op();
        const double cpu = cpuSeconds() - cpu0;
        why = op.error.empty() ? bench.check(op.units, &goldens)
                               : op.error;
        run.walls.push_back(op.wall_s);
        run.rates.push_back(
            ratio(op.sim_instructions / 1e6, op.wall_s));
        run.rss.push_back(op.peak_rss_bytes / kMB);
        run.streamed = op.streamed;
        run.resident_bytes = op.resident_bytes;
        run.flat_bytes = op.trace_bytes_flat;
        if (why.empty() &&
            bench.config().workload != Workload::LongTrace) {
            run.paper_hidden = paperHiddenPct(op.units);
            run.paper_err = paperErrPp(run.paper_hidden);
        }
        std::printf("op %d: %.4f s  cpu %.4f s  %.1f Minstr/s  "
                    "peak %.1f MB  digest %s  %s\n",
                    run.ops, op.wall_s, cpu, run.rates.back(),
                    run.rss.back(),
                    hex64(digestRows(op.units)).c_str(),
                    why.empty() ? "ok" : why.c_str());
    } catch (const std::exception &e) {
        why = e.what();
        std::printf("op %d: FAILED: %s\n", run.ops, e.what());
    }
    if (!why.empty())
        ++run.failed;
}

int
runBench(const Args &args, Workload workload)
{
    const Goldens goldens = Goldens::load(args.golden);
    BenchConfig cfg;
    cfg.workload = workload;
    cfg.seed = args.seed;
    cfg.work_dir = args.work;
    Bench bench(cfg);

    const Host host = probeHost();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                workloadName(workload),
                static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace);
    std::printf("host: cpu=\"%s\" nproc=%u l2_bytes=%llu "
                "l3_bytes=%llu simd_isa=%s stream_policy=%s "
                "stream_threshold_bytes=%llu\n",
                host.cpu.c_str(), host.nproc,
                static_cast<unsigned long long>(host.l2_bytes),
                static_cast<unsigned long long>(host.l3_bytes),
                host.simd_isa.c_str(), host.stream_policy.c_str(),
                static_cast<unsigned long long>(host.stream_threshold));
    if (workload == Workload::LongTrace)
        std::printf("long_trace: %zu instructions, synthetic seed "
                    "%llu (synthetic model: unvalidated, no paper "
                    "reference)\n",
                    cfg.long_instructions,
                    static_cast<unsigned long long>(
                        bench.syntheticSeed()));
    const bool rss_window = resetPeakRss();
    std::printf("peak RSS window: %s\n",
                rss_window ? "VmHWM reset before every op"
                           : "VmHWM reset REFUSED: peaks include set-up");

    std::vector<double> setups;
    const int setup_runs = args.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < setup_runs; ++i) {
        setups.push_back(bench.setup());
        std::printf("setup %d: %.4f s\n", i + 1, setups.back());
    }

    Run run;
    std::vector<Replay> replays;
    const Clock::time_point t0 = Clock::now();
    do {
        timedOp(bench, goldens, run);
        if (!args.trace)
            continue;
        ++run.attempted;
        try {
            Replay r = bench.replay();
            const std::string why = bench.check(r.units, &goldens);
            std::printf("replay %zu: %.4f s  spans %.4f s  digest %s  "
                        "%s\n",
                        replays.size() + 1, r.wall_s,
                        r.spans.total(),
                        hex64(digestRows(r.units)).c_str(),
                        why.empty() ? "ok (bit-identical to the op)"
                                    : why.c_str());
            if (!why.empty())
                ++run.failed;
            replays.push_back(std::move(r));
        } catch (const std::exception &e) {
            ++run.failed;
            std::printf("replay FAILED: %s\n", e.what());
        }
        // A failed op or replay ends the run: its result is already
        // refused, and the failure would only repeat.
    } while (run.failed == 0 && secondsSince(t0) < args.seconds);

    const double campaign_s = median(run.walls);
    if (!run.streamed && workload == Workload::LongTrace)
        std::printf("long_trace did NOT stream on this host: flat "
                    "footprint %.1f MB vs stream threshold %.1f MB; "
                    "its numbers are flat-path numbers\n",
                    run.flat_bytes / kMB, host.stream_threshold / kMB);
    std::printf("trace.streamed=%d resident %.1f MB of %.1f MB flat\n",
                run.streamed ? 1 : 0, run.resident_bytes / kMB,
                run.flat_bytes / kMB);
    if (std::isnan(run.paper_err))
        std::printf("paper_err_pp: n/a (%s)\n",
                    workload == Workload::LongTrace
                        ? "synthetic trace, no paper reference"
                        : "no verified op");
    else
        std::printf("paper_err_pp: %.4f pp (five-app mean RC "
                    "DS-16/32/64 hides %.4f/%.4f/%.4f%% of read latency; "
                    "the paper: 33/63/81%%)\n",
                    run.paper_err, run.paper_hidden[0],
                    run.paper_hidden[1], run.paper_hidden[2]);

    std::string metrics;
    auto add = [&](const Metric &m, double value) {
        metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
            m.name + "\": {\"value\": " + num(value) +
            ", \"unit\": \"" + m.unit + "\"}";
    };
    if (!args.trace) {
        for (const Metric &m : endToEnd(setups, run, workload))
            add(m, m.value);
    } else if (!replays.empty()) {
        std::vector<std::vector<Metric>> layers;
        std::vector<double> span_totals, replay_walls;
        for (const Replay &r : replays) {
            layers.push_back(layerValues(r, workload, campaign_s));
            span_totals.push_back(r.spans.total());
            replay_walls.push_back(r.wall_s);
        }
        for (size_t i = 0; i < layers.front().size(); ++i) {
            std::vector<double> v;
            for (const std::vector<Metric> &lv : layers)
                v.push_back(lv[i].value);
            add(layers.front()[i], median(v));
        }
        const double spans = median(span_totals);
        const double replay_wall = median(replay_walls);
        const double unattributed = campaign_s - spans;
        std::printf("ledger: spans %.4f s, untraced campaign_s %.4f s, "
                    "runner.unattributed_s %.4f s (%.1f%%; bound "
                    "+-%.0f%%: %s); inside the replay the spans cover "
                    "%.1f%% of its %.4f s\n",
                    spans, campaign_s, unattributed,
                    100.0 * ratio(unattributed, campaign_s),
                    100.0 * kUnattributedBound,
                    std::fabs(unattributed) <=
                            kUnattributedBound * campaign_s
                        ? "within"
                        : "OUTSIDE",
                    100.0 * ratio(spans, replay_wall), replay_wall);
        std::printf("bench.tracing_overhead_pct: replay %.4f s vs "
                    "untraced %.4f s\n",
                    replay_wall, campaign_s);
    }
    const bool correct = run.failed == 0 && !run.walls.empty() &&
        (!args.trace || !replays.empty());
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", run.attempted, run.failed,
                metrics.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.list_metrics >= 0) {
        const std::vector<Metric> metrics = args.list_metrics
            ? layerValues(Replay{}, Workload::PaperCold, 0.0)
            : endToEnd({}, Run{}, Workload::PaperCold);
        for (const Metric &m : metrics)
            std::printf("%s %s\n", m.name, m.unit);
        return 0;
    }
    Workload workload;
    if (!parseWorkload(args.workload, &workload))
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.work.empty() || args.golden.empty())
        usage("--work and --golden are required");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace wants 0 or 1");

    int code = 1;
    try {
        code = runBench(args, workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dsmem_perfbench: %s\n", e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(args.work, ec);
    std::fflush(stdout);
    return code;
}
