#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "runner/trace_store.h"
#include "sim/app_registry.h"
#include "sim/executor.h"
#include "sim/synthetic.h"
#include "sim/trace_bundle.h"
#include "trace/trace_stats.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dsmem;

namespace {

/** One declared campaign unit. */
struct UnitDecl {
    sim::AppId app;
    memsys::MemoryConfig mem;
    std::vector<sim::ModelSpec> specs;
};

/** bench_figure3, bench_figure4, bench_latency100: their exact
 *  declaration sets, in that order. */
std::vector<UnitDecl>
paperUnits()
{
    std::vector<UnitDecl> units;
    const std::vector<sim::ModelSpec> f3 = sim::figure3Columns();
    for (sim::AppId id : sim::kAllApps)
        units.push_back({id, memsys::MemoryConfig{}, f3});

    const std::vector<sim::ModelSpec> f4 = sim::figure4Columns();
    std::vector<sim::ModelSpec> fig4{f4.front()};
    for (uint32_t window : sim::kWindowSizes)
        fig4.push_back(
            sim::ModelSpec::ds(core::ConsistencyModel::RC, window));
    fig4.insert(fig4.end(), f4.begin() + 1, f4.end());
    for (sim::AppId id : sim::kAllApps)
        units.push_back({id, memsys::MemoryConfig{}, fig4});

    std::vector<sim::ModelSpec> lat100{
        sim::ModelSpec::base(),
        sim::ModelSpec::ssbr(core::ConsistencyModel::RC)};
    for (uint32_t window : sim::kWindowSizes)
        lat100.push_back(
            sim::ModelSpec::ds(core::ConsistencyModel::RC, window));
    memsys::MemoryConfig mem100;
    mem100.miss_latency = 100;
    for (sim::AppId id : sim::kAllApps)
        units.push_back({id, mem100, lat100});
    return units;
}

/** long_trace's sweep: RC DS-16..256. No BASE row: a non-DS row
 *  flattens the chunked trace and defeats streaming (README.md). */
std::vector<sim::ModelSpec>
longTraceSpecs()
{
    std::vector<sim::ModelSpec> specs;
    for (uint32_t window : sim::kWindowSizes)
        specs.push_back(
            sim::ModelSpec::ds(core::ConsistencyModel::RC, window));
    return specs;
}

/** The campaign's adaptive fusion cap for @p units at jobs=1. */
size_t
laneCap(const std::vector<UnitDecl> &units)
{
    size_t ds = 0;
    for (const UnitDecl &u : units)
        for (const sim::ModelSpec &s : u.specs)
            ds += s.kind == sim::ModelSpec::Kind::DS;
    return sim::adaptiveLaneCap(ds, 1);
}

/** Instructions of unit @p u's trace, in-process or worker-reported. */
uint64_t
unitInstructions(const runner::UnitResult &r)
{
    return r.bundle ? r.bundle->stats.instructions
                    : r.trace_instructions;
}

std::vector<UnitRows>
campaignRows(const runner::Campaign &c)
{
    std::vector<UnitRows> out;
    for (size_t u = 0; u < c.size(); ++u) {
        UnitRows unit;
        unit.miss_latency = c.unitMem(u).miss_latency;
        const std::string app(sim::appName(c.unitApp(u)));
        for (const sim::LabelledResult &row : c.result(u).rows)
            unit.rows.push_back({app, row.label, row.result});
        out.push_back(std::move(unit));
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::string bytes(static_cast<size_t>(in.tellg()), '\0');
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!in)
        throw std::runtime_error("short read of " + path);
    return bytes;
}

double
flatBytes(uint64_t instructions)
{
    return static_cast<double>(instructions) *
        trace::TraceView::bytesPerInstr();
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::PaperCold:
        return "paper_cold";
    case Workload::PaperWarm:
        return "paper_warm";
    case Workload::SvcWarm:
        return "svc_warm";
    case Workload::LongTrace:
        return "long_trace";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::PaperCold, Workload::PaperWarm,
                       Workload::SvcWarm, Workload::LongTrace}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

void
declarePaperCampaign(runner::Campaign &campaign, bool small)
{
    for (const UnitDecl &u : paperUnits())
        campaign.add(u.app, u.specs, u.mem, small);
}

Bench::Bench(BenchConfig cfg) : cfg_(std::move(cfg))
{
    fs::create_directories(cfg_.work_dir);
}

svc::ServiceOptions
Bench::serviceOptions() const
{
    // As `dsmem_svc run` runs by default, with the socket in the
    // work directory and worker PID lines off.
    svc::ServiceOptions so;
    so.workers = kSvcWorkers;
    so.worker_exe = PERFBENCH_SVC_BIN;
    so.socket_path = path("svc.sock");
    so.print_workers = false;
    return so;
}

std::string
Bench::path(const std::string &name) const
{
    return (fs::path(cfg_.work_dir) / name).string();
}

uint64_t
Bench::syntheticSeed() const
{
    return 1 + cfg_.seed % kLongTraceSeeds;
}

std::string
Bench::digestKey() const
{
    if (cfg_.workload == Workload::LongTrace)
        return "long_trace." + std::to_string(cfg_.long_instructions) +
            "." + std::to_string(syntheticSeed());
    return cfg_.small ? "paper_small" : "paper";
}

void
Bench::fillStore(const std::string &dir)
{
    fs::remove_all(dir);
    runner::TraceStore store(dir);
    std::set<std::pair<sim::AppId, memsys::MemoryConfig>> done;
    for (const UnitDecl &u : paperUnits()) {
        if (!done.insert({u.app, u.mem}).second)
            continue;
        store.store(u.app, u.mem, cfg_.small,
                    sim::generateTrace(u.app, u.mem, cfg_.small));
    }
    if (store.stats().store_errors != 0)
        throw std::runtime_error("trace store fill failed in " + dir);
}

double
Bench::setup()
{
    last_campaign_.reset();
    const Clock::time_point t0 = Clock::now();
    switch (cfg_.workload) {
    case Workload::PaperCold: {
        // A discarded warm-up: the campaign at reduced problem sizes
        // against its own empty store. The timed ops never read it.
        const std::string dir = path("warmup_store");
        fs::remove_all(dir);
        runner::RunnerOptions opts;
        opts.jobs = 1;
        opts.trace_dir = dir;
        runner::Campaign warm("perfbench_paper", opts);
        declarePaperCampaign(warm, true);
        warm.run();
        if (!warm.ok())
            throw std::runtime_error("warm-up campaign failed: " +
                                     warm.failureSummary());
        break;
    }
    case Workload::PaperWarm:
    case Workload::SvcWarm:
        fillStore(path("store"));
        break;
    case Workload::LongTrace: {
        sim::SyntheticConfig sc;
        sc.instructions = cfg_.long_instructions;
        sc.seed = syntheticSeed();
        sim::TraceBundle tb;
        tb.trace = sim::generateSynthetic(sc);
        tb.stats = trace::computeStats(tb.trace);
        tb.verified = true;
        std::ofstream out(path("long.dsmb"),
                          std::ios::binary | std::ios::trunc);
        runner::saveBundle(tb, out);
        out.flush();
        if (!out)
            throw std::runtime_error("cannot write long trace bundle");
        break;
    }
    }
    return secondsSince(t0);
}

OpResult
Bench::op()
{
    last_campaign_.reset();
    switch (cfg_.workload) {
    case Workload::PaperCold:
        return campaignOp(true);
    case Workload::PaperWarm:
        return campaignOp(false);
    case Workload::SvcWarm:
        return svcOp();
    case Workload::LongTrace:
        return longTraceOp();
    }
    throw std::logic_error("unknown workload");
}

OpResult
Bench::campaignOp(bool cold)
{
    const std::string store = path(cold ? "cold_store" : "store");
    if (cold)
        fs::remove_all(store);
    runner::RunnerOptions opts;
    opts.jobs = 1;
    opts.trace_dir = store;

    OpResult res;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    auto campaign =
        std::make_unique<runner::Campaign>("perfbench_paper", opts);
    declarePaperCampaign(*campaign, cfg_.small);
    campaign->run();
    const bool exported = campaign->writeJson(path("export.json"));
    res.wall_s = secondsSince(t0);
    res.peak_rss_bytes = peakRssBytes();

    if (!campaign->ok())
        res.error = campaign->failureSummary();
    else if (!exported)
        res.error = "JSON export failed";
    res.units = campaignRows(*campaign);
    std::set<const sim::ViewBundle *> seen;
    for (size_t u = 0; u < campaign->size(); ++u) {
        const runner::UnitResult &r = campaign->result(u);
        res.sim_instructions += unitInstructions(r) * r.rows.size();
        if (r.bundle && seen.insert(r.bundle).second) {
            res.streamed |= r.bundle->chunked != nullptr;
            res.resident_bytes += r.bundle->traceBytesResident();
            res.trace_bytes_flat += static_cast<uint64_t>(
                flatBytes(r.bundle->stats.instructions));
        }
    }
    last_campaign_ = std::move(campaign);
    return res;
}

OpResult
Bench::svcOp()
{
    runner::RunnerOptions opts;
    opts.trace_dir = path("store");

    OpResult res;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    auto campaign =
        std::make_unique<runner::Campaign>("perfbench_paper", opts);
    declarePaperCampaign(*campaign, cfg_.small);
    svc::Coordinator coordinator(*campaign, serviceOptions());
    const int code = coordinator.run();
    const bool exported = campaign->writeJson(path("export.json"));
    res.wall_s = secondsSince(t0);
    res.peak_rss_bytes =
        std::max(peakRssBytes(), coordinator.stats().peak_rss_bytes);

    if (code != 0 || !campaign->ok())
        res.error = "service exit " + std::to_string(code) + ": " +
            campaign->failureSummary();
    else if (!exported)
        res.error = "JSON export failed";
    res.units = campaignRows(*campaign);
    const sim::StreamExec policy = sim::streamExecFromEnv();
    std::set<std::pair<sim::AppId, memsys::MemoryConfig>> traces;
    for (size_t u = 0; u < campaign->size(); ++u) {
        const runner::UnitResult &r = campaign->result(u);
        const uint64_t n = unitInstructions(r);
        res.sim_instructions += n * r.rows.size();
        if (traces.insert({campaign->unitApp(u), campaign->unitMem(u)})
                .second) {
            res.streamed |= sim::shouldStream(n, policy);
            res.trace_bytes_flat +=
                static_cast<uint64_t>(flatBytes(n));
        }
    }
    res.resident_bytes = coordinator.stats().view_bytes_resident;
    last_campaign_ = std::move(campaign);
    return res;
}

OpResult
Bench::longTraceOp()
{
    const std::vector<sim::ModelSpec> specs = longTraceSpecs();
    OpResult res;
    UnitRows unit;
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    {
        std::ifstream in(path("long.dsmb"), std::ios::binary);
        if (!in)
            throw std::runtime_error("long trace bundle missing");
        const sim::ViewBundle vb =
            runner::loadBundleView(in, sim::streamExecFromEnv());
        core::SimContext ctx;
        std::vector<core::RunResult> results(specs.size());
        const std::vector<uint8_t> done(specs.size(), 0);
        for (const sim::ExecGroup &g : sim::planPhase2(
                 specs, done, sim::adaptiveLaneCap(specs.size(), 1))) {
            std::vector<core::RunResult> rs =
                sim::runGroup(vb, specs, g, ctx);
            for (size_t k = 0; k < g.rows.size(); ++k)
                results[g.rows[k]] = rs[k];
        }
        res.wall_s = secondsSince(t0);
        res.peak_rss_bytes = peakRssBytes();
        for (size_t s = 0; s < specs.size(); ++s)
            unit.rows.push_back(
                {"synthetic", specs[s].label(), results[s]});
        res.sim_instructions = vb.stats.instructions * specs.size();
        res.streamed = vb.chunked != nullptr;
        res.resident_bytes = vb.traceBytesResident();
        res.trace_bytes_flat =
            static_cast<uint64_t>(flatBytes(vb.stats.instructions));
    }
    res.units.push_back(std::move(unit));
    return res;
}

Replay
Bench::replay()
{
    Replay r;
    const bool cold = cfg_.workload == Workload::PaperCold;
    if (cold) {
        fs::remove_all(path("replay_store"));
        fs::create_directories(path("replay_store"));
    }
    const Clock::time_point t0 = Clock::now();
    switch (cfg_.workload) {
    case Workload::PaperCold:
    case Workload::PaperWarm:
        replayPaper(r, cold);
        break;
    case Workload::SvcWarm:
        replaySvc(r);
        break;
    case Workload::LongTrace:
        replayLongTrace(r);
        break;
    }
    r.wall_s = secondsSince(t0);
    return r;
}

void
Bench::replayPaper(Replay &r, bool cold)
{
    if (!last_campaign_)
        throw std::logic_error("replay needs a preceding op");
    const std::vector<UnitDecl> units = paperUnits();
    const runner::TraceStore store(
        path(cold ? "replay_store" : "store"));
    const sim::StreamExec policy = sim::streamExecFromEnv();

    // Phase 1, one trace per (app, memory config), as the campaign
    // deduplicates them; every view stays resident like the
    // campaign's trace cache.
    std::vector<std::unique_ptr<sim::ViewBundle>> views;
    std::map<std::pair<sim::AppId, memsys::MemoryConfig>, size_t> index;
    std::vector<size_t> unit_view;
    for (const UnitDecl &u : units) {
        auto [it, fresh] = index.insert({{u.app, u.mem}, views.size()});
        unit_view.push_back(it->second);
        if (!fresh)
            continue;
        const std::string file = store.pathFor(u.app, u.mem, cfg_.small);
        sim::ViewBundle vb;
        if (cold) {
            sim::TraceBundle tb = r.spans.time("mp.generate", [&] {
                return sim::generateTrace(u.app, u.mem, cfg_.small);
            });
            ++r.mp_traces;
            r.mp_instructions += tb.stats.instructions;
            r.spans.time("runner.store_write", [&] {
                std::ofstream out(file,
                                  std::ios::binary | std::ios::trunc);
                runner::saveBundle(tb, out);
                out.flush();
                if (!out)
                    throw std::runtime_error("cannot write " + file);
            });
            r.written_bytes += fs::file_size(file);
            vb = r.spans.time("trace.decode", [&] {
                return sim::makeViewBundle(tb, policy);
            });
        } else {
            std::string bytes = r.spans.time(
                "runner.store_read", [&] { return readFile(file); });
            vb = r.spans.time("trace.decode", [&] {
                std::istringstream is(std::move(bytes));
                return runner::loadBundleView(is, policy);
            });
        }
        r.decoded_instructions += vb.stats.instructions;
        r.streamed |= vb.chunked != nullptr;
        r.resident_bytes += vb.traceBytesResident();
        views.push_back(std::make_unique<sim::ViewBundle>(std::move(vb)));
    }

    core::SimContext ctx;
    const size_t lane_cap = laneCap(units);
    for (size_t u = 0; u < units.size(); ++u) {
        UnitRows out;
        out.miss_latency = units[u].mem.miss_latency;
        replayPhase2(r, *views[unit_view[u]], units[u].specs, lane_cap,
                     ctx, out, std::string(sim::appName(units[u].app)));
        r.units.push_back(std::move(out));
    }
    r.spans.time("runner.export", [&] {
        if (!last_campaign_->writeJson(path("replay.json")))
            throw std::runtime_error("JSON export failed");
    });
}

void
Bench::replayPhase2(Replay &r, const sim::ViewBundle &vb,
                    const std::vector<sim::ModelSpec> &specs,
                    size_t lane_cap, core::SimContext &ctx,
                    UnitRows &out, const std::string &app)
{
    const std::vector<uint8_t> done(specs.size(), 0);
    const std::vector<sim::ExecGroup> groups = r.spans.time(
        "sim.plan",
        [&] { return sim::planPhase2(specs, done, lane_cap); });
    const uint64_t n = vb.stats.instructions;
    std::vector<core::RunResult> results(specs.size());
    for (const sim::ExecGroup &g : groups) {
        ++r.groups;
        if (g.fused)
            r.fused_rows += g.rows.size();
        const bool ds =
            specs[g.rows.front()].kind == sim::ModelSpec::Kind::DS;
        const std::vector<core::RunResult> rs = r.spans.time(
            ds ? "core.phase2.ds" : "core.phase2.static",
            [&] { return sim::runGroup(vb, specs, g, ctx); });
        (ds ? r.ds_lane_instructions : r.static_instructions) +=
            n * g.rows.size();
        for (size_t k = 0; k < g.rows.size(); ++k)
            results[g.rows[k]] = rs[k];
    }
    for (size_t s = 0; s < specs.size(); ++s) {
        r.sim_cycles += results[s].cycles;
        out.rows.push_back({app, specs[s].label(), results[s]});
    }
}

void
Bench::replaySvc(Replay &r)
{
    runner::RunnerOptions opts;
    opts.trace_dir = path("store");
    runner::Campaign campaign("perfbench_paper", opts);
    declarePaperCampaign(campaign, cfg_.small);
    svc::Coordinator coordinator(campaign, serviceOptions());
    const int code =
        r.spans.time("svc.run", [&] { return coordinator.run(); });
    r.spans.time("runner.export", [&] {
        if (!campaign.writeJson(path("replay.json")))
            throw std::runtime_error("JSON export failed");
    });
    if (code != 0 || !campaign.ok())
        throw std::runtime_error("service replay failed: " +
                                 campaign.failureSummary());

    r.svc = coordinator.stats();
    r.units = campaignRows(campaign);
    const sim::StreamExec policy = sim::streamExecFromEnv();
    for (size_t u = 0; u < campaign.size(); ++u) {
        const runner::UnitResult &ur = campaign.result(u);
        const uint64_t n = unitInstructions(ur);
        // Worker-reported: the first report per unit wins, so a
        // trace two workers both loaded counts once.
        if (ur.trace_timing.load_ms > 0.0)
            r.decoded_instructions += n;
        r.worker_load_s += ur.trace_timing.load_ms / 1000.0;
        r.streamed |= sim::shouldStream(n, policy);
        const std::vector<sim::ModelSpec> &specs = campaign.unitSpecs(u);
        for (size_t s = 0; s < specs.size(); ++s) {
            const double sec = ur.row_wall_ms[s] / 1000.0;
            r.worker_row_s += sec;
            const bool ds = specs[s].kind == sim::ModelSpec::Kind::DS;
            (ds ? r.worker_ds_s : r.worker_static_s) += sec;
            (ds ? r.ds_lane_instructions : r.static_instructions) += n;
            r.sim_cycles += ur.rows[s].result.cycles;
        }
        // The service dispatches every cell as its own group.
        r.groups += specs.size();
    }
    r.resident_bytes = r.svc.view_bytes_resident;
}

void
Bench::replayLongTrace(Replay &r)
{
    const sim::StreamExec policy = sim::streamExecFromEnv();
    std::string bytes = r.spans.time(
        "runner.store_read", [&] { return readFile(path("long.dsmb")); });
    const sim::ViewBundle vb = r.spans.time("trace.decode", [&] {
        std::istringstream is(std::move(bytes));
        return runner::loadBundleView(is, policy);
    });
    r.decoded_instructions = vb.stats.instructions;
    r.streamed = vb.chunked != nullptr;
    r.resident_bytes = vb.traceBytesResident();
    const std::vector<sim::ModelSpec> specs = longTraceSpecs();
    core::SimContext ctx;
    UnitRows out;
    replayPhase2(r, vb, specs, sim::adaptiveLaneCap(specs.size(), 1),
                 ctx, out, "synthetic");
    r.units.push_back(std::move(out));
}

std::string
Bench::check(const std::vector<UnitRows> &units,
             const Goldens *goldens) const
{
    if (units.empty())
        return "no results";
    for (const UnitRows &u : units)
        if (u.rows.empty())
            return "a unit has no rows";
    if (!goldens)
        return "";
    const std::string key = digestKey();
    const std::string got = hex64(digestRows(units));
    const std::string want = goldens->get(key + ".digest");
    if (want.empty())
        return "no golden " + key + ".digest (this op: " + got + ")";
    if (got != want)
        return "digest " + got + " != golden " + want;
    if (cfg_.workload == Workload::LongTrace)
        return "";
    const std::string err_want = goldens->get(key + ".err_pp");
    const double err = paperErrPp(paperHiddenPct(units));
    if (err_want.empty() ||
        std::fabs(err - std::strtod(err_want.c_str(), nullptr)) > 1e-9)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12f", err);
        return "paper_err_pp " + std::string(buf) + " != golden " +
            err_want;
    }
    return "";
}

} // namespace perfbench
