/**
 * @file
 * The sharded campaign service: wire protocol framing/corruption,
 * shard-plan determinism and coverage, journal epoch/lease records,
 * and end-to-end coordinator/worker execution — including worker
 * kill -9 chaos — byte-compared against single-process runs.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/campaign.h"
#include "runner/journal.h"
#include "svc/catalog.h"
#include "svc/coordinator.h"
#include "svc/protocol.h"
#include "svc/worker.h"
#include "util/byte_io.h"
#include "util/failpoint.h"

#ifndef DSMEM_SVC_BIN
#define DSMEM_SVC_BIN ""
#endif

namespace dsmem::svc {
namespace {

namespace fs = std::filesystem;

class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(fs::temp_directory_path() /
                ("dsmem_svc_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    std::string str() const { return path_.string(); }
    fs::path sub(const std::string &name) const
    {
        return path_ / name;
    }

  private:
    fs::path path_;
};

class SvcTest : public ::testing::Test
{
  protected:
    void SetUp() override { util::disarmAllFailpoints(); }
    void TearDown() override
    {
        util::disarmAllFailpoints();
        ::unsetenv("DSMEM_FAILPOINTS");
    }
};

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Campaign is pinned in place (it owns a mutex), so helpers hand out
 *  options and declare into a caller-constructed instance. */
runner::RunnerOptions
smokeOptions(const std::string &trace_dir,
             const std::string &journal = "", bool resume = false)
{
    runner::RunnerOptions ro;
    ro.jobs = 2;
    ro.trace_dir = trace_dir;
    ro.journal_path = journal;
    ro.resume = resume;
    ro.stable_json = true;
    ro.backoff_base_ms = 1;
    ro.backoff_cap_ms = 4;
    return ro;
}

void
declareSmoke(runner::Campaign &campaign)
{
    std::string err;
    ASSERT_TRUE(declareCampaign("smoke", true, campaign, &err))
        << err;
}

// --- payload codecs -------------------------------------------------

TEST_F(SvcTest, ResultMessageRoundTripsBitExactly)
{
    ResultMsg m;
    m.unit = 3;
    m.spec = 11;
    m.seq = 123456789ull;
    m.ok = 1;
    m.result.breakdown = {1, 2, 3, 4, 5};
    m.result.cycles = 0xdeadbeefcafeull;
    m.result.instructions = 42;
    m.result.branches = 7;
    m.result.mispredicts = 1;
    m.result.read_misses = 99;
    m.sampling.sampled = true;
    m.sampling.windows = 10;
    m.sampling.measured = 1000;
    m.sampling.cpi_mean = 1.2345678901234567; // Needs exact bits.
    m.sampling.ci95 = 0.000123;
    m.wall_ms = 3.14159;
    m.has_trace = 1;
    m.trace_origin = "generated";
    m.trace_instructions = 8775;
    m.trace_wall_ms = 1.5;
    m.gen_ms = 1.25;
    m.load_ms = 0.25;

    ResultMsg d;
    ASSERT_TRUE(decodeResult(encodeResult(m), d));
    EXPECT_TRUE(d.result == m.result);
    EXPECT_TRUE(d.sampling == m.sampling);
    EXPECT_EQ(d.unit, m.unit);
    EXPECT_EQ(d.spec, m.spec);
    EXPECT_EQ(d.seq, m.seq);
    EXPECT_EQ(d.trace_origin, m.trace_origin);
    EXPECT_EQ(d.wall_ms, m.wall_ms); // Bit-cast doubles: exact.
    EXPECT_EQ(d.gen_ms, m.gen_ms);
}

TEST_F(SvcTest, WelcomeRoundTripsDeclarationSet)
{
    WelcomeMsg m;
    m.bench = "bench_x";
    m.trace_dir = "/tmp/cache";
    m.signature = 0x1122334455667788ull;
    m.plan.period = 1000;
    m.plan.detailed = 100;
    m.plan.warmup = 50;
    m.plan.seed = 7;
    UnitDecl u;
    u.app = 2;
    u.mem.miss_latency = 100;
    u.mem.dram.banks = 4;
    u.small = 1;
    u.specs = {sim::ModelSpec::base(),
               sim::ModelSpec::ds(core::ConsistencyModel::RC, 64)};
    m.units.push_back(u);

    WelcomeMsg d;
    ASSERT_TRUE(decodeWelcome(encodeWelcome(m), d));
    ASSERT_EQ(d.units.size(), 1u);
    EXPECT_EQ(d.units[0].mem.miss_latency, 100u);
    EXPECT_EQ(d.units[0].mem.dram.banks, 4u);
    ASSERT_EQ(d.units[0].specs.size(), 2u);
    EXPECT_EQ(d.units[0].specs[1].label(), u.specs[1].label());
    EXPECT_EQ(d.signature, m.signature);
    EXPECT_EQ(d.plan.period, 1000u);
}

TEST_F(SvcTest, DecodeRejectsTruncatedAndTrailingGarbage)
{
    HelloMsg m{7, 1234, kProtocolVersion};
    std::string p = encodeHello(m);
    HelloMsg d;
    ASSERT_TRUE(decodeHello(p, d));
    // Truncated payload.
    EXPECT_FALSE(decodeHello(p.substr(0, p.size() - 1), d));
    // Trailing garbage.
    EXPECT_FALSE(decodeHello(p + "x", d));
}

// --- framing over a real socket -------------------------------------

TEST_F(SvcTest, FrameRoundTripsOverSocketpair)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string err;
    HelloMsg m{1, 42, kProtocolVersion};
    ASSERT_TRUE(sendFrame(sv[0], "svc.worker.send", MsgType::HELLO,
                          encodeHello(m), &err))
        << err;
    Frame f;
    ASSERT_TRUE(recvFrame(sv[1], "svc.coord.recv", f, &err)) << err;
    EXPECT_EQ(f.type, MsgType::HELLO);
    HelloMsg d;
    ASSERT_TRUE(decodeHello(f.payload, d));
    EXPECT_EQ(d.pid, 42u);
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST_F(SvcTest, FrameReaderReassemblesByteByByte)
{
    // Two frames, fed one byte at a time: the incremental parser must
    // produce both, in order, from arbitrarily fragmented reads.
    WireOut raw;
    {
        HeartbeatMsg hb{3, 9};
        std::string p1 = encodeHeartbeat(hb);
        raw.u32(kProtocolMagic);
        raw.u32(static_cast<uint32_t>(MsgType::HEARTBEAT));
        raw.u32(static_cast<uint32_t>(p1.size()));
        raw.buf.append(p1);
        raw.u64(util::fnv1aUpdate(util::kFnvOffset, p1.data(),
                                  p1.size()));
        raw.u32(kProtocolMagic);
        raw.u32(static_cast<uint32_t>(MsgType::SHUTDOWN));
        raw.u32(0);
        raw.u64(util::fnv1aUpdate(util::kFnvOffset, "", 0));
    }
    FrameReader rx;
    std::vector<MsgType> seen;
    std::string err;
    for (char c : raw.buf) {
        rx.feed(&c, 1);
        Frame f;
        int got;
        while ((got = rx.next(f, &err)) == 1)
            seen.push_back(f.type);
        ASSERT_GE(got, 0) << err;
    }
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], MsgType::HEARTBEAT);
    EXPECT_EQ(seen[1], MsgType::SHUTDOWN);
}

TEST_F(SvcTest, CorruptedPayloadFailsChecksum)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    HelloMsg m{1, 42, kProtocolVersion};
    std::string payload = encodeHello(m);
    WireOut w;
    w.u32(kProtocolMagic);
    w.u32(static_cast<uint32_t>(MsgType::HELLO));
    w.u32(static_cast<uint32_t>(payload.size()));
    w.buf.append(payload);
    w.u64(util::fnv1aUpdate(util::kFnvOffset, payload.data(),
                            payload.size()));
    w.buf[13] ^= 0x40; // Flip one payload bit.
    ASSERT_EQ(::send(sv[0], w.buf.data(), w.buf.size(), 0),
              static_cast<ssize_t>(w.buf.size()));
    Frame f;
    std::string err;
    EXPECT_FALSE(recvFrame(sv[1], "svc.coord.recv", f, &err));
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;

    // Bad magic is a protocol error too.
    w.buf[0] = 'X';
    FrameReader rx;
    rx.feed(w.buf.data(), w.buf.size());
    err.clear();
    EXPECT_EQ(rx.next(f, &err), -1);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST_F(SvcTest, SendAndRecvHonorFailpointSites)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    util::armFailpoint(util::FailpointSpec{
        "svc.worker.send", util::FailpointMode::THROW, 0, 1, true});
    std::string err;
    EXPECT_FALSE(sendFrame(sv[0], "svc.worker.send", MsgType::HELLO,
                           "", &err));
    EXPECT_NE(err.find("failpoint"), std::string::npos) << err;
    // Other sites are unaffected.
    EXPECT_TRUE(sendFrame(sv[0], "svc.coord.send", MsgType::HELLO,
                          "", &err))
        << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

// --- shard plan -----------------------------------------------------

TEST_F(SvcTest, ShardPlanCoversEveryCellExactlyOnce)
{
    TempDir tmp("plan");
    for (unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str()));
        declareSmoke(campaign);
        ASSERT_TRUE(campaign.prepare());
        runner::Campaign::ShardPlan plan =
            campaign.shardPlan(workers);
        ASSERT_EQ(plan.shards.size(), workers);
        std::set<runner::Campaign::CellRef> seen;
        for (const auto &shard : plan.shards)
            for (const auto &cell : shard)
                EXPECT_TRUE(seen.insert(cell).second)
                    << "cell dispatched twice";
        std::vector<runner::Campaign::CellRef> pending =
            campaign.pendingCells();
        EXPECT_EQ(seen.size(), pending.size());
        EXPECT_EQ(plan.cells, pending.size());
        campaign.finish();
    }
}

TEST_F(SvcTest, ShardPlanIsDeterministicAndKeepsTraceAffinity)
{
    TempDir tmp("plan2");
    runner::Campaign a(benchNameFor("smoke"),
                       smokeOptions(tmp.str()));
    runner::Campaign b(benchNameFor("smoke"),
                       smokeOptions(tmp.str()));
    declareSmoke(a);
    declareSmoke(b);
    ASSERT_TRUE(a.prepare());
    ASSERT_TRUE(b.prepare());
    runner::Campaign::ShardPlan pa = a.shardPlan(2);
    runner::Campaign::ShardPlan pb = b.shardPlan(2);
    ASSERT_EQ(pa.shards.size(), pb.shards.size());
    for (size_t k = 0; k < pa.shards.size(); ++k)
        EXPECT_TRUE(pa.shards[k] == pb.shards[k]);
    // The two smoke units use distinct traces; sharding groups by
    // trace key, so no shard should mix units (each shard resolves
    // each of its traces exactly once).
    for (const auto &shard : pa.shards) {
        std::set<size_t> units;
        for (const auto &cell : shard)
            units.insert(cell.unit);
        EXPECT_LE(units.size(), 1u);
    }
    a.finish();
    b.finish();
}

// --- journal epoch / lease records ----------------------------------

TEST_F(SvcTest, EpochAndLeaseRecordsSurviveReplay)
{
    TempDir tmp("journal");
    std::string journal = tmp.sub("j.jsonl").string();
    uint64_t signature = 0;
    {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str(), journal));
        declareSmoke(campaign);
        signature = campaign.signature();
        ASSERT_TRUE(campaign.prepare());
        EXPECT_EQ(campaign.resumedEpoch(), 0u);
        campaign.journal().appendEpoch(1, 2);
        campaign.journal().appendLease(
            runner::JournalLease{0, 1, 0, 1});
        campaign.journal().appendEpoch(2, 4);
        campaign.journal().appendLease(
            runner::JournalLease{1, 3, 1, 2});
        campaign.finish();
    }
    std::vector<runner::JournalRow> rows;
    std::vector<runner::JournalTrace> traces;
    runner::JournalMeta meta;
    std::string err;
    ASSERT_TRUE(runner::CampaignJournal::replay(
        journal, signature, rows, traces, &err, &meta))
        << err;
    EXPECT_EQ(meta.last_epoch, 2u);
    ASSERT_EQ(meta.leases.size(), 2u);
    EXPECT_EQ(meta.leases[0].unit, 0u);
    EXPECT_EQ(meta.leases[0].spec, 1u);
    EXPECT_EQ(meta.leases[0].worker, 0u);
    EXPECT_EQ(meta.leases[0].epoch, 1u);
    EXPECT_EQ(meta.leases[1].epoch, 2u);

    // A resumed campaign sees the highest epoch.
    runner::Campaign resumed(
        benchNameFor("smoke"),
        smokeOptions(tmp.str(), journal, true));
    declareSmoke(resumed);
    ASSERT_TRUE(resumed.prepare());
    EXPECT_EQ(resumed.resumedEpoch(), 2u);
    resumed.finish();
}

// --- end-to-end: sharded execution vs the in-process pool -----------

/** Skip when the dsmem_svc binary was not provided by the build. */
bool
haveWorkerBinary()
{
    return DSMEM_SVC_BIN[0] != '\0' && fs::exists(DSMEM_SVC_BIN);
}

TEST_F(SvcTest, CoordinatorMatchesInProcessRunByteForByte)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("e2e");

    // Exact rows at 1/2/4 workers, then the same campaign under a
    // small sampling plan (the sampling-smoke parameters) so the
    // workers' live-point and sampled dispatch path is compared too.
    sim::SamplingPlan sampled;
    sampled.period = 4000;
    sampled.detailed = 400;
    sampled.warmup = 1200;
    struct Leg {
        sim::SamplingPlan plan;
        std::vector<unsigned> workers;
    };
    for (const Leg &leg : {Leg{{}, {1u, 2u, 4u}}, Leg{sampled, {2u}}}) {
        const std::string tag = leg.plan.enabled() ? "s" : "e";
        auto options = [&](const std::string &journal) {
            runner::RunnerOptions ro = smokeOptions(tmp.str(), journal);
            ro.sampling = leg.plan;
            return ro;
        };

        // Reference: the normal in-process pool.
        std::string ref_json = tmp.sub(tag + "ref.json").string();
        {
            runner::Campaign campaign(benchNameFor("smoke"), options(""));
            declareSmoke(campaign);
            campaign.run();
            ASSERT_TRUE(campaign.ok());
            ASSERT_TRUE(campaign.writeJson(ref_json));
        }
        EXPECT_EQ(slurp(ref_json).find("\"ci95\"") != std::string::npos,
                  leg.plan.enabled());

        for (unsigned workers : leg.workers) {
            const std::string w = tag + std::to_string(workers);
            runner::Campaign campaign(
                benchNameFor("smoke"),
                options(tmp.sub("j" + w + ".jsonl").string()));
            declareSmoke(campaign);
            ServiceOptions so;
            so.workers = workers;
            so.worker_exe = DSMEM_SVC_BIN;
            so.print_workers = false;
            Coordinator coordinator(campaign, so);
            ASSERT_EQ(coordinator.run(), 0);
            EXPECT_TRUE(campaign.ok());
            std::string json = tmp.sub("w" + w + ".json").string();
            ASSERT_TRUE(campaign.writeJson(json));
            EXPECT_EQ(slurp(json), slurp(ref_json)) << "leg " << w;
            EXPECT_EQ(coordinator.stats().results, 8u);
            EXPECT_EQ(coordinator.stats().mismatches, 0u);
        }
    }
}

TEST_F(SvcTest, WorkerKillChaosStillCompletesBitIdentically)
{
    if (!haveWorkerBinary())
        GTEST_SKIP() << "dsmem_svc binary unavailable";
    TempDir tmp("chaos");

    std::string ref_json = tmp.sub("ref.json").string();
    {
        runner::Campaign campaign(benchNameFor("smoke"),
                                  smokeOptions(tmp.str()));
        declareSmoke(campaign);
        campaign.run();
        ASSERT_TRUE(campaign.ok());
        ASSERT_TRUE(campaign.writeJson(ref_json));
    }

    // Workers inherit the environment: every spawned worker dies by
    // SIGKILL at its 3rd send boundary (HELLO + heartbeats/results),
    // exactly as if an external kill -9 landed there. This process
    // loaded DSMEM_FAILPOINTS at static init, so the late setenv arms
    // nothing locally.
    ::setenv("DSMEM_FAILPOINTS", "svc.worker.send:kill:3", 1);
    runner::Campaign campaign(
        benchNameFor("smoke"),
        smokeOptions(tmp.str(), tmp.sub("jc.jsonl").string()));
    declareSmoke(campaign);
    ServiceOptions so;
    so.workers = 2;
    so.worker_exe = DSMEM_SVC_BIN;
    so.print_workers = false;
    so.lease_ms = 4000;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    ::unsetenv("DSMEM_FAILPOINTS");
    EXPECT_TRUE(campaign.ok());
    EXPECT_GT(coordinator.stats().worker_deaths, 0u);
    std::string json = tmp.sub("chaos.json").string();
    ASSERT_TRUE(campaign.writeJson(json));
    EXPECT_EQ(slurp(json), slurp(ref_json));
}

TEST_F(SvcTest, DeadPoolDegradesToInlineExecution)
{
    TempDir tmp("inline");
    // svc.spawn throws for every fork: no worker ever starts, the
    // coordinator must degrade to in-process execution and still
    // satisfy the exit-code contract.
    util::armFailpoint(util::FailpointSpec{
        "svc.spawn", util::FailpointMode::THROW, 0, 1, false});
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str()));
    declareSmoke(campaign);
    ServiceOptions so;
    so.workers = 2;
    so.print_workers = false;
    Coordinator coordinator(campaign, so);
    ASSERT_EQ(coordinator.run(), 0);
    EXPECT_TRUE(campaign.ok());
    EXPECT_EQ(coordinator.stats().inline_cells, 8u);
    EXPECT_EQ(coordinator.stats().results, 0u);
}

TEST_F(SvcTest, InlineFallbackRetriesTransientPhase1Fault)
{
    // The fallback runs a cell through the campaign's own phase-1
    // path, so a transient generation fault recovers on retry exactly
    // as it does in the pool and in a worker, instead of failing the
    // cell outright.
    util::armFailpoint(util::FailpointSpec{
        "bundle.generate", util::FailpointMode::THROW, 0, 1, true});
    runner::Campaign campaign(benchNameFor("smoke"), smokeOptions(""));
    declareSmoke(campaign);
    ASSERT_TRUE(campaign.prepare());
    ASSERT_TRUE(campaign.runCellInline(0, 0));
    const runner::UnitResult &res = campaign.result(0);
    EXPECT_EQ(res.row_done[0], 1);
    EXPECT_FALSE(res.failed);
    ASSERT_EQ(res.errors.size(), 1u);
    EXPECT_EQ(res.errors[0].site, "phase1");
    EXPECT_FALSE(res.errors[0].fatal);
    EXPECT_EQ(res.errors[0].attempts, 2);
    EXPECT_NE(res.errors[0].message.find("recovered after retry"),
              std::string::npos);
}

/** Stands in for the coordinator: one listening socket, one worker
 *  thread running workerMain against it. */
class FakeCoordinator
{
  public:
    explicit FakeCoordinator(const std::string &path) : path_(path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        ::unlink(path.c_str());
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 1) != 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
    }
    ~FakeCoordinator()
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (listen_fd_ >= 0)
            ::close(listen_fd_);
        ::unlink(path_.c_str());
    }

    /** Start the worker, take its HELLO, send @p welcome. */
    bool start(const WelcomeMsg &welcome)
    {
        if (listen_fd_ < 0)
            return false;
        exit_code_ = std::async(std::launch::async, [this] {
            return workerMain(WorkerOptions{path_, 7});
        });
        fd_ = ::accept(listen_fd_, nullptr, nullptr);
        Frame hello;
        return fd_ >= 0 && recv(hello) &&
               hello.type == MsgType::HELLO &&
               send(MsgType::WELCOME, encodeWelcome(welcome));
    }
    bool send(MsgType type, const std::string &payload)
    {
        std::string err;
        return sendFrame(fd_, "svc.coord.send", type, payload, &err);
    }
    bool recv(Frame &out)
    {
        std::string err;
        return recvFrame(fd_, "svc.coord.recv", out, &err);
    }
    /** Hang up (a worker still waiting for frames sees EOF), then
     *  collect workerMain's return value. */
    int exitCode()
    {
        ::close(fd_);
        fd_ = -1;
        return exit_code_.get();
    }

  private:
    std::string path_;
    int listen_fd_ = -1;
    int fd_ = -1;
    std::future<int> exit_code_;
};

TEST_F(SvcTest, WorkerRefusesWelcomeWithForeignSignature)
{
    TempDir tmp("sig");
    runner::Campaign reference(benchNameFor("smoke"), smokeOptions(""));
    declareSmoke(reference);
    ASSERT_TRUE(reference.prepare());
    ASSERT_TRUE(reference.runCellInline(0, 0));

    WelcomeMsg welcome;
    welcome.bench = reference.benchName();
    welcome.trace_dir = "";
    welcome.signature = reference.signature();
    welcome.heartbeat_ms = 60000; // Keep heartbeats off the wire.
    for (size_t u = 0; u < reference.size(); ++u) {
        UnitDecl decl;
        decl.app = static_cast<uint32_t>(reference.unitApp(u));
        decl.mem = reference.unitMem(u);
        decl.small = reference.unitSmall(u) ? 1 : 0;
        decl.specs = reference.unitSpecs(u);
        welcome.units.push_back(std::move(decl));
    }
    AssignMsg assign;
    assign.seq = 1; // Cell (0, 0).

    // Control: the genuine signature runs the cell bit-identically.
    {
        FakeCoordinator coord(tmp.sub("ok.sock").string());
        ASSERT_TRUE(coord.start(welcome));
        ASSERT_TRUE(coord.send(MsgType::ASSIGN, encodeAssign(assign)));
        Frame f;
        ASSERT_TRUE(coord.recv(f));
        ASSERT_EQ(f.type, MsgType::RESULT);
        ResultMsg result;
        ASSERT_TRUE(decodeResult(f.payload, result));
        EXPECT_EQ(result.ok, 1);
        EXPECT_TRUE(result.result == reference.result(0).rows[0].result);
        EXPECT_EQ(result.has_trace, 1);
        ASSERT_TRUE(coord.send(MsgType::SHUTDOWN, ""));
        EXPECT_EQ(coord.exitCode(), 0);
    }

    // A tampered signature: the worker exits non-zero and the ASSIGN
    // already queued behind the WELCOME never produces a RESULT.
    {
        FakeCoordinator coord(tmp.sub("bad.sock").string());
        WelcomeMsg tampered = welcome;
        tampered.signature ^= 1;
        ASSERT_TRUE(coord.start(tampered));
        coord.send(MsgType::ASSIGN, encodeAssign(assign));
        Frame f;
        EXPECT_FALSE(coord.recv(f)) << "worker answered a frame";
        EXPECT_EQ(coord.exitCode(), 1);
    }
}

TEST_F(SvcTest, DuplicateRemoteRowIsAbsorbedMismatchIsNot)
{
    TempDir tmp("dup");
    runner::Campaign campaign(benchNameFor("smoke"),
                              smokeOptions(tmp.str()));
    declareSmoke(campaign);
    ASSERT_TRUE(campaign.prepare());
    ASSERT_TRUE(campaign.runCellInline(0, 0));
    core::RunResult r = campaign.result(0).rows[0].result;
    sim::SampleSummary s = campaign.result(0).row_sampling[0];

    // The same bits again: at-least-once redelivery, harmless.
    EXPECT_EQ(campaign.acceptRemoteRow(0, 0, r, s, 1.0),
              runner::Campaign::Accept::DUPLICATE);
    // Different bits: two workers disagreeing on a deterministic
    // cell — poison.
    core::RunResult bad = r;
    bad.cycles += 1;
    EXPECT_EQ(campaign.acceptRemoteRow(0, 0, bad, s, 1.0),
              runner::Campaign::Accept::MISMATCH);
    EXPECT_EQ(campaign.acceptRemoteRow(99, 0, r, s, 1.0),
              runner::Campaign::Accept::BAD_REF);
    // First result wins: the mismatch never overwrote the row.
    EXPECT_TRUE(campaign.result(0).rows[0].result == r);
    campaign.finish();
    EXPECT_EQ(campaign.result(0).row_done[0], 1);
    EXPECT_EQ(campaign.result(0).row_done[1], 0); // Never ran.
}

// --- catalog --------------------------------------------------------

TEST_F(SvcTest, CatalogDeclaresKnownCampaigns)
{
    EXPECT_EQ(benchNameFor("figure3"), "bench_figure3");
    EXPECT_EQ(benchNameFor("smoke"), "svc_smoke");
    EXPECT_EQ(benchNameFor("nope"), "");
    runner::RunnerOptions ro;
    ro.trace_dir = "";
    runner::Campaign campaign("bench_figure3", ro);
    std::string err;
    ASSERT_TRUE(declareCampaign("figure3", true, campaign, &err))
        << err;
    EXPECT_EQ(campaign.size(), 5u); // One unit per application.
    runner::Campaign bad("x", ro);
    std::string err2;
    EXPECT_FALSE(declareCampaign("nope", true, bad, &err2));
    EXPECT_NE(err2.find("unknown campaign"), std::string::npos);
}

} // namespace
} // namespace dsmem::svc
