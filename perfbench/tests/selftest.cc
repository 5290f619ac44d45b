/**
 * @file
 * Self-tests of the benchmark's own checks: the paper-accuracy
 * formula, the result digest, the goldens it is checked against, and
 * the traced replay's bit-identity with the untraced op. Run with
 * `python3 perfbench/run.py --selftest` (which also checks the metric
 * names against BENCHMARK.json).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "ledger.h"
#include "workloads.h"

using namespace perfbench;

namespace {

namespace fs = std::filesystem;

/** A temporary directory under $TMPDIR, removed on destruction. */
struct TempDir {
    std::string path;

    explicit TempDir(const std::string &name)
        : path((fs::temp_directory_path() /
                ("perfbench_selftest." + name + "." +
                 std::to_string(::getpid())))
                   .string())
    {
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

/** A short long_trace: same code path, milliseconds per op. */
BenchConfig
shortLongTrace(const std::string &dir)
{
    BenchConfig cfg;
    cfg.workload = Workload::LongTrace;
    cfg.long_instructions = 200'000;
    cfg.work_dir = dir;
    return cfg;
}

} // namespace

// The measured five-app means (golden.txt's paper.err_pp run), shown
// rounded as 49/78/94% in the report, are 14.4 pp from the paper's
// 33/63/81%.
TEST(PaperErr, FormulaGivesFourteenPointFour)
{
    EXPECT_NEAR(paperErrPp({48.9205, 77.7206, 93.5747}), 14.4053, 1e-4);
    EXPECT_DOUBLE_EQ(paperErrPp({33.0, 63.0, 81.0}), 0.0);
    // An absolute error: overshoot and undershoot both count.
    EXPECT_DOUBLE_EQ(paperErrPp({30.0, 66.0, 81.0}), 2.0);
}

TEST(Goldens, CoverEverySeedAndThePaper)
{
    const Goldens g = Goldens::load(PERFBENCH_GOLDEN);
    EXPECT_FALSE(g.get("paper.digest").empty());
    EXPECT_NEAR(std::stod(g.get("paper.err_pp")), 14.4, 0.05);
    for (uint64_t seed = 0; seed < kLongTraceSeeds; ++seed) {
        BenchConfig cfg;
        cfg.workload = Workload::LongTrace;
        cfg.seed = seed;
        cfg.work_dir = fs::temp_directory_path().string();
        EXPECT_FALSE(g.get(Bench(cfg).digestKey() + ".digest").empty())
            << "seed " << seed;
    }
}

TEST(Digest, OneFlippedResultBitFailsTheCheck)
{
    TempDir dir("digest");
    Bench bench(shortLongTrace(dir.path));
    bench.setup();
    const OpResult op = bench.op();
    ASSERT_TRUE(op.error.empty()) << op.error;

    std::istringstream golden(bench.digestKey() + ".digest " +
                              hex64(digestRows(op.units)) + "\n");
    const Goldens goldens = Goldens::parse(golden);
    ASSERT_EQ(bench.check(op.units, &goldens), "");

    // Every field of the RunResult is covered.
    using dsmem::core::RunResult;
    uint64_t RunResult::*fields[] = {
        &RunResult::cycles, &RunResult::instructions,
        &RunResult::branches, &RunResult::mispredicts,
        &RunResult::read_misses};
    for (auto field : fields) {
        std::vector<UnitRows> bad = op.units;
        bad[0].rows[2].result.*field ^= 1;
        EXPECT_NE(bench.check(bad, &goldens), "");
    }
    using dsmem::core::Breakdown;
    uint64_t Breakdown::*parts[] = {&Breakdown::busy, &Breakdown::sync,
                                    &Breakdown::read, &Breakdown::write,
                                    &Breakdown::pipeline};
    for (auto part : parts) {
        std::vector<UnitRows> bad = op.units;
        bad[0].rows[4].result.breakdown.*part ^= uint64_t{1} << 40;
        EXPECT_NE(bench.check(bad, &goldens), "");
    }
}

TEST(Digest, MissingGoldenFailsTheCheck)
{
    TempDir dir("missing");
    Bench bench(shortLongTrace(dir.path));
    bench.setup();
    const OpResult op = bench.op();
    std::istringstream empty("");
    const Goldens goldens = Goldens::parse(empty);
    EXPECT_NE(bench.check(op.units, &goldens), "");
}

class ReplayTest : public ::testing::TestWithParam<Workload>
{
};

// The traced replay calls the layers one at a time; its results must
// be bit-identical to the untraced op's, and its spans must cover the
// layers the workload exercises.
TEST_P(ReplayTest, BitIdenticalToTheOp)
{
    TempDir dir(workloadName(GetParam()));
    BenchConfig cfg = shortLongTrace(dir.path);
    cfg.workload = GetParam();
    cfg.small = true;
    Bench bench(cfg);
    bench.setup();
    const OpResult op = bench.op();
    ASSERT_TRUE(op.error.empty()) << op.error;
    ASSERT_EQ(bench.check(op.units, nullptr), "");
    const Replay r = bench.replay();
    EXPECT_EQ(digestRows(r.units), digestRows(op.units));
    EXPECT_GT(r.sim_cycles, 0u);
    EXPECT_GT(r.groups, 0u);

    switch (GetParam()) {
    case Workload::PaperCold:
        EXPECT_EQ(r.mp_traces, 10u);
        EXPECT_GT(r.spans.seconds("mp.generate"), 0.0);
        EXPECT_GT(r.written_bytes, 0u);
        EXPECT_GT(r.fused_rows, 0u);
        EXPECT_GT(r.spans.seconds("runner.export"), 0.0);
        break;
    case Workload::PaperWarm:
        EXPECT_EQ(r.mp_traces, 0u);
        EXPECT_EQ(r.spans.calls("runner.store_read"), 10u);
        EXPECT_GT(r.spans.seconds("core.phase2.ds"), 0.0);
        EXPECT_GT(r.spans.seconds("core.phase2.static"), 0.0);
        break;
    case Workload::SvcWarm:
        EXPECT_EQ(r.svc.dispatched, 185u);
        EXPECT_EQ(r.svc.redispatched, 0u);
        EXPECT_EQ(r.svc.duplicates, 0u);
        EXPECT_EQ(r.svc.worker_deaths, 0u);
        EXPECT_GT(r.worker_row_s, 0.0);
        EXPECT_EQ(r.fused_rows, 0u);
        break;
    case Workload::LongTrace:
        EXPECT_EQ(r.spans.calls("trace.decode"), 1u);
        EXPECT_EQ(r.fused_rows, 5u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ReplayTest,
    ::testing::Values(Workload::PaperCold, Workload::PaperWarm,
                      Workload::SvcWarm, Workload::LongTrace),
    [](const ::testing::TestParamInfo<Workload> &info) {
        return std::string(workloadName(info.param));
    });

// svc_warm must reproduce paper_warm's results exactly.
TEST(Replay, ServiceMatchesInProcess)
{
    TempDir warm_dir("warm"), svc_dir("svc");
    BenchConfig cfg;
    cfg.small = true;
    cfg.workload = Workload::PaperWarm;
    cfg.work_dir = warm_dir.path;
    Bench warm(cfg);
    cfg.workload = Workload::SvcWarm;
    cfg.work_dir = svc_dir.path;
    Bench svc(cfg);
    warm.setup();
    svc.setup();
    EXPECT_EQ(digestRows(svc.op().units), digestRows(warm.op().units));
}
