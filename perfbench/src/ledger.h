#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"

// ------------------------------------------------------------------
// What every benchmark op is checked and measured with: the result
// digest and its goldens, the paper-accuracy figure, per-op peak RSS,
// host provenance, and the span ledger of the traced replay. Nothing
// here runs a workload (workloads.h does).
// ------------------------------------------------------------------

namespace perfbench {

/** One phase-2 result row, as the digest sees it. */
struct Row {
    std::string app;  ///< sim::appName of the unit, or "synthetic".
    std::string spec; ///< sim::ModelSpec::label().
    dsmem::core::RunResult result;
};

/** The rows of one declared unit, in spec order. */
struct UnitRows {
    uint32_t miss_latency = 50;
    std::vector<Row> rows;
};

/**
 * FNV-1a 64 over every row's --stable-json projection (app, spec
 * label and every RunResult field; no wall clock, no provenance), in
 * declaration order. Two ops agree on it iff they produced
 * bit-identical results.
 */
uint64_t digestRows(const std::vector<UnitRows> &units);

/** "0x" + 16 lowercase hex digits. */
std::string hex64(uint64_t v);

/** The paper's headline: RC DS-16/32/64 hide 33/63/81% of read
 *  latency at a 50-cycle miss penalty (section 4.1). */
inline constexpr std::array<double, 3> kPaperHiddenPct = {33.0, 63.0,
                                                          81.0};

/** mean over W of |measured_pct[W] - kPaperHiddenPct[W]|, in
 *  percentage points. */
double paperErrPp(const std::array<double, 3> &measured_pct);

/**
 * The five-app mean RC DS-16/32/64 hidden read fraction (percent) of
 * the first 50-cycle unit of each app, each against that unit's BASE
 * row. Throws std::runtime_error when a unit lacks those rows.
 */
std::array<double, 3> paperHiddenPct(const std::vector<UnitRows> &units);

/**
 * Goldens kept with the benchmark (golden.txt: "key value" lines,
 * '#' comments). Keys: "paper.digest", "paper.err_pp",
 * "long_trace.<instructions>.<seed>.digest".
 */
class Goldens
{
  public:
    /** Throws std::runtime_error when @p path cannot be read. */
    static Goldens load(const std::string &path);
    static Goldens parse(std::istream &in);
    /** Empty when the key is absent. */
    std::string get(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Start a fresh peak-RSS window: return freed heap to the kernel and
 * reset this process's VmHWM to its current RSS (/proc/self/clear_refs
 * "5"), so an op's peak never inherits setup's high-water mark. False
 * when the kernel refuses the reset.
 */
bool resetPeakRss();

/** VmHWM of this process in bytes (0 when unreadable). */
uint64_t peakRssBytes();

/** User + system CPU seconds of this process and its reaped
 *  children (the service's workers). */
double cpuSeconds();

/** Where the numbers were measured. */
struct Host {
    std::string cpu;
    unsigned nproc = 0;
    uint64_t l2_bytes = 0;
    uint64_t l3_bytes = 0;
    std::string simd_isa;          ///< Sweep ISA actually executed.
    std::string stream_policy;     ///< Default residency policy.
    uint64_t stream_threshold = 0; ///< Flat bytes above which auto streams.
};

Host probeHost();

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The traced replay's span ledger: wall seconds and call counts per
 * layer call, kept in memory and read out when the replay ends.
 * Spans are flat (the replay never nests layer calls), so a span's
 * self time is its duration.
 */
class Spans
{
  public:
    template <typename F>
    decltype(auto) time(const std::string &name, F &&f)
    {
        struct Stop {
            Spans &spans;
            const std::string &name;
            Clock::time_point t0 = Clock::now();
            ~Stop() { spans.add(name, secondsSince(t0)); }
        } stop{*this, name};
        return std::forward<F>(f)();
    }

    void add(const std::string &name, double seconds);
    double seconds(const std::string &name) const;
    uint64_t calls(const std::string &name) const;
    /** Sum over every span. */
    double total() const;

  private:
    std::map<std::string, std::pair<double, uint64_t>> spans_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
