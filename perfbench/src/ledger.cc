#include "ledger.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/dynamic_processor.h"
#include "sim/experiment.h"
#include "sim/stream_exec.h"
#include "util/sysinfo.h"

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void
fnv(uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
}

} // namespace

uint64_t
digestRows(const std::vector<UnitRows> &units)
{
    uint64_t h = kFnvOffset;
    for (const UnitRows &unit : units) {
        for (const Row &row : unit.rows) {
            const dsmem::core::RunResult &r = row.result;
            const dsmem::core::Breakdown &bd = r.breakdown;
            std::ostringstream line;
            line << row.app << '|' << unit.miss_latency << '|'
                 << row.spec << '|' << r.cycles << '|' << bd.busy
                 << '|' << bd.sync << '|' << bd.read << '|' << bd.write
                 << '|' << bd.pipeline << '|' << r.instructions << '|'
                 << r.branches << '|' << r.mispredicts << '|'
                 << r.read_misses << '\n';
            fnv(h, line.str());
        }
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
paperErrPp(const std::array<double, 3> &measured_pct)
{
    double sum = 0.0;
    for (size_t w = 0; w < measured_pct.size(); ++w)
        sum += std::fabs(measured_pct[w] - kPaperHiddenPct[w]);
    return sum / static_cast<double>(measured_pct.size());
}

std::array<double, 3>
paperHiddenPct(const std::vector<UnitRows> &units)
{
    static const char *const kLabels[3] = {"RC DS-16", "RC DS-32",
                                           "RC DS-64"};
    std::array<double, 3> sum{};
    std::vector<std::string> seen;
    for (const UnitRows &unit : units) {
        if (unit.miss_latency != 50 || unit.rows.empty() ||
            std::find(seen.begin(), seen.end(),
                      unit.rows.front().app) != seen.end())
            continue;
        const Row *base = nullptr;
        std::array<const Row *, 3> ds{};
        for (const Row &row : unit.rows) {
            if (row.spec == "BASE")
                base = &row;
            for (size_t w = 0; w < 3; ++w)
                if (row.spec == kLabels[w])
                    ds[w] = &row;
        }
        if (!base || !ds[0] || !ds[1] || !ds[2])
            throw std::runtime_error(
                "paper unit of " + unit.rows.front().app +
                " lacks BASE or RC DS-16/32/64 rows");
        seen.push_back(unit.rows.front().app);
        for (size_t w = 0; w < 3; ++w)
            sum[w] += 100.0 * dsmem::sim::hiddenReadFraction(
                                  base->result, ds[w]->result);
    }
    if (seen.size() != 5)
        throw std::runtime_error("paper_err_pp needs five 50-cycle "
                                 "apps, got " +
                                 std::to_string(seen.size()));
    for (double &s : sum)
        s /= static_cast<double>(seen.size());
    return sum;
}

Goldens
Goldens::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read goldens " + path);
    return parse(in);
}

Goldens
Goldens::parse(std::istream &in)
{
    Goldens g;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream is(line);
        std::string key, value;
        if (!(is >> key) || key[0] == '#' || !(is >> value))
            continue;
        g.values_[key] = value;
    }
    return g;
}

std::string
Goldens::get(const std::string &key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
}

bool
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
    refs.flush();
    return static_cast<bool>(refs);
}

uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10) << 10;
    return 0;
}

double
cpuSeconds()
{
    double sum = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        struct rusage ru {};
        if (getrusage(who, &ru) != 0)
            continue;
        for (const timeval &tv : {ru.ru_utime, ru.ru_stime})
            sum += static_cast<double>(tv.tv_sec) +
                1e-6 * static_cast<double>(tv.tv_usec);
    }
    return sum;
}

Host
probeHost()
{
    Host h;
    h.cpu = dsmem::util::hostCpuModel();
    h.nproc = dsmem::util::hostCores();
    h.l2_bytes = dsmem::util::hostCacheBytes(2);
    h.l3_bytes = dsmem::util::hostCacheBytes(3);
    h.simd_isa = dsmem::core::solActiveIsaName();
    h.stream_policy =
        dsmem::sim::streamExecName(dsmem::sim::streamExecFromEnv());
    h.stream_threshold = dsmem::sim::streamThresholdBytes();
    return h;
}

void
Spans::add(const std::string &name, double seconds)
{
    auto &[secs, calls] = spans_[name];
    secs += seconds;
    ++calls;
}

double
Spans::seconds(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : it->second.first;
}

uint64_t
Spans::calls(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? 0 : it->second.second;
}

double
Spans::total() const
{
    double sum = 0.0;
    for (const auto &[name, span] : spans_)
        sum += span.first;
    return sum;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
