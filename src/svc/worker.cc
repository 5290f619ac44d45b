/**
 * @file
 * One `dsmem_svc worker` process: a thin adapter between the wire
 * protocol and runner::Campaign. The WELCOME's declaration set becomes
 * a journal-less Campaign (its signature checked against the one the
 * coordinator sent), and every ASSIGN runs through
 * Campaign::runCellInline — the same phase-1 retry/backoff, live-point
 * content gate and sampled-vs-exact dispatch the in-process pool and
 * the coordinator's inline fallback use. The worker holds no dispatch
 * policy of its own; it only copies each cell's row, sampling
 * summary, wall time, first-seen trace provenance and fatal error
 * into a RESULT.
 */

#include "svc/worker.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "runner/campaign.h"
#include "svc/protocol.h"
#include "util/failpoint.h"
#include "util/sysinfo.h"

namespace dsmem::svc {

namespace {

int
connectCoordinator(const std::string &path, std::string *err)
{
    try {
        util::failpoint("svc.connect");
    } catch (const std::exception &e) {
        *err = e.what();
        return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        *err = "socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // Retry briefly: the coordinator binds before spawning, but an
    // externally launched worker may race the listen().
    for (int attempt = 0; attempt < 100; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            *err = std::string("socket: ") + std::strerror(errno);
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        int e = errno;
        ::close(fd);
        if (e != ENOENT && e != ECONNREFUSED) {
            *err = std::string("connect: ") + std::strerror(e);
            return -1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    *err = "connect: coordinator never came up at " + path;
    return -1;
}

/**
 * The WELCOME's declaration set as a journal-less campaign: same
 * bench name, units and sampling plan as the coordinator's, so its
 * signature must match the one the WELCOME carries.
 */
std::unique_ptr<runner::Campaign>
buildCampaign(const WelcomeMsg &w)
{
    runner::RunnerOptions ro;
    ro.trace_dir = w.trace_dir;
    ro.max_attempts = w.max_attempts;
    ro.backoff_base_ms = w.backoff_base_ms;
    ro.backoff_cap_ms = w.backoff_cap_ms;
    ro.sampling = w.plan;
    ro.stream_exec = static_cast<sim::StreamExec>(w.stream_exec);
    auto campaign = std::make_unique<runner::Campaign>(w.bench, ro);
    for (const UnitDecl &u : w.units)
        campaign->add(static_cast<sim::AppId>(u.app), u.specs, u.mem,
                      u.small != 0);
    return campaign;
}

/**
 * Execute one assigned cell through Campaign::runCellInline and copy
 * its outcome into a RESULT; never throws. @p trace_sent marks units
 * whose trace provenance was already reported.
 */
ResultMsg
runCell(runner::Campaign &campaign, std::vector<uint8_t> &trace_sent,
        const AssignMsg &a)
{
    ResultMsg out;
    out.unit = a.unit;
    out.spec = a.spec;
    out.seq = a.seq;
    if (a.unit >= campaign.size() ||
        a.spec >= campaign.unitSpecs(a.unit).size()) {
        out.ok = 0;
        out.error = "assign out of range";
        return out;
    }
    const runner::UnitResult &res = campaign.result(a.unit);
    if (campaign.runCellInline(a.unit, a.spec)) {
        out.result = res.rows[a.spec].result;
        out.sampling = res.row_sampling[a.spec];
        out.wall_ms = res.row_wall_ms[a.spec];
    } else {
        // Permanent (retries already ran here): the coordinator records
        // it and does not re-dispatch the cell.
        const runner::UnitError &e = res.errors.back();
        out.ok = 0;
        out.error = e.site + ": " + e.message;
    }
    if (res.bundle != nullptr) {
        if (!trace_sent[a.unit]) {
            trace_sent[a.unit] = 1;
            out.has_trace = 1;
            out.trace_origin =
                std::string(sim::traceOriginName(res.origin));
            out.trace_instructions = res.bundle->stats.instructions;
            out.trace_wall_ms = res.trace_wall_ms;
            out.gen_ms = res.trace_timing.gen_ms;
            out.load_ms = res.trace_timing.load_ms;
        }
        out.view_bytes_resident = res.bundle->traceBytesResident();
    }
    out.peak_rss_bytes = util::peakRssBytes();
    return out;
}

} // namespace

int
workerMain(const WorkerOptions &opts)
{
    std::signal(SIGPIPE, SIG_IGN);

    std::string err;
    int fd = connectCoordinator(opts.socket_path, &err);
    if (fd < 0) {
        std::fprintf(stderr, "dsmem_svc worker %u: %s\n", opts.id,
                     err.c_str());
        return 1;
    }

    // One mutex serializes the main loop's RESULTs with the
    // heartbeat thread's beats; frames never interleave.
    std::mutex send_mu;
    auto send = [&](MsgType type, const std::string &payload,
                    std::string *e) {
        std::lock_guard<std::mutex> lock(send_mu);
        return sendFrame(fd, "svc.worker.send", type, payload, e);
    };

    HelloMsg hello;
    hello.worker = opts.id;
    hello.pid = static_cast<uint64_t>(::getpid());
    if (!send(MsgType::HELLO, encodeHello(hello), &err)) {
        std::fprintf(stderr, "dsmem_svc worker %u: hello: %s\n",
                     opts.id, err.c_str());
        ::close(fd);
        return 1;
    }

    Frame frame;
    if (!recvFrame(fd, "svc.worker.recv", frame, &err) ||
        frame.type != MsgType::WELCOME) {
        std::fprintf(stderr, "dsmem_svc worker %u: welcome: %s\n",
                     opts.id, err.c_str());
        ::close(fd);
        return 1;
    }
    WelcomeMsg cfg;
    if (!decodeWelcome(frame.payload, cfg)) {
        std::fprintf(stderr,
                     "dsmem_svc worker %u: malformed welcome\n",
                     opts.id);
        ::close(fd);
        return 1;
    }
    // A worker whose declaration set hashes differently would compute
    // some other campaign's cells; refuse before running any.
    std::unique_ptr<runner::Campaign> campaign = buildCampaign(cfg);
    if (campaign->signature() != cfg.signature) {
        std::fprintf(stderr,
                     "dsmem_svc worker %u: campaign signature mismatch "
                     "(welcome %016llx, declared units %016llx); "
                     "refusing to run cells\n",
                     opts.id,
                     static_cast<unsigned long long>(cfg.signature),
                     static_cast<unsigned long long>(
                         campaign->signature()));
        ::close(fd);
        return 1;
    }
    if (!campaign->prepare()) {
        std::fprintf(stderr, "dsmem_svc worker %u: %s", opts.id,
                     campaign->failureSummary().c_str());
        ::close(fd);
        return 1;
    }
    std::vector<uint8_t> trace_sent(campaign->size(), 0);

    // Heartbeat thread: renews the coordinator's lease while a long
    // phase-1 generation or phase-2 run keeps the main loop busy.
    std::atomic<bool> stop{false};
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    std::thread heartbeat([&] {
        uint64_t beats = 0;
        const auto period =
            std::chrono::milliseconds(std::max<uint32_t>(
                cfg.heartbeat_ms, 1));
        std::unique_lock<std::mutex> lock(hb_mu);
        while (!stop.load()) {
            if (hb_cv.wait_for(lock, period,
                               [&] { return stop.load(); }))
                break;
            HeartbeatMsg hb{opts.id, ++beats};
            std::string ignored;
            if (!send(MsgType::HEARTBEAT, encodeHeartbeat(hb),
                      &ignored))
                break; // Coordinator gone; main loop will see EOF.
        }
    });
    auto joinHeartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mu);
            stop.store(true);
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    int code = 1;
    for (;;) {
        if (!recvFrame(fd, "svc.worker.recv", frame, &err)) {
            std::fprintf(stderr, "dsmem_svc worker %u: %s\n", opts.id,
                         err.c_str());
            break;
        }
        if (frame.type == MsgType::SHUTDOWN) {
            code = 0;
            break;
        }
        if (frame.type != MsgType::ASSIGN)
            continue; // Unknown frame types are ignored, not fatal.
        AssignMsg assign;
        if (!decodeAssign(frame.payload, assign)) {
            std::fprintf(stderr,
                         "dsmem_svc worker %u: malformed assign\n",
                         opts.id);
            break;
        }
        ResultMsg result = runCell(*campaign, trace_sent, assign);
        if (!send(MsgType::RESULT, encodeResult(result), &err)) {
            std::fprintf(stderr, "dsmem_svc worker %u: result: %s\n",
                         opts.id, err.c_str());
            break;
        }
    }

    joinHeartbeat();
    ::close(fd);
    return code;
}

} // namespace dsmem::svc
