#ifndef DSMEM_SVC_WORKER_H
#define DSMEM_SVC_WORKER_H

#include <cstdint>
#include <string>

namespace dsmem::svc {

struct WorkerOptions {
    std::string socket_path; ///< Coordinator's AF_UNIX listen path.
    uint32_t id = 0;         ///< Slot id assigned by the coordinator.
};

/**
 * Entry point of one worker process (`dsmem_svc worker`): connect to
 * the coordinator, introduce itself (HELLO), receive the campaign
 * declaration (WELCOME), then loop running ASSIGNed cells and
 * reporting RESULTs while a background thread heartbeats the lease.
 *
 * Cells execute through runner::Campaign::runCellInline on a
 * journal-less Campaign built from the WELCOME; a WELCOME whose
 * signature does not match its own declaration set is refused before
 * any cell runs. Across cells the worker keeps only caches (trace
 * bundles, live points): every phase-2 result is computed from the
 * immutable trace view alone, so the coordinator may kill, respawn,
 * or re-assign at any moment and the recomputed bits are identical.
 * Returns the process exit code (0 = orderly SHUTDOWN, 1 = connection
 * lost, protocol error or signature mismatch).
 */
int workerMain(const WorkerOptions &opts);

} // namespace dsmem::svc

#endif // DSMEM_SVC_WORKER_H
