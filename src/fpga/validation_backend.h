/// @file
/// Abstract validation backend: the seam between the TM runtime and
/// whatever actually runs the ROCoCo reachability check. Three
/// implementations exist:
///
///   * fpga::ValidationPipeline — the in-process worker thread that
///     owns a ValidationEngine (the single-address-space deployment of
///     the paper, Fig. 6 (b));
///   * shard::ShardRouter — S engines validated in the calling thread;
///   * svc::ValidationClient — a socket client of the networked
///     validation service (src/svc), where one server-owned engine and
///     sliding window are shared by many client processes, the way one
///     FPGA serves a whole socket's worth of executors over CCI.
///
/// RococoTm selects the backend from its config; everything above this
/// interface is identical either way.
#pragma once

#include <chrono>
#include <memory>

#include "common/stats.h"
#include "fpga/detector.h"
#include "obs/registry.h"

namespace rococo::fpga {

/// When a caller stops waiting for its verdict; kNoDeadline waits for
/// as long as the verdict takes.
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline kNoDeadline = Deadline::max();

class ValidationBackend
{
  public:
    virtual ~ValidationBackend() = default;

    /// Validate @p request and block until its verdict — as the paper's
    /// executor stalls on the pull queue (Fig. 6 (b)). Shutdown and
    /// backpressure come back as Verdict::kRejected with
    /// obs::AbortReason::kBackpressure. Once @p deadline has passed the
    /// result is Verdict::kTimeout with obs::AbortReason::kTimeout and a
    /// late verdict is discarded; a discarded *commit* still occupied a
    /// cid in the engine window, so the caller must abort the
    /// transaction (never half-commit), as the TM retry loop does.
    virtual core::ValidationResult validate(
        OffloadRequest request, Deadline deadline = kNoDeadline) = 0;

    /// Backend-side counters (verdicts, submissions, queue/backlog
    /// occupancy — see the concrete class for the exact keys).
    virtual CounterBag stats() const = 0;

    /// Export backend metrics into @p registry.
    virtual void export_metrics(obs::Registry& registry) const = 0;

    /// Signature geometry shared with CPU-side eager detection. For the
    /// service client this is derived from the same EngineConfig the
    /// server was started with — the two must agree.
    virtual std::shared_ptr<const sig::SignatureConfig> signature_config()
        const = 0;

    /// Stop the backend; callers still waiting get their real verdict or
    /// a kRejected one, and later calls are rejected. Idempotent.
    virtual void stop() = 0;
};

} // namespace rococo::fpga
