/// @file
/// The networked validation service: a server-owned validation tier
/// (one cid space) shared by every connected client process — the
/// deployment shape of the paper's Fig. 6 (b). The CCI link's shared
/// cache-line queues become a pair of shared-memory byte rings per
/// client (svc/ring.h), handed over the connection's Unix-domain socket
/// when the client attaches; peers that do not attach (svcctl, raw
/// wire tests) speak the same frames over the socket itself. With
/// ServerConfig::shards == 1 that
/// tier is a single ValidationEngine (one sliding window); with more,
/// a shard::ShardRouter spreads the address space across several
/// engines while keeping the wire contract and the global cid space
/// unchanged (src/shard/router.h). Where the
/// hardware amortizes link latency by packing requests into cacheline
/// writes (§5.3), the server amortizes syscall cost by *adaptive
/// batching*: each pass over the engine drains whatever requests
/// accumulated while the previous pass ran (up to max_batch), and all
/// responses of a pass leave in one ring write (or send()) per
/// connection. No batching
/// timer exists — a lone request is processed immediately, so batching
/// never adds idle latency.
///
/// Service contract:
///   * bounded queue — at most max_pending requests wait for the
///     engine; beyond that the server answers Verdict::kRejected /
///     AbortReason::kBackpressure immediately instead of queueing
///     (explicit backpressure, never unbounded growth);
///   * deadlines — a request whose relative wire deadline elapses while
///     it waits is answered Verdict::kTimeout without an engine pass;
///   * accounting — every well-formed request is answered exactly once,
///     so svc.requests == sum(svc.verdict.*) + svc.timeout +
///     svc.rejected at all times (scripts/check_trace_json.py checks
///     this invariant on exported telemetry);
///   * a malformed frame closes the connection; its already-queued
///     requests are still answered (responses to a closed connection
///     are dropped after accounting);
///   * bounded output — at most max_out_bytes of unsent responses are
///     buffered per connection; a peer that floods requests without
///     reading responses is disconnected (svc.overflow) instead of
///     growing the buffer without bound;
///   * bounded input — each service pass reads a fixed byte budget per
///     connection (at most one ring's worth), so a peer that writes
///     faster than the engine drains cannot capture the service thread
///     or grow the frame buffer without bound; the remainder waits in
///     the ring or the kernel and other connections (including
///     kSnapshot pollers) stay live;
///   * untrusted segments — every index a peer can write is checked
///     before use; one that is impossible (a head past the ring's
///     capacity or behind the tail, a tail ahead of the head) closes
///     that connection as malformed, and nothing outside the segment is
///     ever read or written.
///
/// Every connection carries a monotonically increasing generation id,
/// and queued requests are answered against (fd, generation): when the
/// kernel recycles a closed connection's fd number for a new accept(),
/// the old connection's still-queued verdicts are dropped (after
/// accounting) rather than delivered to the new client.
///
/// Control ops: a kSnapshot frame is answered inline from read_client()
/// with a kSnapshotReply carrying one JSON operator view — the service
/// and shard metrics, the monitor's rings and SLO verdicts, and the
/// conflict top-K table — with no engine pass, never queued, never
/// counted in svc.requests (it bumps svc.snapshot instead), so live
/// inspection cannot perturb the accounting invariant or evict window
/// slots. kDump (manual flight-recorder incident, svc.dump) follows the
/// same inline contract. Per-stage latency is
/// attributed into svc.stage.{server_queue,batch_wait,engine,link}
/// histograms and shipped back to the client in every response
/// (wire.h StageTimestamps); when a request carries a trace id and
/// a tracer is active, the engine pass emits a server-side span plus a
/// Perfetto flow-end event binding it to the client's span.
///
/// Threading: start() spawns one thread whose loop sweeps every
/// attached connection's request ring, polls the sockets (accepts,
/// doorbells, EOFs, raw-socket peers), decodes, answers the inline
/// control ops, runs the engine batch (process_batch() calls the router
/// inline), writes responses, and does all svc.* accounting, the
/// monitor tick and incident dumps — one drainer taking requests in
/// arrival order, as in Fig. 6 (b). Idle, it spins on the rings for the
/// spin budget, then marks every request ring parked and sleeps in
/// poll() until a doorbell or a socket event; busy, it polls the
/// sockets at least once per spin budget, so a steady stream through
/// the rings makes no syscall. The public API
/// (start/stop/stats/export_metrics) is thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/registry.h"
#include "shard/router.h"
#include "svc/ring.h"
#include "svc/wire.h"

namespace rococo::svc {

struct ServerConfig
{
    /// Filesystem path of the Unix-domain listening socket (replaced
    /// on start). Clients attach through it to their ring segments.
    std::string socket_path = "/tmp/rococo-validation.sock";
    /// Engine geometry; clients must be configured identically so their
    /// locally derived SignatureConfig agrees with the server's.
    fpga::EngineConfig engine;
    /// Validation shards (>= 1). 1 keeps the single-engine service;
    /// > 1 hash-partitions the address space across that many engines
    /// behind a shard::ShardRouter (each with its own window and the
    /// cross-shard two-phase coordinator), multiplying window capacity.
    /// Clients are unaffected: the wire contract and the global cid
    /// space are identical either way.
    uint32_t shards = 1;
    /// Max requests per engine pass (>= 1). 1 disables batching.
    size_t max_batch = 16;
    /// Bound on requests waiting for the engine; overflow is answered
    /// kRejected (backpressure) instead of queued.
    size_t max_pending = 1024;
    /// Bound on unsent response bytes buffered per connection. A peer
    /// that submits requests but stops reading responses is closed when
    /// its buffer would exceed this (raised to at least max_pending
    /// response frames; 0 selects the default).
    size_t max_out_bytes = 1 << 20;
    /// Flight recorder (obs/flight_recorder.h). recorder.enabled = true
    /// turns it on, and with it the monitor below even when
    /// monitor.enabled is false: incidents embed the monitor's rings,
    /// and its critical SLO transitions are the recorder's automatic
    /// trigger ("slo:<rule>"; kDump adds manual ones). Dumps run on
    /// the service thread, which is also the sole server-side span
    /// writer, so recorder.include_trace is safe here.
    obs::FlightRecorderConfig recorder;
    /// Continuous monitoring (obs/health.h): a MetricSampler over the
    /// service series (request rate, abort ratio, engine p99, queue
    /// depth, window occupancy, connections, shard.imbalance) plus the
    /// SLO burn-rate rules, ticked on the service thread and served in
    /// the "monitor" section of the kSnapshot reply. On by default —
    /// turning the *service* on is the opt-in. A queue_threshold of 0
    /// defaults to 90% of max_pending; SLO breaches dump incidents only
    /// when the flight recorder is armed too (which also forces the
    /// monitor on).
    obs::MonitorConfig monitor;
};

/// Single-accelerator validation server.
class Server
{
  public:
    explicit Server(const ServerConfig& config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen and spawn the service thread. The socket is bound
    /// under a temporary name and renamed onto socket_path after
    /// listen(), so the path appears only once connect() can succeed.
    /// False (with the socket cleaned up) if the path cannot be bound.
    bool start();

    /// Stop the service thread, set every segment's closed word, close
    /// every connection and answer all still-queued requests as
    /// kRejected (the answers are dropped with the connections, but the
    /// accounting invariant holds). Idempotent.
    void stop();

    bool running() const { return running_; }
    const std::string& socket_path() const { return config_.socket_path; }

    /// Counters-only snapshot of the service metrics (svc.* keys).
    CounterBag stats() const;

    /// Merge the full service registry (counters, svc.queue_depth
    /// gauge, svc.batch_size / svc.rpc_ns histograms) into @p registry.
    void export_metrics(obs::Registry& registry) const;

  private:
    struct Connection
    {
        uint64_t generation = 0; ///< unique per accept(); outlives fd reuse
        FrameReader reader;
        std::vector<uint8_t> out; ///< encoded responses not yet sent
        size_t out_off = 0;       ///< bytes of out already sent
        /// The peer half-closed: no more requests come, but the ones it
        /// sent are answered before the connection closes.
        bool eof = false;
        /// Set once the peer attached (kAttach): its frames then travel
        /// through the segment's rings, and the socket carries only
        /// doorbells and EOF.
        SegmentMapping segment;
        RingReader requests;
        RingWriter responses;
    };

    /// A well-formed request waiting for the engine.
    struct Pending
    {
        int fd = -1; ///< originating connection (may close before reply)
        uint64_t generation = 0; ///< guards against fd reuse after close
        uint64_t request_id = 0;
        uint64_t arrival_ns = 0;
        uint64_t deadline_ns = 0; ///< relative to arrival; 0 = none
        uint64_t trace_id = 0;       ///< flow-event binding id (0 = none)
        uint64_t parent_span_id = 0; ///< client span this request came from
        fpga::OffloadRequest offload;
    };

    void loop();
    void accept_clients();
    /// Read what the socket holds: frames from a raw-socket peer, or an
    /// attached peer's doorbells and EOF.
    void read_client(int fd);
    /// Read every attached connection's request ring; @p fds is reused
    /// storage.
    void read_rings(std::vector<int>& fds);
    /// Decode the frames buffered in @p fd's reader: queue requests,
    /// answer control ops, attach.
    void decode_frames(int fd);
    /// Answer kAttach: create the connection's segment and send it.
    void attach(int fd);
    bool rings_readable() const;
    /// Mark every request ring parked, and every response ring holding
    /// back output as waiting for space, before the service sleeps;
    /// false (none marked) when a request landed or space was freed
    /// meanwhile.
    bool park_rings();
    void unpark_rings();
    void close_client(int fd);
    /// Answer a kSnapshot frame inline with the operator view:
    /// {"metrics": registry + router snapshot, "monitor": the monitor's
    /// rings + health verdicts (or {"enabled": false} without a
    /// monitor), "topk": the router's conflict top-K table}. False if
    /// the connection had to be closed (outbound cap).
    bool handle_snapshot(int fd);
    /// Answer a kDump frame inline: trigger a manual flight-recorder
    /// incident dump and reply with its path (or an error when the
    /// recorder is disabled). Same contract as handle_snapshot().
    bool handle_dump(int fd);
    /// Queue a control reply of @p type on @p fd. False if the
    /// connection was closed for exceeding the outbound cap.
    bool reply(int fd, MsgType type, std::string_view json);
    /// Queue @p result on the connection currently at @p fd iff its
    /// generation matches. False if the answer was dropped (connection
    /// gone or fd recycled) or the connection was closed for exceeding
    /// the outbound cap — either way @p fd must not be touched again.
    bool respond(int fd, uint64_t generation, uint64_t request_id,
                 const core::ValidationResult& result,
                 const StageTimestamps& stages);
    void process_batch();
    void flush(int fd);

    ServerConfig config_;
    shard::ShardRouter router_;
    /// Present iff config_.recorder.enabled; dumped from kDump handling
    /// and from the monitor's SLO hook (both on the service thread).
    std::unique_ptr<obs::FlightRecorder> recorder_;
    /// Present iff config_.monitor.enabled or config_.recorder.enabled;
    /// ticked from the service loop. Its gauge/callback series read
    /// service-thread state (pending_, connections_, the router), which
    /// is safe because every tick happens on the service thread.
    std::unique_ptr<obs::HealthMonitor> monitor_;

    int listen_fd_ = -1;
    int wake_fds_[2] = {-1, -1}; ///< self-pipe: stop() wakes poll()
    std::map<int, Connection> connections_;
    std::deque<Pending> pending_;
    uint64_t next_generation_ = 0;

    std::atomic<bool> running_{false};
    std::thread thread_;

    obs::Registry registry_; ///< svc.* metrics (thread-safe)

    /// Metric handles hoisted out of the service loop: Registry lookup
    /// takes a mutex and builds a name string per call; the references
    /// stay valid for the registry's lifetime (obs/registry.h), so
    /// resolve each metric once at construction.
    obs::Counter& requests_;
    obs::Counter& rejected_;
    obs::Counter& timeout_;
    obs::Counter& snapshot_polls_;
    obs::Counter& dump_requests_;
    obs::Counter& overflow_;
    obs::Counter& malformed_;
    obs::Counter& disconnects_;
    obs::Counter& accepts_;
    obs::Counter& doorbells_; ///< response-ring doorbells sent
    obs::Counter* verdict_[core::kVerdictCount];
    obs::Gauge& queue_depth_;
    obs::Gauge& window_occupancy_;
    obs::Gauge& connections_open_;
    obs::LatencyHistogram& rpc_ns_;
    obs::LatencyHistogram& batch_size_;
    obs::LatencyHistogram& stage_server_queue_;
    obs::LatencyHistogram& stage_batch_wait_;
    obs::LatencyHistogram& stage_engine_;
    obs::LatencyHistogram& stage_link_;
    obs::LatencyHistogram& stage_shard_route_;
    obs::LatencyHistogram& stage_shard_coord_;
};

} // namespace rococo::svc
