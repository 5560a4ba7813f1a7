#include "svc/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace rococo::svc {
namespace {

bool
set_nonblocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

shard::ShardConfig
router_config(const ServerConfig& config)
{
    shard::ShardConfig sharded;
    sharded.shards = std::max<uint32_t>(1, config.shards);
    sharded.engine = config.engine;
    return sharded;
}

} // namespace

Server::Server(const ServerConfig& config)
    : config_(config), router_(router_config(config)),
      requests_(registry_.counter("svc.requests")),
      rejected_(registry_.counter("svc.rejected")),
      timeout_(registry_.counter("svc.timeout")),
      snapshot_polls_(registry_.counter("svc.snapshot")),
      dump_requests_(registry_.counter("svc.dump")),
      overflow_(registry_.counter("svc.overflow")),
      malformed_(registry_.counter("svc.malformed")),
      disconnects_(registry_.counter("svc.disconnects")),
      accepts_(registry_.counter("svc.connections")),
      queue_depth_(registry_.gauge("svc.queue_depth")),
      window_occupancy_(registry_.gauge("svc.window_occupancy")),
      connections_open_(registry_.gauge("svc.connections_open")),
      rpc_ns_(registry_.histogram("svc.rpc_ns")),
      batch_size_(registry_.histogram("svc.batch_size")),
      stage_server_queue_(registry_.histogram("svc.stage.server_queue")),
      stage_batch_wait_(registry_.histogram("svc.stage.batch_wait")),
      stage_engine_(registry_.histogram("svc.stage.engine")),
      stage_link_(registry_.histogram("svc.stage.link")),
      stage_shard_route_(registry_.histogram("svc.stage.shard_route")),
      stage_shard_coord_(registry_.histogram("svc.stage.shard_coord"))
{
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        verdict_[i] = &registry_.counter(
            std::string("svc.verdict.") +
            core::to_string(static_cast<core::Verdict>(i)));
    }
    if (config_.max_batch == 0) config_.max_batch = 1;
    if (config_.max_out_bytes == 0) config_.max_out_bytes = 1 << 20;
    config_.max_out_bytes =
        std::max(config_.max_out_bytes, kResponseFrameBytes);

    // An armed recorder needs the monitor: its rings are the incident
    // look-back and its SLO rules the recorder's only automatic trigger.
    if (config_.monitor.enabled || config_.recorder.enabled) {
        const obs::MonitorConfig& mon = config_.monitor;
        obs::MetricSamplerConfig sampler;
        sampler.sample_period_ns = mon.sample_period_ns;
        sampler.ring_capacity = mon.ring_capacity;

        // The sampled service series. Sources are the hoisted handles
        // above (counter reads are lock-free) plus callbacks into
        // service-thread state — safe because the sampler only ever
        // ticks on the service thread.
        obs::SeriesSpec requests;
        requests.name = "svc.requests";
        requests.kind = obs::SeriesKind::kCounter;
        requests.counters = {&requests_};
        sampler.series.push_back(std::move(requests));

        obs::SeriesSpec abort_rate;
        abort_rate.name = "svc.abort_rate";
        abort_rate.kind = obs::SeriesKind::kRatio;
        abort_rate.counters = {
            verdict_[static_cast<size_t>(core::Verdict::kAbortCycle)],
            verdict_[static_cast<size_t>(core::Verdict::kWindowOverflow)]};
        abort_rate.denominators = {&requests_};
        sampler.series.push_back(std::move(abort_rate));

        obs::SeriesSpec rpc_p99;
        rpc_p99.name = "svc.rpc_p99_ns";
        rpc_p99.kind = obs::SeriesKind::kQuantile;
        rpc_p99.histogram = &rpc_ns_;
        sampler.series.push_back(std::move(rpc_p99));

        obs::SeriesSpec engine_p99;
        engine_p99.name = "svc.stage.engine_p99_ns";
        engine_p99.kind = obs::SeriesKind::kQuantile;
        engine_p99.histogram = &stage_engine_;
        sampler.series.push_back(std::move(engine_p99));

        obs::SeriesSpec queue;
        queue.name = "svc.queue_depth";
        queue.kind = obs::SeriesKind::kCallback;
        queue.callback = [this] {
            return static_cast<double>(pending_.size());
        };
        sampler.series.push_back(std::move(queue));

        obs::SeriesSpec occupancy;
        occupancy.name = "svc.window_occupancy";
        occupancy.kind = obs::SeriesKind::kCallback;
        occupancy.callback = [this] {
            return static_cast<double>(router_.occupancy());
        };
        sampler.series.push_back(std::move(occupancy));

        obs::SeriesSpec conns;
        conns.name = "svc.connections_open";
        conns.kind = obs::SeriesKind::kCallback;
        conns.callback = [this] {
            return static_cast<double>(connections_.size());
        };
        sampler.series.push_back(std::move(conns));

        obs::SeriesSpec imbalance;
        imbalance.name = "shard.imbalance";
        imbalance.kind = obs::SeriesKind::kCallback;
        imbalance.callback = [this] { return router_.imbalance(); };
        sampler.series.push_back(std::move(imbalance));

        obs::SloEngineConfig slo;
        const auto rule = [&mon](const char* name, const char* series,
                                 double threshold, double min_weight) {
            obs::SloRule r;
            r.name = name;
            r.series = series;
            r.threshold = threshold;
            r.fast_window_ns = mon.fast_window_ns;
            r.slow_window_ns = mon.slow_window_ns;
            r.min_weight = min_weight;
            r.recovery_samples = mon.recovery_samples;
            return r;
        };
        // Aborts need real traffic behind them (min 16 requests per
        // fast window), so an idle blip cannot trip the rule.
        slo.rules.push_back(
            rule("abort-rate", "svc.abort_rate",
                 mon.abort_rate_threshold, 16.0));
        slo.rules.push_back(
            rule("engine-p99", "svc.stage.engine_p99_ns",
                 static_cast<double>(mon.p99_threshold_ns), 1.0));
        const double queue_threshold =
            mon.queue_threshold > 0.0
                ? mon.queue_threshold
                : 0.9 * static_cast<double>(config_.max_pending);
        slo.rules.push_back(
            rule("queue-depth", "svc.queue_depth", queue_threshold, 1.0));
        slo.rules.push_back(rule("shard-imbalance", "shard.imbalance",
                                 mon.imbalance_threshold, 1.0));

        monitor_ = std::make_unique<obs::HealthMonitor>(std::move(sampler),
                                                        std::move(slo));
    }
    if (config_.recorder.enabled) {
        recorder_ = std::make_unique<obs::FlightRecorder>(
            config_.recorder, [this](obs::Registry& out) {
                out.merge(registry_);
                router_.export_metrics(out);
            });
        recorder_->set_topk_source(
            [this](std::string* out) { router_.topk_json(out); });
        monitor_->set_incident_recorder(recorder_.get());
    }
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
    if (running_) return true;

    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;

    // Bind and listen on a private path, then rename() it onto
    // socket_path: the published path only ever names a socket that
    // already accepts, so a client that sees it can connect at once
    // (binding socket_path directly would expose it between bind()
    // and listen(), where connect() fails with ECONNREFUSED).
    const std::string tmp_path =
        config_.socket_path + "." + std::to_string(getpid()) + ".tmp";
    const auto fail = [&] {
        for (int& fd : wake_fds_) {
            if (fd >= 0) close(fd);
            fd = -1;
        }
        close(listen_fd_);
        listen_fd_ = -1;
        unlink(tmp_path.c_str());
        return false;
    };
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (tmp_path.size() >= sizeof(addr.sun_path)) return fail();
    std::strncpy(addr.sun_path, tmp_path.c_str(), sizeof(addr.sun_path) - 1);
    unlink(tmp_path.c_str());

    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
        listen(listen_fd_, SOMAXCONN) != 0 || !set_nonblocking(listen_fd_) ||
        pipe(wake_fds_) != 0 ||
        std::rename(tmp_path.c_str(), config_.socket_path.c_str()) != 0) {
        return fail();
    }
    set_nonblocking(wake_fds_[0]);

    running_ = true;
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
Server::stop()
{
    if (!running_.exchange(false)) return;
    // Wake the poll() so the loop observes running_ == false.
    const char byte = 0;
    [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
    if (thread_.joinable()) thread_.join();

    // Every still-queued request gets its answer for the accounting
    // invariant; the bytes die with the connections below.
    if (!pending_.empty()) {
        rejected_.add(pending_.size());
        pending_.clear();
    }

    for (auto& [fd, conn] : connections_) close(fd);
    connections_.clear();
    if (listen_fd_ >= 0) close(listen_fd_);
    listen_fd_ = -1;
    for (int& fd : wake_fds_) {
        if (fd >= 0) close(fd);
        fd = -1;
    }
    unlink(config_.socket_path.c_str());

    if (obs::telemetry_active()) {
        obs::Registry::global().merge(registry_);
        router_.export_metrics(obs::Registry::global());
    }
}

void
Server::loop()
{
    std::vector<pollfd> fds;
    std::vector<int> readable, unsent;
    // Connection entries start after the fixed fds: listen and wake.
    constexpr size_t kFirstConn = 2;
    while (running_) {
        fds.clear();
        fds.push_back({listen_fd_, POLLIN, 0});
        fds.push_back({wake_fds_[0], POLLIN, 0});
        for (const auto& [fd, conn] : connections_) {
            short events = POLLIN;
            if (conn.out_off < conn.out.size()) events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }

        // Block only when idle: with work queued, poll() is a
        // zero-timeout drain of whatever arrived during the last batch
        // — that accumulation IS the adaptive batch. With a monitor
        // attached the idle block is capped at its sampling period, so
        // the rings (and the SLO recovery path) keep moving through
        // traffic pauses.
        int timeout_ms = pending_.empty() ? -1 : 0;
        if (monitor_ && timeout_ms < 0) {
            timeout_ms = static_cast<int>(std::clamp<uint64_t>(
                monitor_->sampler().config().sample_period_ns / 1'000'000, 1,
                1000));
        }
        const int ready = poll(fds.data(), fds.size(), timeout_ms);
        if (!running_) break;
        if (ready < 0 && errno != EINTR) break;

        readable.clear();
        for (size_t i = kFirstConn; i < fds.size(); ++i) {
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                readable.push_back(fds[i].fd);
            }
        }
        if (fds[0].revents & POLLIN) accept_clients();
        if (fds[1].revents & POLLIN) {
            char drain[16];
            while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {}
        }
        for (int fd : readable) read_client(fd);
        process_batch();
        // Responses produced this pass leave in one send() per
        // connection — the syscall amortization batching buys. (Collect
        // fds first: flush() may erase the connection.)
        unsent.clear();
        for (const auto& [fd, conn] : connections_) {
            if (conn.out_off < conn.out.size()) unsent.push_back(fd);
        }
        for (int fd : unsent) flush(fd);
        queue_depth_.set(static_cast<double>(pending_.size()));
        if (monitor_) monitor_->tick(obs::now_ns());
    }
}

void
Server::accept_clients()
{
    for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        if (!set_nonblocking(fd)) {
            close(fd);
            continue;
        }
        connections_[fd].generation = ++next_generation_;
        accepts_.add(1);
    }
}

void
Server::read_client(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;

    // Bounded read per pass: a peer that writes faster than the service
    // drains would otherwise never let recv() hit EAGAIN, capturing the
    // service thread in this loop forever — decode, the engine, and
    // every other connection (including kSnapshot pollers) starve while
    // the frame buffer grows without bound. Leftover bytes stay in the
    // kernel; level-triggered poll() re-reports the fd next pass.
    uint8_t buf[64 * 1024];
    size_t read_budget = 4 * sizeof(buf);
    while (read_budget > 0) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.reader.append(buf, static_cast<size_t>(n));
            read_budget -= std::min(read_budget, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close_client(fd); // EOF or hard error
        return;
    }

    const uint64_t now = obs::now_ns();
    const uint64_t generation = conn.generation;
    bool malformed = false;
    while (auto frame = conn.reader.next(&malformed)) {
        if (frame->type == MsgType::kSnapshot ||
            frame->type == MsgType::kDump) {
            // Control path: answered inline, never queued, never an
            // engine pass — a snapshot poll cannot perturb the
            // accounting invariant or evict window slots.
            if (frame->size != 0) {
                malformed = true;
                break;
            }
            const bool ok = frame->type == MsgType::kSnapshot
                                ? handle_snapshot(fd)
                                : handle_dump(fd);
            if (!ok) {
                return; // connection closed (outbound cap); conn dangles
            }
            continue;
        }
        auto request = decode_request(frame->type, frame->payload,
                                      frame->size);
        if (!request) {
            malformed = true;
            break;
        }
        requests_.add(1);
        if (pending_.size() >= config_.max_pending) {
            rejected_.add(1);
            if (!respond(fd, generation, request->request_id,
                         {core::Verdict::kRejected, 0,
                          obs::AbortReason::kBackpressure},
                         {})) {
                return; // connection closed (outbound cap); conn dangles
            }
            continue;
        }
        pending_.push_back({fd, generation, request->request_id, now,
                            request->deadline_ns, request->trace_id,
                            request->parent_span_id,
                            std::move(request->offload)});
    }
    if (malformed) {
        malformed_.add(1);
        close_client(fd);
    }
}

bool
Server::handle_snapshot(int fd)
{
    snapshot_polls_.add(1);
    // Refresh the live gauges so the snapshot reflects *now*, not the
    // last engine pass.
    queue_depth_.set(static_cast<double>(pending_.size()));
    window_occupancy_.set(static_cast<double>(router_.occupancy()));
    connections_open_.set(static_cast<double>(connections_.size()));
    // Snapshot service and shard metrics together, so svcctl sees the
    // shard.* keys next to the svc.* keys (merging the router into
    // registry_ itself would double-count counters on every poll).
    obs::Registry metrics;
    metrics.merge(registry_);
    router_.export_metrics(metrics);
    std::ostringstream head;
    head << "{\"metrics\": ";
    metrics.to_json(head);
    std::string json = head.str();
    json += ",\n\"monitor\": ";
    if (monitor_) {
        // Refresh before reporting so a poll against an idle server
        // reads "now", not the last traffic-driven sample; the regular
        // cadence is unaffected (tick() keys off elapsed time).
        monitor_->tick(obs::now_ns());
        monitor_->status_json(&json);
    } else {
        json += "{\"enabled\": false, \"health\": {\"state\": \"ok\", "
                "\"rules\": []}, \"samples\": {\"now_ns\": 0, "
                "\"period_ns\": 0, \"series\": []}}";
    }
    std::string topk;
    router_.topk_json(&topk);
    json += ",\n\"topk\": " + topk + "}";
    return reply(fd, MsgType::kSnapshotReply, json);
}

bool
Server::handle_dump(int fd)
{
    dump_requests_.add(1);
    std::string json;
    if (recorder_ == nullptr) {
        json = "{\"ok\": false, \"error\": \"recorder disabled\"}";
    } else {
        // Refresh the rings first so the incident's look-back ends at
        // "now". Runs on the service thread — the sole server-side span
        // writer, so a trace-including dump is race-free here.
        monitor_->tick(obs::now_ns());
        const std::string path = recorder_->dump("manual");
        if (path.empty()) {
            json = "{\"ok\": false, \"error\": \"dump failed\"}";
        } else {
            json = "{\"ok\": true, \"path\": \"" + path + "\"}";
        }
    }
    return reply(fd, MsgType::kDumpReply, json);
}

bool
Server::reply(int fd, MsgType type, std::string_view json)
{
    auto it = connections_.find(fd);
    if (it == connections_.end()) return false;
    Connection& conn = it->second;
    encode_control(conn.out, type, json);
    if (conn.out.size() - conn.out_off > config_.max_out_bytes) {
        overflow_.add(1);
        close_client(fd);
        return false;
    }
    return true;
}

void
Server::close_client(int fd)
{
    // Queued requests of this connection stay queued: they are answered
    // (and counted) normally, and respond() drops the bytes — the
    // generation check keeps them from reaching a future connection
    // that recycles this fd number.
    connections_.erase(fd);
    close(fd);
    disconnects_.add(1);
}

bool
Server::respond(int fd, uint64_t generation, uint64_t request_id,
                const core::ValidationResult& result,
                const StageTimestamps& stages)
{
    auto it = connections_.find(fd);
    if (it == connections_.end() || it->second.generation != generation) {
        return false; // client gone (or fd recycled); answer dropped
    }
    Connection& conn = it->second;
    encode_response(conn.out, {request_id, result, stages});
    if (conn.out.size() - conn.out_off > config_.max_out_bytes) {
        // The peer keeps submitting but is not reading its responses;
        // disconnecting it is the only alternative to unbounded
        // buffering (the wire.h memory guarantee).
        overflow_.add(1);
        close_client(fd);
        return false;
    }
    return true;
}

void
Server::process_batch()
{
    if (pending_.empty()) return;
    const size_t take = std::min(config_.max_batch, pending_.size());
    const uint64_t pass_start = obs::now_ns();
    size_t engine_passes = 0;
    for (size_t i = 0; i < take; ++i) {
        Pending pending = std::move(pending_.front());
        pending_.pop_front();
        StageTimestamps stages;
        stages.server_queue_ns = pass_start - pending.arrival_ns;
        core::ValidationResult result;
        if (pending.deadline_ns != 0 &&
            pass_start - pending.arrival_ns > pending.deadline_ns) {
            // Expired while queued: the client has already given up —
            // an engine pass would only burn window slots for a verdict
            // nobody applies.
            result = {core::Verdict::kTimeout, 0,
                      obs::AbortReason::kTimeout};
            timeout_.add(1);
        } else {
            const uint64_t engine_start = obs::now_ns();
            shard::RouteInfo route;
            result = router_.process(pending.offload, &route);
            const uint64_t engine_end = obs::now_ns();
            stages.batch_wait_ns = engine_start - pass_start;
            stages.engine_ns = engine_end - engine_start;
            // What the same pass would cost over the paper's CCI link —
            // modeled, reported next to the measured stages, never part
            // of the wall-clock sum.
            stages.link_ns = static_cast<uint64_t>(
                router_.isolated_latency_ns(pending.offload));
            if (config_.shards > 1) {
                stage_shard_route_.record(route.route_ns);
                if (route.shards_touched > 1) {
                    stage_shard_coord_.record(route.coord_ns);
                }
            }
            verdict_[static_cast<size_t>(result.verdict)]->add(1);
            stage_server_queue_.record(stages.server_queue_ns);
            stage_batch_wait_.record(stages.batch_wait_ns);
            stage_engine_.record(stages.engine_ns);
            stage_link_.record(stages.link_ns);
            ++engine_passes;
#if ROCOCO_TRACE_ENABLED
            // The remote half of the distributed trace: a server span
            // pointing back at the client span it validates for, plus
            // the flow-end event Perfetto draws the arrow into. Both
            // halves of the arrow share (cat, name, id).
            if (pending.trace_id != 0 && obs::Tracer::instance().active()) {
                obs::TraceEvent span;
                span.name = "svc.server.validate";
                span.cat = "svc";
                span.arg_name = "parent_span_id";
                span.arg_value = pending.parent_span_id;
                span.ts_ns = engine_start;
                span.dur_ns = engine_end - engine_start;
                span.phase = obs::EventPhase::kComplete;
                obs::Tracer::instance().record(span);
                obs::Tracer::instance().flow(
                    obs::EventPhase::kFlowEnd, "svc", "svc.validate_flow",
                    pending.trace_id,
                    engine_start + (engine_end - engine_start) / 2);
            }
#endif
        }
        respond(pending.fd, pending.generation, pending.request_id, result,
                stages);
        rpc_ns_.record(pass_start - pending.arrival_ns);
    }
    if (engine_passes > 0) {
        batch_size_.record(engine_passes);
        window_occupancy_.set(static_cast<double>(router_.occupancy()));
    }
}

void
Server::flush(int fd)
{
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    while (conn.out_off < conn.out.size()) {
        const ssize_t n = send(fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (n > 0) {
            conn.out_off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        close_client(fd); // client gone mid-response
        return;
    }
    conn.out.clear();
    conn.out_off = 0;
}

CounterBag
Server::stats() const
{
    CounterBag bag = registry_.to_counter_bag();
    bag.add(router_.stats());
    return bag;
}

void
Server::export_metrics(obs::Registry& registry) const
{
    registry.merge(registry_);
    router_.export_metrics(registry);
}

} // namespace rococo::svc
