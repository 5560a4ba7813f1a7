#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/clock.h"

namespace rococo::shard {
namespace {

core::ValidationResult
make_result(core::Verdict verdict, uint64_t cid = 0)
{
    return {verdict, cid, core::abort_reason(verdict)};
}

/// Hot-key ranks exported as gauges per shard (the full table travels
/// through topk_json()).
constexpr size_t kHotKeyExportRanks = 8;

} // namespace

ShardRouter::ShardRouter(const ShardConfig& config)
    : config_(config), partitioner_(config.shards, config.partition_seed)
{
    ROCOCO_CHECK(config_.shards >= 1);
    shards_.reserve(config_.shards);
    for (uint32_t s = 0; s < config_.shards; ++s) {
        auto shard = std::make_unique<Shard>(config_.engine);
        const std::string prefix = "shard." + std::to_string(s);
        shard->validations = &registry_.counter(prefix + ".validations");
        shard->aborts = &registry_.counter(prefix + ".aborts");
        shard->conflict_victims =
            &registry_.counter(prefix + ".conflict.victims");
        shard->conflict_aggressors =
            &registry_.counter(prefix + ".conflict.aggressors");
        shards_.push_back(std::move(shard));
    }
    submitted_ = &registry_.counter("submitted");
    cross_ = &registry_.counter("shard.cross");
    total_ = &registry_.counter("shard.validations");
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        verdict_[i] = &registry_.counter(
            core::to_string(static_cast<core::Verdict>(i)));
    }
    route_ns_ = &registry_.histogram("shard.route_ns");
    coord_ns_ = &registry_.histogram("shard.coord_ns");
    conflict_attributed_ = &registry_.counter("shard.conflict.attributed");
    conflict_depth_ = &registry_.histogram("shard.conflict.depth");
}

ShardRouter::~ShardRouter() = default;

bool
ShardRouter::translate_snapshot(const Shard& shard, uint64_t g, uint64_t* out)
{
    const auto& tracked = shard.commit_globals;
    const uint64_t observed = tracked.rank(g);
    if (observed == 0 && shard.evicted > 0) {
        // Every tracked commit is unobserved and some commits left the
        // ring: we cannot prove the reader observed the evicted ones.
        return false;
    }
    // observed > 0 implies every evicted global number is below
    // tracked.front() < g, so all evicted commits were observed.
    *out = shard.evicted + observed;
    return true;
}

core::ValidationResult
ShardRouter::prepare_slice(Shard& shard, SubRequest& sub,
                           uint64_t global_snapshot, bool cross,
                           core::ValidationRequest* classified)
{
    uint64_t snapshot = 0;
    if (!translate_snapshot(shard, global_snapshot, &snapshot)) {
        if (!sub.offload.reads.empty()) {
            return make_result(core::Verdict::kWindowOverflow);
        }
        // The snapshot only decides how W_c ∩ R edges split into
        // forward/backward; with no reads the slice classifies the same
        // under any snapshot, so an in-window placeholder keeps the
        // write-only commit the single-engine deployment would allow.
        snapshot = shard.engine.window_start();
    }
    if (snapshot < shard.engine.window_start() &&
        !sub.offload.reads.empty()) {
        return make_result(core::Verdict::kWindowOverflow);
    }
    sub.offload.snapshot_cid = snapshot;
    shard.engine.classify_into(sub.offload, classified);
    // A cross-shard transaction may not serialize before anything
    // (fence = next_cid rejects every forward edge); a single-shard one
    // may not serialize before the latest cross-shard commit.
    const uint64_t fence = cross ? shard.engine.next_cid() : shard.fence;
    for (uint64_t cid : classified->forward) {
        if (cid < fence) {
            // Provenance: the fence-protected commit we would have had
            // to serialize before is the conflicting transaction.
            return {core::Verdict::kAbortCycle, 0,
                    obs::AbortReason::kCrossShardFence, cid};
        }
    }
    return make_result(core::Verdict::kCommit);
}

void
ShardRouter::commit_slice(Shard& shard, const SubRequest& sub,
                          const core::ValidationRequest& classified,
                          uint64_t global, bool cross)
{
    const core::ValidationResult local =
        shard.engine.commit_classified(classified, sub.offload);
    // The caller holds the shard lock since validate_only/prepare said
    // kCommit, and decide() is deterministic on unchanged state.
    ROCOCO_CHECK(local.verdict == core::Verdict::kCommit);
    shard.commit_globals.push_back(global);
    if (shard.commit_globals.size() > shard.engine.config().window) {
        shard.commit_globals.pop_front();
        ++shard.evicted;
    }
    if (cross) {
        shard.fence = local.cid + 1;
    }
}

void
ShardRouter::count_verdict(Shard& shard, const core::ValidationResult& result)
{
    shard.validations->add();
    if (result.verdict != core::Verdict::kCommit) {
        shard.aborts->add();
    }
}

void
ShardRouter::attribute_conflict(Shard& shard, const SubRequest& sub,
                                core::ValidationResult* result)
{
    const uint64_t local = result->conflict_cid;
    if (local == core::kNoConflictCid) return;
    conflict_attributed_->add();
    shard.conflict_victims->add();
    shard.conflict_aggressors->add();
    const uint64_t next = shard.engine.next_cid();
    if (local < next) {
        // Window-tuning signal: how far back the collision sits (1 =
        // the latest commit).
        conflict_depth_->record(next - local);
        // Hot-key forensics: fence rejections are raised here in the
        // coordinator, before the manager ever sees the request, so
        // without this offer `svcctl stats --top` stays empty on sharded
        // deployments. Engine-raised cycle aborts already fed the
        // sketch inside commit_classified — skip those.
        if (result->reason == obs::AbortReason::kCrossShardFence) {
            shard.engine.record_conflict(sub.offload, local);
        }
    }
    // Translate the engine-local cid into the global commit number the
    // client-facing cid space uses. The ring tracks the last
    // commit_globals.size() local cids, newest = next_cid - 1.
    const uint64_t first = next - shard.commit_globals.size();
    result->conflict_cid =
        (local >= first && local < next)
            ? shard.commit_globals[static_cast<size_t>(local - first)]
            : core::kNoConflictCid;
}

core::ValidationResult
ShardRouter::process(const fpga::OffloadRequest& request, RouteInfo* info)
{
    submitted_->add();
    if (stopped_.load(std::memory_order_acquire)) {
        const auto result = make_result(core::Verdict::kRejected);
        verdict_[static_cast<size_t>(result.verdict)]->add();
        return result;
    }
    total_->add();
    // Read-only fast path (§5.3): identical to the single-engine
    // deployment, no shard is consulted.
    if (request.writes.empty() && !config_.engine.strict_read_only) {
        if (info != nullptr) {
            *info = RouteInfo{};
        }
        verdict_[static_cast<size_t>(core::Verdict::kCommit)]->add();
        return make_result(core::Verdict::kCommit);
    }

    const uint64_t t_route = obs::now_ns();
    // Per-thread scratch: a warm steady-state validation reuses the
    // split entries, the per-slice classification buffers and the lock
    // array, so the routing path allocates nothing. Safe across router
    // instances — the scratch carries no state between calls.
    static thread_local SplitScratch split_scratch;
    partitioner_.split_into(request, split_scratch);
    std::span<SubRequest> subs(split_scratch.entries.data(),
                               split_scratch.count);
    ROCOCO_CHECK(!subs.empty());
    const bool cross = subs.size() > 1;
    core::ValidationResult result = make_result(core::Verdict::kAbortCycle);

    if (!cross) {
        Shard& shard = *shards_[subs[0].shard];
        std::lock_guard<std::mutex> lock(shard.mutex);
        const uint64_t t_locked = obs::now_ns();
        route_ns_->record(t_locked - t_route);
        static thread_local core::ValidationRequest classified;
        result = prepare_slice(shard, subs[0], request.snapshot_cid,
                               /*cross=*/false, &classified);
        if (result.verdict == core::Verdict::kCommit) {
            result = shard.engine.commit_classified(classified,
                                                    subs[0].offload);
            if (result.verdict == core::Verdict::kCommit) {
                const uint64_t global = global_commits_.fetch_add(
                    1, std::memory_order_acq_rel);
                shard.commit_globals.push_back(global);
                if (shard.commit_globals.size() >
                    shard.engine.config().window) {
                    shard.commit_globals.pop_front();
                    ++shard.evicted;
                }
                result.cid = global;
            }
        }
        if (result.verdict != core::Verdict::kCommit) {
            attribute_conflict(shard, subs[0], &result);
        }
        count_verdict(shard, result);
        if (info != nullptr) {
            *info = RouteInfo{1, t_locked - t_route, 0};
        }
    } else {
        cross_->add();
        // Reserve: all touched shard locks, ascending shard index
        // (split_into() orders subs), so concurrent coordinators cannot
        // deadlock.
        static thread_local std::vector<std::unique_lock<std::mutex>> locks;
        locks.clear();
        for (const SubRequest& sub : subs) {
            locks.emplace_back(shards_[sub.shard]->mutex);
        }
        const uint64_t t_locked = obs::now_ns();
        route_ns_->record(t_locked - t_route);

        static thread_local std::vector<core::ValidationRequest> classified;
        if (classified.size() < subs.size()) {
            classified.resize(subs.size());
        }
        result = make_result(core::Verdict::kCommit);
        size_t examined = 0;
        for (size_t i = 0; i < subs.size(); ++i) {
            Shard& shard = *shards_[subs[i].shard];
            examined = i + 1;
            result = prepare_slice(shard, subs[i], request.snapshot_cid,
                                   /*cross=*/true, &classified[i]);
            if (result.verdict != core::Verdict::kCommit) {
                break;
            }
            const core::Verdict verdict =
                shard.engine.validate_only(classified[i]);
            if (verdict != core::Verdict::kCommit) {
                result = make_result(verdict);
                break;
            }
        }
        if (result.verdict == core::Verdict::kCommit) {
            // Commit: one atomic position in the global order for every
            // slice, taken while all the locks are still held.
            const uint64_t global =
                global_commits_.fetch_add(1, std::memory_order_acq_rel);
            for (size_t i = 0; i < subs.size(); ++i) {
                commit_slice(*shards_[subs[i].shard], subs[i],
                             classified[i], global, /*cross=*/true);
            }
            result = make_result(core::Verdict::kCommit, global);
            for (const SubRequest& sub : subs) {
                count_verdict(*shards_[sub.shard], result);
            }
        } else {
            // Release: nothing was committed; attribute the abort to
            // the shard that rejected, the validation work to every
            // shard examined.
            for (size_t i = 0; i + 1 < examined; ++i) {
                shards_[subs[i].shard]->validations->add();
            }
            if (examined > 0) {
                Shard& rejecting = *shards_[subs[examined - 1].shard];
                attribute_conflict(rejecting, subs[examined - 1], &result);
                count_verdict(rejecting, result);
            }
        }
        const uint64_t t_done = obs::now_ns();
        coord_ns_->record(t_done - t_locked);
        if (info != nullptr) {
            *info = RouteInfo{static_cast<uint32_t>(subs.size()),
                              t_locked - t_route, t_done - t_locked};
        }
        locks.clear(); // release now — the vector is thread_local
    }
    verdict_[static_cast<size_t>(result.verdict)]->add();
    return result;
}

size_t
ShardRouter::occupancy() const
{
    size_t total = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->engine.manager().validator().occupancy();
    }
    return total;
}

double
ShardRouter::imbalance() const
{
    uint64_t max_validations = 0, sum_validations = 0;
    for (const auto& shard : shards_) {
        const uint64_t v = shard->validations->value();
        max_validations = std::max(max_validations, v);
        sum_validations += v;
    }
    const double mean = static_cast<double>(sum_validations) /
                        static_cast<double>(config_.shards);
    return mean > 0.0 ? static_cast<double>(max_validations) / mean : 0.0;
}

double
ShardRouter::isolated_latency_ns(const fpga::OffloadRequest& request) const
{
    return shards_[0]->engine.isolated_latency_ns(request);
}

const fpga::ValidationEngine&
ShardRouter::engine(uint32_t s) const
{
    ROCOCO_CHECK(s < shards_.size());
    return shards_[s]->engine;
}

std::future<core::ValidationResult>
ShardRouter::submit(fpga::OffloadRequest request)
{
    std::promise<core::ValidationResult> promise;
    promise.set_value(process(request));
    return promise.get_future();
}

core::ValidationResult
ShardRouter::validate(fpga::OffloadRequest request)
{
    return process(request);
}

core::ValidationResult
ShardRouter::validate(fpga::OffloadRequest request,
                      std::chrono::nanoseconds timeout)
{
    // The router has no queue: the only wait is lock acquisition, which
    // is bounded by engine passes. Honor an already-expired deadline
    // (the pipeline contract) without instrumenting the lock path.
    if (timeout <= std::chrono::nanoseconds::zero()) {
        submitted_->add();
        verdict_[static_cast<size_t>(core::Verdict::kTimeout)]->add();
        return make_result(core::Verdict::kTimeout);
    }
    return process(request);
}

CounterBag
ShardRouter::stats() const
{
    return registry_.to_counter_bag();
}

void
ShardRouter::export_metrics(obs::Registry& registry) const
{
    uint64_t max_validations = 0;
    uint64_t sum_validations = 0;
    for (uint32_t s = 0; s < config_.shards; ++s) {
        Shard& shard = *shards_[s];
        size_t occupancy = 0;
        obs::TopK::Entry top[kHotKeyExportRanks];
        size_t top_n = 0;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            occupancy = shard.engine.manager().validator().occupancy();
            top_n = shard.engine.conflict_topk().snapshot(
                top, kHotKeyExportRanks);
        }
        const std::string prefix = "shard." + std::to_string(s);
        for (size_t r = 0; r < top_n; ++r) {
            const std::string rank = prefix + ".topk." + std::to_string(r);
            registry_.gauge(rank + ".key")
                .set(static_cast<double>(top[r].key));
            registry_.gauge(rank + ".count")
                .set(static_cast<double>(top[r].count));
        }
        registry_.gauge(prefix + ".occupancy")
            .set(static_cast<double>(occupancy));
        const uint64_t v = shard.validations->value();
        max_validations = std::max(max_validations, v);
        sum_validations += v;
    }
    const uint64_t total = total_->value();
    registry_.gauge("shard.cross_fraction")
        .set(total > 0
                 ? static_cast<double>(cross_->value()) /
                       static_cast<double>(total)
                 : 0.0);
    const double mean = static_cast<double>(sum_validations) /
                        static_cast<double>(config_.shards);
    registry_.gauge("shard.imbalance")
        .set(mean > 0.0 ? static_cast<double>(max_validations) / mean : 0.0);
    registry.merge(registry_);
}

void
ShardRouter::topk_json(std::string* out) const
{
    char buf[128];
    out->clear();
    *out += "{\"shards\": [";
    for (uint32_t s = 0; s < config_.shards; ++s) {
        Shard& shard = *shards_[s];
        obs::TopK::Entry top[obs::TopK::kCapacity];
        size_t n = 0;
        uint64_t offered = 0;
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const obs::TopK& sketch = shard.engine.conflict_topk();
            offered = sketch.offered();
            n = sketch.snapshot(top, obs::TopK::kCapacity);
        }
        std::snprintf(buf, sizeof(buf),
                      "%s{\"shard\": %u, \"offered\": %" PRIu64
                      ", \"entries\": [",
                      s == 0 ? "" : ", ", s, offered);
        *out += buf;
        for (size_t i = 0; i < n; ++i) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"key\": %" PRIu64 ", \"count\": %" PRIu64
                          ", \"error\": %" PRIu64 "}",
                          i == 0 ? "" : ", ", top[i].key, top[i].count,
                          top[i].error);
            *out += buf;
        }
        *out += "]}";
    }
    *out += "]}";
}

std::shared_ptr<const sig::SignatureConfig>
ShardRouter::signature_config() const
{
    return shards_[0]->engine.signature_config();
}

void
ShardRouter::stop()
{
    stopped_.store(true, std::memory_order_release);
}

} // namespace rococo::shard
