/// @file
/// Serializability oracle for histories validated by racing callers.
///
/// Several threads validate random read/write footprints through one
/// backend. Each request's snapshot is captured right before its call,
/// so by the time it validates, other callers' commits may have landed
/// and genuine forward dependencies arise. Afterwards the exact
/// multiversion dependency graph of the committed history — version
/// order per address is cid order, a reader observes the newest version
/// with cid < its snapshot — must be acyclic: the same src/graph oracle
/// the sequential replays pass, rebuilt for the interleaved commit
/// sequence the callers produce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/sliding_window.h"
#include "fpga/detector.h"
#include "graph/serializability.h"

namespace rococo::oracle {

struct HistoryTxn
{
    std::vector<uint64_t> reads;
    std::vector<uint64_t> writes;
    uint64_t snapshot = 0;
    bool committed = false;
    bool resolved = false;
    uint64_t cid = 0;
};

/// @p count transactions over @p locations addresses (few: force real
/// conflicts), each reading 0-2 and writing 1-2 distinct addresses.
inline std::vector<HistoryTxn>
random_history(size_t count, uint64_t locations, uint64_t seed)
{
    std::vector<HistoryTxn> txns(count);
    Xoshiro256 rng(seed);
    for (HistoryTxn& txn : txns) {
        for (unsigned r = unsigned(rng.below(3)); r > 0; --r) {
            txn.reads.push_back(rng.below(locations));
        }
        for (unsigned w = 1 + unsigned(rng.below(2)); w > 0; --w) {
            txn.writes.push_back(rng.below(locations));
        }
        // The graph below indexes writers per address; a duplicate in
        // one transaction would self-chain, so dedupe the footprint.
        for (auto* set : {&txn.reads, &txn.writes}) {
            std::sort(set->begin(), set->end());
            set->erase(std::unique(set->begin(), set->end()), set->end());
        }
    }
    return txns;
}

/// Validate every transaction of @p txns from @p threads racing callers:
/// snapshot() gives the commit count a transaction reads at, validate()
/// runs the request. Each caller owns every threads-th transaction, so
/// the records need no lock.
template <class Snapshot, class Validate>
void
run_racing_callers(std::vector<HistoryTxn>& txns, size_t threads,
                   Snapshot snapshot, Validate validate)
{
    std::vector<std::thread> callers;
    for (size_t t = 0; t < threads; ++t) {
        callers.emplace_back([&, t] {
            for (size_t i = t; i < txns.size(); i += threads) {
                HistoryTxn& txn = txns[i];
                fpga::OffloadRequest offload;
                for (uint64_t a : txn.reads) offload.reads.push_back(a);
                for (uint64_t a : txn.writes) offload.writes.push_back(a);
                txn.snapshot = snapshot();
                offload.snapshot_cid = txn.snapshot;
                // Stand-in for the transaction body between begin and
                // commit: lets other callers commit past the snapshot
                // even when the callers share one CPU.
                std::this_thread::yield();
                const core::ValidationResult result = validate(offload);
                txn.resolved = true;
                txn.committed = result.verdict == core::Verdict::kCommit;
                txn.cid = result.cid;
            }
        });
    }
    for (auto& caller : callers) caller.join();
}

/// The exact multiversion dependency graph of @p txns' committed
/// subset, checked for a cycle.
inline graph::SerializabilityResult
check_history(const std::vector<HistoryTxn>& txns)
{
    // Committed writers per address in version (cid) order.
    std::map<uint64_t, std::vector<size_t>> writers;
    for (size_t i = 0; i < txns.size(); ++i) {
        if (!txns[i].committed) continue;
        for (uint64_t addr : txns[i].writes) writers[addr].push_back(i);
    }
    graph::DependencyGraph g(txns.size());
    for (auto& [addr, list] : writers) {
        std::sort(list.begin(), list.end(), [&](size_t a, size_t b) {
            return txns[a].cid < txns[b].cid;
        });
        for (size_t v = 1; v < list.size(); ++v) {
            g.add_edge(list[v - 1], list[v]); // WAW: version chain
        }
    }
    for (size_t i = 0; i < txns.size(); ++i) {
        const HistoryTxn& txn = txns[i];
        if (!txn.committed) continue;
        for (uint64_t addr : txn.reads) {
            const auto it = writers.find(addr);
            if (it == writers.end()) continue;
            // Observed version: newest committed writer the snapshot
            // contains (cid < snapshot). The list is cid-sorted.
            size_t observed = SIZE_MAX;
            for (size_t w : it->second) {
                if (txns[w].cid >= txn.snapshot) break;
                if (w != i) observed = w;
            }
            if (observed != SIZE_MAX) g.add_edge(observed, i); // RAW
            for (size_t w : it->second) {
                if (w == i || w == observed) continue;
                const bool later = observed == SIZE_MAX ||
                                   txns[w].cid > txns[observed].cid;
                if (later) g.add_edge(i, w); // RW anti-dependency
            }
        }
    }
    return graph::check_serializability(g);
}

} // namespace rococo::oracle
