/// Interactive companion to docs/ALGORITHM.md: replays the worked
/// five-transaction history and prints the reachability matrix after
/// every step, so you can watch closure entries appear, a transaction
/// commit "into the past", and a four-edge cycle get caught by a
/// single W-bit AND.
///
///   ./build/examples/matrix_walkthrough
#include <cstdio>

#include "core/reachability_matrix.h"

using namespace rococo;
using core::ProbeResult;
using core::ReachabilityMatrix;
using core::SlotSet;

namespace {

SlotSet
bits(std::initializer_list<int> set_bits)
{
    SlotSet v;
    for (int b : set_bits) v.set(static_cast<size_t>(b));
    return v;
}

void
step(ReachabilityMatrix& m, const char* story, int slot,
     std::initializer_list<int> f, std::initializer_list<int> b)
{
    std::printf("--- %s\n", story);
    const ProbeResult probe = m.probe(bits(f), bits(b));
    std::printf("probe: p=%s s=%s -> %s\n",
                probe.proceeding.to_string(m.window()).c_str(),
                probe.succeeding.to_string(m.window()).c_str(),
                probe.cyclic ? "CYCLE, abort" : "acyclic, commit");
    if (!probe.cyclic && slot >= 0) {
        m.insert(static_cast<size_t>(slot), probe);
        std::printf("%s", m.debug_dump().c_str());
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("ROCoCo reachability-matrix walkthrough (W = 4).\n"
                "f = forward edges (t must precede the slot), "
                "b = backward edges (slot precedes t).\n\n");

    ReachabilityMatrix m(4);
    step(m, "t0 commits: wrote x, no dependencies", 0, {}, {});
    step(m, "t1 commits: read t0's x (RAW backward edge)", 1, {}, {0});
    step(m,
         "t2 commits INTO THE PAST: read y before t1 overwrote it "
         "(forward edge to t1 — a timestamp scheme would abort here)",
         2, {1}, {});
    step(m,
         "t3 commits: read t2's z (backward) AND pre-t0 x (forward) — "
         "the closure update makes t2 reach t0 through t3",
         3, {0}, {2});
    step(m,
         "t4 validates: read t0's update (backward) and a pre-t2 "
         "version (forward). p covers every slot t4 must precede, s "
         "every slot that must precede it; they overlap -> the 4-edge "
         "cycle t4 -> t2 -> t3 -> t0 -> t4 is caught in one AND",
         -1, {2}, {0});
    return 0;
}
