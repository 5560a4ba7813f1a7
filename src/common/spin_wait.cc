#include "common/spin_wait.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rococo {

bool
spin_allowed()
{
    static const bool allowed = [] {
#if defined(__linux__)
        cpu_set_t set;
        CPU_ZERO(&set);
        // A mask too large for cpu_set_t means many CPUs: spin.
        if (sched_getaffinity(0, sizeof(set), &set) != 0) return true;
        return CPU_COUNT(&set) > 1;
#else
        return std::thread::hardware_concurrency() > 1;
#endif
    }();
    return allowed;
}

namespace {

// Read the mask when the library loads, while the main thread still
// carries the one the process was started with. The first caller would
// otherwise decide for the whole process: a thread that pinned itself
// to one CPU of many would switch spinning off everywhere.
[[maybe_unused]] const bool g_spin_allowed_at_load = spin_allowed();

} // namespace

} // namespace rococo
