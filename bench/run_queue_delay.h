/// @file
/// Run-queue delay of this process's threads, for benchmarks that drop
/// the rounds in which the host stole a CPU from them (micro_validate,
/// ycsb_run).
#pragma once

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

namespace rococo {

/// CPUs the calling thread may run on: with more runnable threads than
/// this, the surplus waits for a CPU without the host taking any.
inline unsigned
affinity_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<unsigned>(CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/// Time this process's threads have spent runnable but waiting for a
/// CPU, in ns: the sum of field 2 of /proc/self/task/*/schedstat over
/// the threads alive at construction. The files stay open, so a read
/// between rounds takes microseconds and a spinning thread keeps
/// spinning through it instead of parking between rounds. A thread
/// that has exited keeps the delay last read for it, so the sum never
/// falls; read before joining the threads a round measures. Reads 0
/// where the kernel does not expose the files, so then every round is
/// clean.
class RunQueueDelay
{
  public:
    RunQueueDelay()
    {
        std::error_code error;
        for (const auto& task : std::filesystem::directory_iterator(
                 "/proc/self/task", error)) {
            const int fd =
                ::open((task.path() / "schedstat").c_str(), O_RDONLY);
            if (fd >= 0) fds_.push_back(fd);
        }
        last_.assign(fds_.size(), 0);
        ns();
    }
    ~RunQueueDelay()
    {
        for (int fd : fds_) ::close(fd);
    }
    RunQueueDelay(const RunQueueDelay&) = delete;
    RunQueueDelay& operator=(const RunQueueDelay&) = delete;

    uint64_t
    ns() const
    {
        uint64_t total = 0;
        for (size_t i = 0; i < fds_.size(); ++i) {
            char text[128];
            const ssize_t n = ::pread(fds_[i], text, sizeof text - 1, 0);
            unsigned long long on_cpu = 0, waited = 0;
            if (n > 0) {
                text[n] = '\0';
                if (std::sscanf(text, "%llu %llu", &on_cpu, &waited) == 2) {
                    last_[i] = waited;
                }
            }
            total += last_[i];
        }
        return total;
    }

  private:
    std::vector<int> fds_;
    mutable std::vector<uint64_t> last_; ///< per thread, last delay read
};

} // namespace rococo
