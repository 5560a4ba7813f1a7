/// @file
/// Bounded spin-then-park waiting for latency-critical handoffs.
///
/// A validation verdict usually lands a few microseconds after the
/// request, sooner than a futex wake-up of a thread parked on an idle
/// vCPU. The helpers here first spin on an atomic predicate, with the
/// CPU's pause hint, for at most kSpinBudget; only then do they fall
/// through to the ordinary mutex + condition-variable wait. The park
/// path is the same wait as without the spin, so the spin is purely a
/// latency shortcut: it never changes what the waiter observes.
///
/// Notifiers set the predicate's atomic under the mutex and notify the
/// condition variable as before, so a waiter that has parked is woken
/// exactly as if there were no spin.
///
/// A process that may run on one CPU only skips the spin: spinning
/// there would hold the CPU the awaited thread needs.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace rococo {

/// Cache-line size for laying out spin-polled state. A flag that a
/// thread polls should not share its line with fields other threads
/// write for other reasons; otherwise each of those writes costs the
/// spinner a miss and the writer a line steal, and how much that costs
/// depends on where the allocator happened to put the object.
inline constexpr std::size_t kCacheLine = 64;

/// Longest a waiter spins before it parks on its condition variable.
inline constexpr std::chrono::nanoseconds kSpinBudget{50'000};

/// The CPU's spin-loop hint: yields pipeline resources to a sibling
/// hyperthread and saves power. A no-op where there is none.
inline void
cpu_relax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield" ::: "memory");
#endif
}

/// True when the process may run on more than one CPU. The affinity
/// mask is read once, when the library loads, so a thread that pins
/// itself later does not change the answer.
bool spin_allowed();

/// Spin until ready() holds, kSpinBudget elapses or @p deadline passes,
/// whichever comes first. Returns whether ready() was observed. A
/// deadline already past returns false without evaluating ready().
template <class Ready>
bool
spin_until(Ready&& ready, std::chrono::steady_clock::time_point deadline =
                              std::chrono::steady_clock::time_point::max())
{
    if (!spin_allowed()) return false;
    const auto start = std::chrono::steady_clock::now();
    const auto stop = std::min(deadline, start + kSpinBudget);
    for (auto now = start; now < stop;
         now = std::chrono::steady_clock::now()) {
        if (ready()) return true;
        cpu_relax();
    }
    return false;
}

/// Equivalent to cv.wait(lock, ready), but spins (unlocked) before it
/// parks. @p lock is held on entry and on return. ready() is evaluated
/// with and without the lock, so it may read only atomics; notifiers
/// must store them under the lock.
template <class Ready>
void
spin_then_wait(std::unique_lock<std::mutex>& lock,
               std::condition_variable& cv, Ready ready)
{
    if (ready()) return;
    lock.unlock();
    spin_until(ready);
    lock.lock();
    cv.wait(lock, ready);
}

/// Timed form of spin_then_wait(): returns false iff @p deadline passed
/// before ready() was observed. The deadline is authoritative: when it
/// has passed by the time the lock is re-taken, the result is false
/// even if ready() now holds, as with a condition-variable wait that
/// timed out.
template <class Ready>
bool
spin_then_wait_until(std::unique_lock<std::mutex>& lock,
                     std::condition_variable& cv,
                     std::chrono::steady_clock::time_point deadline,
                     Ready ready)
{
    if (ready()) return true;
    lock.unlock();
    const bool spun = spin_until(ready, deadline);
    lock.lock();
    if (spun) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    while (!ready()) {
        if (cv.wait_until(lock, deadline) == std::cv_status::timeout) {
            return false;
        }
    }
    return true;
}

} // namespace rococo
