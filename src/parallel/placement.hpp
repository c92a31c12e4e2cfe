// Thread placement: the one rule that decides which CPU each thread the
// library starts runs on — ThreadPool workers (every CPU backend pool, the
// stream and serve lanes), parallel_rows workers and shard worker
// processes.
//
// Why pin at all: a new thread starts on its creator's CPU, and on a
// shared host (a KVM guest whose idle vCPUs the host has preempted) the
// scheduler can leave every worker there, time-slicing a whole pool on one
// CPU. A long-lived lane that sleeps between bursts is placed afresh on
// every wake-up, so the pin has to last as long as the thread: pinning at
// start and restoring the mask afterwards buys nothing.
//
// The rule, for a group of n threads started together:
//  * CPUs come from the process's allowed set — the main thread's
//    affinity, which taskset or a cpuset narrows — never from the creating
//    thread's own mask. A thread started by a pinned lane inherits that
//    lane's one-CPU mask, so a pool created inside a task or a map build
//    on a serve plan-cache miss would otherwise stack all its workers on
//    one CPU.
//  * The group takes the next n CPUs, cyclically, from one process-wide
//    cursor. The cursor starts at the CPU after the one the first group's
//    creator runs on, and each group continues where the last one ended,
//    so concurrent small pools — and the processes of a parallel test run —
//    spread out instead of stacking on CPU 0.
//  * A group larger than the allowed set wraps round.
//  * Where affinity is unknown (not Linux, or the query fails) the group
//    gets no CPUs and nothing is pinned.
#pragma once

#include <cstddef>
#include <vector>

namespace fisheye::par {

/// The process's allowed CPUs in ascending order; empty where affinity is
/// unknown.
[[nodiscard]] std::vector<int> allowed_cpus();

/// CPUs for a group of `n` threads started together: thread i of the group
/// runs on entry i. Claims the entries from the process-wide cursor (see
/// the rule above). Empty where affinity is unknown.
[[nodiscard]] std::vector<int> claim_cpus(std::size_t n);

/// Pin the calling thread to `cpu` for the rest of its life (best effort;
/// a no-op off Linux or when the CPU cannot be set).
void pin_self(int cpu) noexcept;

}  // namespace fisheye::par
