#include "parallel/placement.hpp"

#include <algorithm>
#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace fisheye::par {

namespace {

/// The CPU the calling thread is running on now (-1 where unknown).
int current_cpu() noexcept {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

}  // namespace

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  // The main thread's mask (its tid is the pid) is the process's allowed
  // set: the library pins only the threads it starts, never the main one.
  // The calling thread's own mask is the fallback should that query fail.
  cpu_set_t allowed;
  if (sched_getaffinity(getpid(), sizeof allowed, &allowed) != 0 &&
      sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
#endif
  return cpus;
}

std::vector<int> claim_cpus(std::size_t n) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty() || n == 0) return {};
  // Seeded by the first claim: the first allowed CPU after the caller's.
  static std::atomic<std::size_t> cursor{static_cast<std::size_t>(
      std::upper_bound(cpus.begin(), cpus.end(), current_cpu()) -
      cpus.begin())};
  const std::size_t start = cursor.fetch_add(n, std::memory_order_relaxed);
  std::vector<int> group(n);
  for (std::size_t i = 0; i < n; ++i)
    group[i] = cpus[(start + i) % cpus.size()];
  return group;
}

void pin_self(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)cpu;
#endif
}

}  // namespace fisheye::par
