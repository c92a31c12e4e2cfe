#include "util/cpu.hpp"

#include <cstdlib>
#include <sstream>
#include <thread>

namespace fisheye::util {

namespace {

CpuInfo detect() noexcept {
  CpuInfo info;
  info.hardware_threads = std::max(1u, std::thread::hardware_concurrency());
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  info.sse2 = __builtin_cpu_supports("sse2") != 0;
  info.avx2 = __builtin_cpu_supports("avx2") != 0;
  info.avx512f = __builtin_cpu_supports("avx512f") != 0;
  info.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  info.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return info;
}

}  // namespace

const CpuInfo& cpu_info() noexcept {
  static const CpuInfo info = detect();
  return info;
}

std::string CpuInfo::summary() const {
  std::ostringstream os;
  os << hardware_threads << " hw thread" << (hardware_threads == 1 ? "" : "s");
  os << ", isa: " << isa();
  return os.str();
}

std::string CpuInfo::isa() const {
  std::string out;
  auto add = [&](bool have, const char* name) {
    if (!have) return;
    if (!out.empty()) out += '+';
    out += name;
  };
  add(sse2, "sse2");
  add(avx2, "avx2");
  add(avx512f, "avx512f");
  add(avx512bw, "avx512bw");
  add(fma, "fma");
  if (out.empty()) out = "scalar";
  return out;
}

bool force_scalar() noexcept {
  const char* v = std::getenv("FISHEYE_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace fisheye::util
