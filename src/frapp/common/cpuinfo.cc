#include "frapp/common/cpuinfo.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define FRAPP_CPUINFO_X86 1
#endif

namespace frapp {
namespace common {

namespace {

/// Reads a whole small sysfs file; empty string when unreadable.
std::string ReadSysfsFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  while (!content.empty() &&
         (content.back() == '\n' || content.back() == '\r')) {
    content.pop_back();
  }
  return content;
}

/// Parses a sysfs cache size like "32K" / "1024K" / "1M"; 0 on failure.
size_t ParseSysfsCacheSize(const std::string& text) {
  if (text.empty()) return 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return 0;
  size_t multiplier = 1;
  if (*end == 'K') multiplier = 1024;
  if (*end == 'M') multiplier = 1024 * 1024;
  if (*end == 'G') multiplier = 1024ull * 1024 * 1024;
  return static_cast<size_t>(value) * multiplier;
}

/// Parses a cpulist like "0-3,8,10-11" into cpu ids; empty on failure.
std::vector<int> ParseCpuList(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    const size_t dash = token.find('-');
    char* end = nullptr;
    const long first = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || first < 0) return {};
    long last = first;
    if (dash != std::string::npos) {
      const char* hi = token.c_str() + dash + 1;
      last = std::strtol(hi, &end, 10);
      if (end == hi || last < first) return {};
    }
    for (long cpu = first; cpu <= last; ++cpu) cpus.push_back(static_cast<int>(cpu));
  }
  return cpus;
}

/// Parses a sysfs hex cpumask like "3" or "000000ff,00000003" (32-bit
/// groups, most significant first) into cpu ids; empty on failure.
std::vector<int> ParseCpuMask(const std::string& text) {
  std::vector<std::string> groups;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) groups.push_back(token);
  std::vector<int> cpus;
  int base = 0;
  for (auto it = groups.rbegin(); it != groups.rend(); ++it, base += 32) {
    if (it->empty()) return {};
    char* end = nullptr;
    const unsigned long bits = std::strtoul(it->c_str(), &end, 16);
    if (end != it->c_str() + it->size()) return {};
    for (int bit = 0; bit < 32; ++bit) {
      if ((bits >> bit) & 1ul) cpus.push_back(base + bit);
    }
  }
  return cpus;
}

/// Sysfs pass: data-cache geometry from cpu0's cache index directories.
/// Returns true when at least L1d or L2 was read.
bool DetectCachesSysfs(CacheGeometry* cache) {
  bool any = false;
  for (int index = 0; index < 10; ++index) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level_text = ReadSysfsFile(base + "/level");
    if (level_text.empty()) break;
    const std::string type = ReadSysfsFile(base + "/type");
    if (type == "Instruction") continue;
    const size_t size = ParseSysfsCacheSize(ReadSysfsFile(base + "/size"));
    if (size == 0) continue;
    const int level = std::atoi(level_text.c_str());
    if (level == 1) cache->l1d_bytes = size;
    if (level == 2) cache->l2_bytes = size;
    if (level == 3) cache->l3_bytes = size;
    const std::string line = ReadSysfsFile(base + "/coherency_line_size");
    if (!line.empty()) {
      const size_t line_bytes = static_cast<size_t>(std::atoi(line.c_str()));
      if (line_bytes != 0) cache->line_bytes = line_bytes;
    }
    if (level == 1 || level == 2) any = true;
  }
  return any;
}

#ifdef FRAPP_CPUINFO_X86
/// cpuid pass: Intel deterministic cache parameters (leaf 4) with the AMD
/// equivalent (leaf 0x8000001d) as fallback — containers often hide sysfs
/// cache directories but cpuid always answers.
bool DetectCachesCpuid(CacheGeometry* cache) {
  const auto harvest = [cache](unsigned leaf) -> bool {
    bool any = false;
    for (unsigned sub = 0; sub < 10; ++sub) {
      unsigned a = 0, b = 0, c = 0, d = 0;
      if (!__get_cpuid_count(leaf, sub, &a, &b, &c, &d)) break;
      const unsigned type = a & 0x1f;  // 0 = no more caches
      if (type == 0) break;
      if (type == 2) continue;  // instruction cache
      const unsigned level = (a >> 5) & 0x7;
      const size_t line = (b & 0xfff) + 1;
      const size_t partitions = ((b >> 12) & 0x3ff) + 1;
      const size_t ways = ((b >> 22) & 0x3ff) + 1;
      const size_t sets = static_cast<size_t>(c) + 1;
      const size_t size = line * partitions * ways * sets;
      if (size == 0) continue;
      if (level == 1) cache->l1d_bytes = size;
      if (level == 2) cache->l2_bytes = size;
      if (level == 3) cache->l3_bytes = size;
      cache->line_bytes = line;
      if (level == 1 || level == 2) any = true;
    }
    return any;
  };
  if (harvest(4)) return true;
  return harvest(0x8000001d);
}
#endif  // FRAPP_CPUINFO_X86

/// Physical-core topology from the sysfs thread-sibling masks: each
/// distinct mask is one physical core; its representative is the lowest
/// cpu id in the mask. The cpulist files (`core_cpus_list`/
/// `thread_siblings_list`) are preferred; containers often expose only the
/// hex-mask variants (`core_cpus`/`thread_siblings`), so those are the
/// fallback.
bool DetectTopologySysfs(size_t logical, std::vector<int>* core_cpus) {
  std::vector<int> online =
      ParseCpuList(ReadSysfsFile("/sys/devices/system/cpu/online"));
  if (online.empty()) {
    for (size_t cpu = 0; cpu < logical; ++cpu) online.push_back(static_cast<int>(cpu));
  }
  std::vector<int> representatives;
  for (int cpu : online) {
    const std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    std::vector<int> mask;
    std::string siblings = ReadSysfsFile(base + "core_cpus_list");
    if (siblings.empty()) siblings = ReadSysfsFile(base + "thread_siblings_list");
    if (!siblings.empty()) {
      mask = ParseCpuList(siblings);
    } else {
      siblings = ReadSysfsFile(base + "core_cpus");
      if (siblings.empty()) siblings = ReadSysfsFile(base + "thread_siblings");
      if (siblings.empty()) return false;
      mask = ParseCpuMask(siblings);
    }
    if (mask.empty()) return false;
    const int representative = *std::min_element(mask.begin(), mask.end());
    if (std::find(representatives.begin(), representatives.end(),
                  representative) == representatives.end()) {
      representatives.push_back(representative);
    }
  }
  if (representatives.empty()) return false;
  std::sort(representatives.begin(), representatives.end());
  *core_cpus = std::move(representatives);
  return true;
}

}  // namespace

namespace internal {

CpuInfo DetectCpuInfo() {
  CpuInfo info;

#ifdef FRAPP_CPUINFO_X86
  info.features.sse42 = __builtin_cpu_supports("sse4.2") != 0;
  info.features.avx2 = __builtin_cpu_supports("avx2") != 0;
  info.features.avx512f = __builtin_cpu_supports("avx512f") != 0;
  info.features.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  info.features.avx512dq = __builtin_cpu_supports("avx512dq") != 0;
  info.features.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
  info.features.avx512vpopcntdq =
      __builtin_cpu_supports("avx512vpopcntdq") != 0;
#endif

  const unsigned hw = std::thread::hardware_concurrency();
  info.logical_cpus = hw == 0 ? 1 : static_cast<size_t>(hw);

  info.cache.detected = DetectCachesSysfs(&info.cache);
#ifdef FRAPP_CPUINFO_X86
  if (!info.cache.detected) info.cache.detected = DetectCachesCpuid(&info.cache);
#endif

  info.topology_detected =
      DetectTopologySysfs(info.logical_cpus, &info.physical_core_cpus);
  if (info.topology_detected) {
    info.physical_cores = info.physical_core_cpus.size();
  } else {
    // Assume no SMT rather than guessing a divisor: pinning then degrades
    // to one worker per logical cpu, which is always safe.
    info.physical_cores = info.logical_cpus;
    info.physical_core_cpus.clear();
    for (size_t cpu = 0; cpu < info.logical_cpus; ++cpu) {
      info.physical_core_cpus.push_back(static_cast<int>(cpu));
    }
  }
  return info;
}

}  // namespace internal

const CpuInfo& GetCpuInfo() {
  static const CpuInfo info = internal::DetectCpuInfo();
  return info;
}

std::string CpuInfoSummary(const CpuInfo& info) {
  std::ostringstream out;
  const auto flag = [](bool b) { return b ? "yes" : "no"; };
  out << "isa features:\n"
      << "  sse4.2            : " << flag(info.features.sse42) << "\n"
      << "  avx2              : " << flag(info.features.avx2) << "\n"
      << "  avx512f           : " << flag(info.features.avx512f) << "\n"
      << "  avx512bw          : " << flag(info.features.avx512bw) << "\n"
      << "  avx512dq          : " << flag(info.features.avx512dq) << "\n"
      << "  avx512vl          : " << flag(info.features.avx512vl) << "\n"
      << "  avx512vpopcntdq   : " << flag(info.features.avx512vpopcntdq) << "\n"
      << "cache geometry (" << (info.cache.detected ? "detected" : "assumed")
      << "):\n"
      << "  l1d               : " << info.cache.l1d_bytes / 1024 << " KiB\n"
      << "  l2                : " << info.cache.l2_bytes / 1024 << " KiB\n"
      << "  l3                : "
      << (info.cache.l3_bytes == 0
              ? std::string("unknown")
              : std::to_string(info.cache.l3_bytes / 1024) + " KiB")
      << "\n"
      << "  line              : " << info.cache.line_bytes << " B\n"
      << "topology (" << (info.topology_detected ? "detected" : "assumed")
      << "):\n"
      << "  logical cpus      : " << info.logical_cpus << "\n"
      << "  physical cores    : " << info.physical_cores << "\n"
      << "  core cpu ids      :";
  for (int cpu : info.physical_core_cpus) out << " " << cpu;
  out << "\n";
  return out.str();
}

}  // namespace common
}  // namespace frapp
