#include "frapp/common/cpuinfo.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace frapp {
namespace common {
namespace {

TEST(CpuInfoTest, DetectionIsDeterministic) {
  const CpuInfo a = internal::DetectCpuInfo();
  const CpuInfo b = internal::DetectCpuInfo();
  EXPECT_EQ(a.features.avx2, b.features.avx2);
  EXPECT_EQ(a.features.avx512vpopcntdq, b.features.avx512vpopcntdq);
  EXPECT_EQ(a.cache.l1d_bytes, b.cache.l1d_bytes);
  EXPECT_EQ(a.cache.l2_bytes, b.cache.l2_bytes);
  EXPECT_EQ(a.logical_cpus, b.logical_cpus);
  EXPECT_EQ(a.physical_cores, b.physical_cores);
  EXPECT_EQ(a.physical_core_cpus, b.physical_core_cpus);
}

TEST(CpuInfoTest, FieldsAreSaneOnAnyHost) {
  const CpuInfo& info = GetCpuInfo();
  // Cache sizes keep their safe defaults when detection fails, so they are
  // never zero and the tiling math never divides by zero.
  EXPECT_GE(info.cache.l1d_bytes, 4u * 1024);
  EXPECT_GE(info.cache.l2_bytes, 64u * 1024);
  EXPECT_GE(info.cache.line_bytes, 32u);
  EXPECT_GE(info.logical_cpus, 1u);
  EXPECT_GE(info.physical_cores, 1u);
  EXPECT_LE(info.physical_cores, info.logical_cpus);
  // Pinning targets: one representative cpu id per physical core, sorted,
  // unique, and in range for the machine.
  ASSERT_EQ(info.physical_core_cpus.size(), info.physical_cores);
  EXPECT_TRUE(std::is_sorted(info.physical_core_cpus.begin(),
                             info.physical_core_cpus.end()));
  EXPECT_EQ(std::adjacent_find(info.physical_core_cpus.begin(),
                               info.physical_core_cpus.end()),
            info.physical_core_cpus.end());
  for (int cpu : info.physical_core_cpus) EXPECT_GE(cpu, 0);
}

TEST(CpuInfoTest, GetCpuInfoReturnsOneCachedInstance) {
  EXPECT_EQ(&GetCpuInfo(), &GetCpuInfo());
}

TEST(CpuInfoTest, SummaryMentionsEverySection) {
  const std::string summary = CpuInfoSummary(GetCpuInfo());
  EXPECT_NE(summary.find("isa features"), std::string::npos);
  EXPECT_NE(summary.find("avx512vpopcntdq"), std::string::npos);
  EXPECT_NE(summary.find("avx512dq"), std::string::npos);
  EXPECT_NE(summary.find("cache geometry"), std::string::npos);
  EXPECT_NE(summary.find("topology"), std::string::npos);
  EXPECT_NE(summary.find("physical cores"), std::string::npos);
}

#if defined(__x86_64__) || defined(__i386__)
TEST(CpuInfoTest, FeatureLadderIsMonotone) {
  // The x86 feature ladder never inverts: vpopcntdq, bw and dq imply
  // avx512f, avx512f implies avx2 on every shipping core, avx2 implies
  // sse4.2.
  const CpuFeatures& f = GetCpuInfo().features;
  if (f.avx512vpopcntdq) EXPECT_TRUE(f.avx512f);
  if (f.avx512bw) EXPECT_TRUE(f.avx512f);
  if (f.avx512dq) EXPECT_TRUE(f.avx512f);
  if (f.avx512f) EXPECT_TRUE(f.avx2);
  if (f.avx2) EXPECT_TRUE(f.sse42);
}
#endif

}  // namespace
}  // namespace common
}  // namespace frapp
