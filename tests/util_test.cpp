#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "util/affinity.hpp"
#include "util/bench_report.hpp"
#include "util/bytes.hpp"
#include "util/cycles.hpp"
#include "util/env.hpp"
#include "util/latency_hist.hpp"
#include "util/logging.hpp"

namespace ea::util {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
  EXPECT_EQ(to_hex(data), "0001abff10");
  EXPECT_EQ(from_hex("0001abff10"), data);
  EXPECT_EQ(from_hex("0001ABFF10"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsBadDigit) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, StringConversionRoundTrip) {
  std::string s = "hello \x01 world";
  Bytes b = to_bytes(s);
  EXPECT_EQ(to_string(b), s);
}

TEST(Bytes, CtEqual) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
  EXPECT_TRUE(ct_equal({}, {}));
}

// secure_zero clears exactly [p, p + n): every length and start alignment
// the memset may split into head, vector body and tail, with guard bytes
// on both sides that must keep their pattern.
TEST(Bytes, SecureZeroClearsExactlyTheRange) {
  constexpr std::size_t kGuard = 64;
  const std::size_t lengths[] = {0, 1, 7, 8, 63, 64, 65, 4099, 65541};
  for (std::size_t len : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      Bytes buf(kGuard + offset + len + kGuard);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(0x80 | (i % 127));
      }
      const Bytes before = buf;
      secure_zero(buf.data() + kGuard + offset, len);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        const bool inside = i >= kGuard + offset && i < kGuard + offset + len;
        ASSERT_EQ(buf[i], inside ? 0 : before[i])
            << "len " << len << " offset " << offset << " byte " << i;
      }
    }
  }
  Bytes whole(100, 0xa5);
  secure_zero(whole);
  EXPECT_EQ(whole, Bytes(100, 0));
  Bytes empty;
  secure_zero(empty);
  EXPECT_TRUE(empty.empty());
}

TEST(Bytes, LoadStoreLe) {
  std::uint8_t buf[8];
  store_le32(buf, 0x12345678u);
  EXPECT_EQ(load_le32(buf), 0x12345678u);
  store_le64(buf, 0x0123456789abcdefull);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefull);
}

TEST(Bytes, Rotl32) {
  EXPECT_EQ(rotl32(0x80000000u, 1), 1u);
  EXPECT_EQ(rotl32(1u, 31), 0x80000000u);
}

TEST(Bytes, RandomPrintableDeterministic) {
  std::string a = random_printable(42, 128);
  std::string b = random_printable(42, 128);
  std::string c = random_printable(43, 128);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 128u);
  for (char ch : a) {
    EXPECT_GE(ch, '!');
    EXPECT_LE(ch, '~');
  }
}

TEST(Env, IntParsing) {
  ::setenv("EA_TEST_INT", "1234", 1);
  EXPECT_EQ(env_int("EA_TEST_INT", 7), 1234);
  ::setenv("EA_TEST_INT", "garbage", 1);
  EXPECT_EQ(env_int("EA_TEST_INT", 7), 7);
  ::unsetenv("EA_TEST_INT");
  EXPECT_EQ(env_int("EA_TEST_INT", 7), 7);
}

TEST(Env, DoubleParsing) {
  ::setenv("EA_TEST_DBL", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("EA_TEST_DBL", 1.0), 2.5);
  ::unsetenv("EA_TEST_DBL");
  EXPECT_DOUBLE_EQ(env_double("EA_TEST_DBL", 1.0), 1.0);
}

TEST(Env, StringFallback) {
  ::unsetenv("EA_TEST_STR");
  EXPECT_EQ(env_str("EA_TEST_STR", "dflt"), "dflt");
  ::setenv("EA_TEST_STR", "value", 1);
  EXPECT_EQ(env_str("EA_TEST_STR", "dflt"), "value");
  ::unsetenv("EA_TEST_STR");
}

TEST(Cycles, RdtscMonotonicish) {
  std::uint64_t a = rdtsc();
  std::uint64_t b = rdtsc();
  EXPECT_LE(a, b + 1000000);  // same core: effectively monotonic
}

TEST(Cycles, BurnConsumesTime) {
  std::uint64_t start = rdtsc();
  burn_cycles(100000);
  std::uint64_t elapsed = rdtsc() - start;
  EXPECT_GE(elapsed, 100000u);
}

std::vector<int> cpus_of(pthread_t thread) {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(pthread_getaffinity_np(thread, sizeof(set), &set), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

// Pins a spawned thread, so the gtest thread keeps its own mask, and
// returns the CPUs the spawned thread's mask then holds.
std::vector<int> pinned_cpus(const std::vector<int>& cpus) {
  std::promise<void> release;
  std::thread thread([done = release.get_future()] { done.wait(); });
  EXPECT_TRUE(pin_thread(thread, cpus));
  std::vector<int> got = cpus_of(thread.native_handle());
  release.set_value();
  thread.join();
  return got;
}

TEST(Affinity, PinClampsAndSucceeds) {
  ASSERT_GE(online_cpus(), 1);
  EXPECT_EQ(pinned_cpus({}), cpus_of(pthread_self()));
  EXPECT_EQ(pinned_cpus({0}), std::vector<int>{0});
  // CPUs beyond the machine size are clamped, not an error.
  EXPECT_EQ(pinned_cpus({1000}), std::vector<int>{1000 % online_cpus()});
}

TEST(Logging, LevelGate) {
  LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  set_log_level(LogLevel::kTrace);
  EXPECT_TRUE(log_enabled(LogLevel::kDebug));
  set_log_level(saved);
}

class RandomPrintableSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomPrintableSizes, ExactLength) {
  EXPECT_EQ(random_printable(7, GetParam()).size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomPrintableSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 150, 4096));

// --- LatencyHist (latency_hist.hpp, feeds bench schema v3) ---------------

TEST(LatencyHist, ExactBelowSubBucketRange) {
  LatencyHist h;
  for (std::uint64_t v : {0u, 1u, 5u, 31u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 31u);
  // Values below kSubBuckets land in exact buckets: the percentile of a
  // single-value histogram is that value.
  LatencyHist one;
  one.record(17);
  EXPECT_EQ(one.percentile(0.5), 17u);
  EXPECT_EQ(one.percentile(1.0), 17u);
}

TEST(LatencyHist, EmptyReportsZero) {
  LatencyHist h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.999), 0u);
}

TEST(LatencyHist, PercentilesTrackExactOrderStatistics) {
  // Against a sorted copy of the samples, every reported percentile must
  // sit within one bucket width (~1/32 relative) above the true order
  // statistic — the HDR error bound the bench reports rely on.
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(5.0, 1.5);  // skewed, long tail
  LatencyHist h;
  std::vector<std::uint64_t> samples;
  samples.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    auto v = static_cast<std::uint64_t>(dist(rng));
    samples.push_back(v);
    h.record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    std::size_t rank = static_cast<std::size_t>(q * samples.size());
    if (rank == 0) rank = 1;
    const double exact = static_cast<double>(samples[rank - 1]);
    const double approx = static_cast<double>(h.percentile(q));
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact * (1.0 + 2.0 / LatencyHist::kSubBuckets) + 1.0)
        << "q=" << q;
  }
  EXPECT_EQ(h.percentile(1.0), samples.back());
}

TEST(LatencyHist, MergeEqualsCombinedRecording) {
  LatencyHist a, b, combined;
  for (std::uint64_t v = 1; v < 5000; v += 7) {
    (v % 2 == 0 ? a : b).record(v * v % 100'000);
    combined.record(v * v % 100'000);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(q), combined.percentile(q));
  }
}

TEST(LatencyHist, BucketRoundTripOverPipe) {
  // bench_c100k's driver children serialise raw buckets to the parent;
  // add_bucket must reconstruct an equivalent histogram.
  LatencyHist src;
  for (std::uint64_t v : {3u, 64u, 65u, 4097u, 1u << 20}) src.record(v);
  LatencyHist dst;
  for (std::size_t i = 0; i < LatencyHist::kBuckets; ++i) {
    if (src.buckets()[i] != 0) dst.add_bucket(i, src.buckets()[i]);
  }
  EXPECT_EQ(dst.count(), src.count());
  for (double q : {0.1, 0.5, 0.9, 1.0}) {
    // max() degrades to the bucket upper bound after serialisation, so
    // percentiles may differ by at most that clamp.
    EXPECT_GE(dst.percentile(q), src.percentile(q));
    EXPECT_LE(dst.percentile(q),
              LatencyHist::upper_bound(LatencyHist::index_of(src.max())));
  }
  // Out-of-range bucket indexes are ignored, not UB.
  dst.add_bucket(LatencyHist::kBuckets + 10, 5);
  EXPECT_EQ(dst.count(), src.count());
}

TEST(LatencyHist, IndexAndBoundAreConsistent) {
  // Every value maps to a bucket whose [.., upper_bound] range contains it.
  for (std::uint64_t v = 0; v < 200'000; v = v * 2 + 1) {
    const std::size_t i = LatencyHist::index_of(v);
    EXPECT_LE(v, LatencyHist::upper_bound(i)) << v;
    if (i > 0) {
      EXPECT_GT(v, LatencyHist::upper_bound(i - 1)) << v;
    }
  }
}

// --- BenchReport schema v3 -----------------------------------------------

TEST(BenchReport, EmitsSchemaV3WithOptionalPercentiles) {
  BenchReport report("unit");
  report.add("tput", "epoll", 1000, 123.5, "msg/s");
  report.add("lat", "epoll", 1000, 42.0, "us",
             BenchPercentiles{10.0, 99.5, 250.0});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  // Percentile fields appear exactly once: on the latency row only.
  EXPECT_EQ(json.find("p50_us"), json.rfind("p50_us"));
  EXPECT_NE(json.find("\"p50_us\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\": 99.5"), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\": 250"), std::string::npos);
  // The throughput row keeps the v2 shape.
  EXPECT_NE(json.find("\"scenario\": \"tput\""), std::string::npos);
  EXPECT_EQ(report.size(), 2u);
}

}  // namespace
}  // namespace ea::util
