// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary prints CSV rows "figure,series,x,y[,unit]" — the same
// series the paper plots — plus a trailing textual summary comparing the
// measured ordering against the paper's qualitative claim. Workload sizes
// scale with EA_BENCH_SCALE (default 1.0) and per-point measurement time
// with EA_BENCH_SECONDS (default 1 s) so small machines finish quickly
// while larger ones can approach the paper's sizes.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "util/bench_report.hpp"
#include "util/env.hpp"

namespace ea::bench {

inline double scale() { return util::bench_scale(); }

inline double seconds_per_point() {
  return util::env_double("EA_BENCH_SECONDS", 1.0);
}

// Scaled iteration count, at least `min_value`.
inline std::uint64_t scaled(std::uint64_t base, std::uint64_t min_value = 1) {
  auto v = static_cast<std::uint64_t>(static_cast<double>(base) * scale());
  return v < min_value ? min_value : v;
}

inline void csv_header() {
  std::printf("figure,series,x,y,unit\n");
}

inline void row(const char* figure, const std::string& series, double x,
                double y, const char* unit) {
  std::printf("%s,%s,%g,%.6g,%s\n", figure, series.c_str(), x, y, unit);
  std::fflush(stdout);
}

inline void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::printf("# ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
  std::fflush(stdout);
}

// Writes `report` to the path in EA_BENCH_JSON. With the variable unset it
// writes nothing and says so, so a run from the repository root cannot
// overwrite a committed BENCH_*.json. Returns false when the write fails.
inline bool write_report(const util::BenchReport& report) {
  const std::string path = util::env_str("EA_BENCH_JSON", "");
  if (path.empty()) {
    note("EA_BENCH_JSON unset: JSON report not written");
    return true;
  }
  if (!report.write(path)) {
    note("failed to write %s", path.c_str());
    return false;
  }
  note("wrote %s (%zu results)", path.c_str(), report.size());
  return true;
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// A point that runs a fixed number of operations runs until both that
// number and EA_BENCH_SECONDS have passed: a point of a few milliseconds
// measures the scheduler's noise, not the system.
class Window {
 public:
  explicit Window(std::uint64_t min_ops)
      : min_ops_(min_ops), min_seconds_(seconds_per_point()) {}
  bool more(std::uint64_t done) const {
    return done < min_ops_ || timer_.seconds() < min_seconds_;
  }
  // Operations per second in 10^3, the secure-sum figures' unit.
  double krate(std::uint64_t done) const {
    return static_cast<double>(done) / timer_.seconds() / 1000.0;
  }

 private:
  std::uint64_t min_ops_;
  double min_seconds_;
  Timer timer_;
};

}  // namespace ea::bench
