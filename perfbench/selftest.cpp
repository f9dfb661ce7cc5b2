// Self-tests of the benchmark itself: its arithmetic (percentile rule,
// failure accounting, span self-time), its output checks, and two live
// runs proving that a lost reply is counted as failed instead of hanging
// the closed loop.
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

std::vector<std::uint64_t> one_to(std::uint64_t n) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentile_rule() {
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(0.50) == 20, "p50 needs 20 samples");
  expect(percentile(one_to(1000), 0.99) == 990.0,
         "p99 of 1..1000 is the 990th value");
  expect(!percentile(one_to(999), 0.99).has_value(),
         "p99 of 999 samples is unreported (9 beyond)");
  expect(percentile(one_to(20), 0.50) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(std::vector<std::uint64_t>{}, 0.50).has_value(),
         "no samples, no percentile");
  ea::util::LatencyHist hist;
  for (std::uint64_t v = 1; v <= 999; ++v) hist.record(v);
  expect(!percentile(hist, 0.99).has_value(),
         "histogram p99 follows the same rule");
  hist.record(1000);
  expect(percentile(hist, 0.99).has_value(), "histogram p99 at 1000 samples");
  expect(lower_quartile({8, 1, 7, 2, 6, 3, 5, 4}) == 2.0,
         "lower quartile of 1..8 is the 2nd value");
  expect(lower_quartile({3.5}) == 3.5, "lower quartile of one set-up");
}

void failure_accounting() {
  Outcome o;
  o.ok();
  o.record(true);
  o.record(false);       // refused or timed out
  o.check(false);        // wrong output
  o.check(true);
  expect(o.attempted == 5 && o.failed == 2 && o.wrong == 1,
         "outcome counts attempted, failed and wrong outputs");
  expect(o.fail_ratio() == 0.4, "fail_ratio = failed / attempted");
  Outcome none;
  expect(none.fail_ratio() == 1.0, "a run that attempted nothing failed");
  Outcome merged;
  merged.merge(o);
  merged.merge(o);
  expect(merged.attempted == 10 && merged.failed == 4 && merged.wrong == 2,
         "outcomes merge");
}

void span_self_time() {
  const Span parent{100, 200};
  expect(self_time_ns(parent, {}) == 100, "no children: all self time");
  expect(self_time_ns(parent, {{110, 120}, {115, 130}}) == 80,
         "overlapping children count once");
  expect(self_time_ns(parent, {{90, 105}, {190, 250}}) == 85,
         "children are clipped to the parent");
  expect(self_time_ns(parent, {{120, 180}, {130, 140}}) == 40,
         "a nested child adds nothing");
  expect(self_time_ns(parent, {{10, 20}, {300, 400}}) == 100,
         "children outside the parent are ignored");
  expect(self_time_ns(parent, {{100, 200}}) == 0, "fully covered parent");
}

void output_checks() {
  ea::smc::Vec expected = {1, 2, 3, 0xffffffffu};
  ea::util::Bytes wire = ea::smc::serialize(expected);
  expect(sum_matches(wire, expected), "the right sum passes");
  wire[5] ^= 1;
  Outcome sums;
  sums.check(sum_matches(wire, expected));
  expect(sums.wrong == 1, "a wrong sum is counted as a failure");
  expect(!sum_matches(ea::util::Bytes(12), expected),
         "a short sum is counted as a failure");

  std::uint8_t value[kKvValueBytes];
  make_kv_value(7, 3, value);
  expect(kv_value_ok(7, value), "a stored value passes its check");
  expect(!kv_value_ok(8, value), "a value under the wrong key fails");
  value[20] ^= 0x40;
  Outcome values;
  values.check(kv_value_ok(7, value));
  expect(values.wrong == 1, "a corrupt value is counted as a failure");
  expect(!kv_value_ok(7, std::span<const std::uint8_t>(value, 10)),
         "a truncated value fails");

  SequenceCheck seq;
  Outcome acks;
  for (std::uint64_t s : {0, 1, 2, 4, 5}) acks.check(seq.accept(s));
  expect(acks.wrong == 1 && acks.attempted == 5,
         "a missing sequence number is counted once");
}

void live_runs() {
  const auto deadline = std::chrono::milliseconds(500);
  const Outcome normal = xmpp_single_echo(150, deadline);
  expect(normal.attempted == 1 && normal.failed == 0,
         "xmpp: a 150-byte chat is echoed");
  // A chat larger than a node is dropped by the server (send_raw: "message
  // exceeds node capacity"); the sender must count it lost, not hang.
  const Outcome oversized = xmpp_single_echo(4096, deadline);
  expect(oversized.attempted == 1 && oversized.failed == 1 &&
             oversized.wrong == 0,
         "xmpp: an oversized chat is a lost echo, counted as failed");

  const Outcome clean = migrate_with_drop(4, ~0ull);
  expect(clean.failed == 0 && clean.attempted > 4,
         "migrate: moves succeed and every driver message returns in order");
  const Outcome dropped = migrate_with_drop(4, 100);
  expect(dropped.wrong >= 1, "migrate: a lost driver message is counted");
}

}  // namespace

int run_self_test() {
  percentile_rule();
  failure_accounting();
  span_self_time();
  output_checks();
  live_runs();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
