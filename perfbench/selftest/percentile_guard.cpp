// Checks the harness's tail-percentile guard: a percentile is reported
// only when at least 10 samples lie beyond it. Exit 0 on success.
#include <cstdio>
#include <vector>

#include "../harness/common.hpp"

int main() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAILED", what);
    if (!ok) ++failures;
  };
  const auto samples = [](int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 37) % n));
    return v;
  };
  expect(!perfbench::percentile(samples(150), 0.95).has_value(),
         "p95 of 150 samples (7 beyond) is refused");
  expect(!perfbench::percentile(samples(181), 0.95).has_value(),
         "p95 of 181 samples (9 beyond) is refused");
  expect(perfbench::percentile(samples(182), 0.95).has_value(),
         "p95 of 182 samples (10 beyond) is reported");
  expect(!perfbench::percentile(std::vector<double>(300, 5.0), 0.95)
              .has_value(),
         "p95 of 300 equal samples (none beyond) is refused");
  const auto p50 = perfbench::percentile(samples(101), 0.5);
  expect(p50.has_value() && *p50 == 50.0, "p50 of 0..100 is 50");
  return failures == 0 ? 0 : 1;
}
