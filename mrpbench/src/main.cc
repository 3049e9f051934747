// mrpbench: one command for every workload of the end-to-end benchmark.
//
//   mrpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--spans <file>]
//   mrpbench --self-test
//
// Prints notes and a metric table, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. Exits 1
// (with "correct": false and no metrics) when an output check, a
// load-honesty gate or the memory guard fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace mrpbench {
namespace {

void PrintResult(const Result& r) {
  for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const auto& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  if (r.correct) {
    for (const auto& m : r.metrics) {
      std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  if (r.correct) {
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

Result Run(const WorkloadSpec& w, const RunOptions& opts) {
  Result r = w.sim ? RunSim(w, opts) : RunRuntime(w, opts);
  for (const auto& m : r.metrics) {
    if (!std::isfinite(m.value)) r.Fail("metric " + m.name + " is not a finite number");
  }
  if (r.attempted == 0) r.Fail("no message was attempted");
  return r;
}

bool Expect(bool ok, const char* what) {
  std::printf("self-test: %-62s %s\n", what, ok ? "ok" : "FAILED");
  return ok;
}

bool HasFailure(const Result& r, const char* prefix) {
  for (const auto& f : r.failures) {
    if (f.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// The benchmark's own checks, on shortened simulator runs.
int SelfTest() {
  WorkloadSpec tiny = *FindWorkload("sim_merge_2ring");
  tiny.measure = mrp::Seconds(2);
  RunOptions opts;
  opts.seconds = 0;
  bool ok = true;

  WorkloadSpec starved = tiny;  // coordinator submit acks only, no delivery acks
  starved.ack_submits = true;
  starved.delivery_acks = false;
  const Result s = RunSim(starved, opts);
  for (const auto& f : s.failures) std::printf("  starved: %s\n", f.c_str());
  ok &= Expect(!s.correct && HasFailure(s, "load gate"),
               "starved variant (submit acks only) trips a load gate");

  const Result a = RunSim(tiny, opts);
  ok &= Expect(a.correct, "2-ring merge passes its output checks and gates");

  RunOptions traced = opts;
  traced.trace = true;
  const Result t = RunSim(tiny, traced);
  for (const auto& n : t.notes) {
    if (n.rfind("stage sum", 0) == 0) std::printf("  %s\n", n.c_str());
  }
  ok &= Expect(t.correct && !HasFailure(t, "stage sum"), "traced run satisfies the stage sum rule");

  WorkloadSpec skew = *FindWorkload("sim_skew_4ring");
  skew.measure = mrp::Seconds(2);
  const Result k = RunSim(skew, traced);
  ok &= Expect(k.correct && !HasFailure(k, "stage sum"), "skewed 4-ring traced run passes");

  RunOptions other = opts;
  other.seed = 2;
  const Result b = RunSim(tiny, other);
  auto digest = [](const Result& r) {
    for (const auto& n : r.notes) {
      if (n.rfind("seed ", 0) == 0) return n.substr(n.find("digest"));
    }
    return std::string();
  };
  ok &= Expect(b.correct && !digest(a).empty() && digest(a) != digest(b),
               "a different seed changes the delivery digest");
  std::printf("self-test: %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: mrpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>]\n"
               "       mrpbench --self-test\n"
               "workloads:");
  for (const auto& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace mrpbench

int main(int argc, char** argv) {
  using namespace mrpbench;  // NOLINT
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) return SelfTest();
  }
  const char* name = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  if (name == nullptr || seed == nullptr || seconds == nullptr || trace == nullptr) {
    return Usage();
  }
  const WorkloadSpec* w = FindWorkload(name);
  if (w == nullptr) return Usage();
  RunOptions opts;
  opts.seed = std::strtoull(seed, nullptr, 10);
  opts.seconds = std::strtod(seconds, nullptr);
  opts.trace = std::strcmp(trace, "1") == 0;
  if (const char* spans = Flag(argc, argv, "--spans")) opts.spans_path = spans;
  if (opts.seconds <= 0 || opts.seconds > 120) return Usage();
  const Result r = Run(*w, opts);
  PrintResult(r);
  return r.correct ? 0 : 1;
}
