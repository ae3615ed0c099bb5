// Figure 7: normalized throughput for YCSB workloads A-G on (a) SSD-100G,
// (b) HDD-100G, (c) HDD-1T.  One run per (system, dataset) is priced under
// both device profiles, so (a) and (b) share runs; the wall-clock ops/s of
// each run is printed in a table of its own.  The paper's shapes to
// reproduce: LSA/IAM win the write-heavy mixes (A, F); read-heavy mixes
// (B, C, D) are close, with IamDB ahead while the LSMs pay their tuning
// phase; LSA collapses on scans (E, G) while IAM stays at LSM level.
#include <cstdio>
#include <map>
#include <vector>

#include "workload/harness.h"

using namespace iamdb;
using namespace iamdb::bench;

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv, 0.35);
  const std::string workloads = "ABCDEFG";

  struct Dataset {
    const char* name;
    ScaleConfig config;
    std::vector<SystemId> systems;
  };
  ScaleConfig gb100 = ScaleConfig::Gb100();
  gb100.num_records = Scaled(gb100.num_records, scale);
  ScaleConfig tb1 = ScaleConfig::Tb1();
  tb1.num_records = Scaled(tb1.num_records, scale);

  std::vector<Dataset> datasets = {
      {"100G", gb100,
       {SystemId::kL, SystemId::kR1, SystemId::kA1, SystemId::kI1}},
      {"1T", tb1,
       {SystemId::kL, SystemId::kR1, SystemId::kA1, SystemId::kI1}},
  };

  std::printf("=== Figure 7: YCSB A-G normalized throughput (scale %.2f) ===\n",
              scale);

  for (const Dataset& dataset : datasets) {
    // results[workload][system] = (ssd ops/s, hdd ops/s)
    std::map<char, std::vector<std::pair<std::string, std::pair<double, double>>>>
        results;
    // wall[workload][system] = wall-clock ops/s
    std::map<char, std::vector<double>> wall;
    for (SystemId id : dataset.systems) {
      // One paced load per system; each workload window starts settled so
      // it measures that workload's steady-state I/O.  (The paper's extra
      // tuning-phase penalty on the LSMs' read workloads is a wall-clock
      // transient our substrate cannot carry — see EXPERIMENTS.md; the
      // write-mix, scan and load shapes are all measured here.)
      BenchDb bench(id, dataset.config);
      Load(&bench, dataset.config.num_records, /*ordered=*/false,
           SettleMode::kSettleOutside, /*pace_debt_bytes=*/3 << 20);
      const uint64_t ops =
          std::max<uint64_t>(2000, dataset.config.num_records / 16);
      for (char w : workloads) {
        bench.db()->WaitForQuiescence();
        uint64_t run_ops = ops;
        // Write-heavy mixes need enough volume that deferred-compaction
        // batching (e.g. the L0 trigger) amortizes inside the window.
        if (w == 'A' || w == 'F') run_ops = ops * 6;
        if (w == 'E') run_ops = std::max<uint64_t>(400, ops / 10);
        if (w == 'G') run_ops = std::max<uint64_t>(60, ops / 64);
        RunResult r = RunWorkload(&bench, WorkloadSpec::Ycsb(w), run_ops, 1000 + w,
                                  /*settle_in_window=*/true);
        results[w].emplace_back(
            SystemName(id),
            std::make_pair(r.Throughput("SSD"), r.Throughput("HDD")));
        wall[w].push_back(r.WallThroughput());
      }
      // Device reads over the load and all seven workloads.
      std::printf("  [%s/%s done: read_ops=%llu]\n", dataset.name,
                  SystemName(id),
                  static_cast<unsigned long long>(
                      bench.db()->GetStats().io.read_ops));
    }

    auto print_device = [&](const char* device, bool ssd) {
      std::printf("\nFig7 %s-%s (normalized to L):\n", device, dataset.name);
      std::printf("  %-4s", "WL");
      for (SystemId id : dataset.systems) {
        std::printf(" %8s", SystemName(id));
      }
      std::printf("\n");
      for (char w : workloads) {
        std::printf("  %-4c", w);
        double base = ssd ? results[w][0].second.first
                          : results[w][0].second.second;
        for (const auto& [_, tp] : results[w]) {
          double v = ssd ? tp.first : tp.second;
          std::printf(" %8.2f", base > 0 ? v / base : 0);
        }
        std::printf("\n");
      }
    };
    if (std::string(dataset.name) == "100G") {
      print_device("SSD", true);
      print_device("HDD", false);
    } else {
      print_device("HDD", false);
    }
    // The host's speed, apart from the modeled device figures above.
    std::printf("\nFig7 wall-clock ops/s-%s (not normalized):\n",
                dataset.name);
    std::printf("  %-4s", "WL");
    for (SystemId id : dataset.systems) std::printf(" %10s", SystemName(id));
    std::printf("\n");
    for (char w : workloads) {
      std::printf("  %-4c", w);
      for (double v : wall[w]) std::printf(" %10.0f", v);
      std::printf("\n");
    }
    std::printf("\n");
  }
  return 0;
}
