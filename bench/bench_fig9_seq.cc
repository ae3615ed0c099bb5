// Figure 9: sequential load (db_bench fillseq) and sequential read
// (readseq, a full-database long-range scan) on SSD and HDD.  Expected
// shape (paper Sec 6.6): fillseq near-equal for L/A/I (every system writes
// each record twice: log + one table write; LSA/IAM sink nodes by metadata
// moves) with RocksDB ~25% down from stalls; readseq best on IAM.
#include <cstdio>
#include <vector>

#include "workload/harness.h"

using namespace iamdb;
using namespace iamdb::bench;

int main(int argc, char** argv) {
  double scale = ParseScale(argc, argv, 0.5);
  ScaleConfig config = ScaleConfig::Gb100();
  config.num_records = Scaled(config.num_records, scale);

  std::printf("=== Figure 9: fillseq / readseq (scale %.2f) ===\n", scale);
  std::vector<SystemId> systems = {SystemId::kL, SystemId::kR1, SystemId::kA1,
                                   SystemId::kI1};

  std::vector<std::pair<std::string, double>> fill_ssd, fill_hdd;
  std::vector<std::pair<std::string, double>> read_ssd, read_hdd;
  std::vector<std::pair<std::string, double>> fill_wamp;
  std::vector<double> fill_wall, read_wall;

  for (SystemId id : systems) {
    BenchDb bench(id, config);
    RunResult fill = Load(&bench, config.num_records, /*ordered=*/true,
                          SettleMode::kSettleOutside,
                          /*pace_debt_bytes=*/3 << 20);
    fill_ssd.emplace_back(SystemName(id), fill.Throughput("SSD"));
    fill_hdd.emplace_back(SystemName(id), fill.Throughput("HDD"));
    fill_wall.push_back(fill.WallThroughput());
    fill_wamp.emplace_back(SystemName(id),
                           bench.db()->GetStats().total_write_amp);

    std::printf("  [%s fillseq wamp=%.2f]\n", SystemName(id),
                bench.db()->GetStats().total_write_amp);
    RunResult read = ReadSeq(&bench);
    // readseq throughput in records/s: each recorded op covers 100 records.
    read_ssd.emplace_back(SystemName(id), 100 * read.Throughput("SSD"));
    read_hdd.emplace_back(SystemName(id), 100 * read.Throughput("HDD"));
    read_wall.push_back(100 * read.WallThroughput());
  }

  PrintNormalized("\nFig9 fillseq-SSD (normalized to L):", fill_ssd,
                  fill_wall);
  PrintNormalized("\nFig9 fillseq-HDD (normalized to L):", fill_hdd,
                  fill_wall);
  PrintNormalized("\nFig9 readseq-SSD (records/s, normalized to L):",
                  read_ssd, read_wall);
  PrintNormalized("\nFig9 readseq-HDD (records/s, normalized to L):",
                  read_hdd, read_wall);
  std::printf("\nfillseq write amp (log excluded; ~1.0 = written once):\n");
  for (const auto& [name, wamp] : fill_wamp) {
    std::printf("  %-6s %6.2f\n", name.c_str(), wamp);
  }
  return 0;
}
