// iamdb_dump: offline inspection and verification of an IamDB directory —
// the release-tooling equivalent of leveldbutil.
//
//   iamdb_dump manifest <dbdir>          recovered tree structure
//   iamdb_dump tree <dbdir>              per-level node/byte/sequence map
//   iamdb_dump verify <dbdir>            checksum-verify every live block
//   iamdb_dump table <file.mst> <end>    dump one MSTable's sequences
//   iamdb_dump scan <dbdir> [limit]      ordered key dump via a real open
//
// Offline modes (manifest/tree/verify/table) never write to the directory.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/db.h"
#include "core/dbformat.h"
#include "core/filename.h"
#include "core/manifest.h"
#include "env/env.h"
#include "table/mstable.h"

namespace {

using namespace iamdb;

int CmdManifest(const std::string& dbdir) {
  RecoveredState state;
  Status s = RecoverManifest(Env::Default(), dbdir, &state);
  if (!s.ok()) {
    std::fprintf(stderr, "manifest recovery failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("log_number:       %" PRIu64 "\n", state.log_number);
  std::printf("next_file_number: %" PRIu64 "\n", state.next_file_number);
  std::printf("next_node_id:     %" PRIu64 "\n", state.next_node_id);
  std::printf("last_sequence:    %" PRIu64 "\n", state.last_sequence);
  std::printf("num_levels:       %d\n", state.num_levels);
  for (size_t level = 0; level < state.nodes.size(); level++) {
    std::printf("level %zu: %zu nodes\n", level, state.nodes[level].size());
    for (const NodeEdit& node : state.nodes[level]) {
      std::printf(
          "  node %" PRIu64 "  file %06" PRIu64 ".mst  meta_end %" PRIu64
          "  %" PRIu64 "B  %u seq  [%s .. %s]%s\n",
          node.node_id, node.file_number, node.meta_end, node.data_bytes,
          node.seq_count, node.range_lo.c_str(), node.range_hi.c_str(),
          node.file_number == 0 ? "  (empty placeholder)" : "");
    }
  }
  return 0;
}

int CmdTree(const std::string& dbdir) {
  RecoveredState state;
  Status s = RecoverManifest(Env::Default(), dbdir, &state);
  if (!s.ok()) {
    std::fprintf(stderr, "manifest recovery failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("%-6s %8s %12s %12s %10s %8s\n", "level", "nodes", "live-bytes",
              "file-bytes", "sequences", "empty");
  for (size_t level = 0; level < state.nodes.size(); level++) {
    uint64_t live = 0, physical = 0, seqs = 0, empties = 0;
    for (const NodeEdit& node : state.nodes[level]) {
      live += node.data_bytes;
      physical += node.meta_end;
      seqs += node.seq_count;
      if (node.file_number == 0) empties++;
    }
    std::printf("%-6zu %8zu %12" PRIu64 " %12" PRIu64 " %10" PRIu64
                " %8" PRIu64 "\n",
                level + 1, state.nodes[level].size(), live, physical, seqs,
                empties);
  }
  return 0;
}

int DumpTable(const std::string& fname, uint64_t meta_end, bool verify_only,
              uint64_t* entries_out) {
  InternalKeyComparator cmp;
  TableOptions options;
  std::shared_ptr<MSTableReader> reader;
  Status s = MSTableReader::Open(Env::Default(), options, &cmp, fname, 1,
                                 meta_end, &reader);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: open failed: %s\n", fname.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  if (!verify_only) {
    std::printf("%s: %d sequences, %" PRIu64 " entries, %" PRIu64
                " live bytes\n",
                fname.c_str(), reader->seq_count(), reader->total_entries(),
                reader->total_data_bytes());
    for (int i = 0; i < reader->seq_count(); i++) {
      const SequenceMeta& meta = reader->sequence(i).meta();
      std::printf("  seq %d: %" PRIu64 " entries, %" PRIu64 "B, [%s .. %s]\n",
                  i, meta.num_entries, meta.data_bytes,
                  ExtractUserKey(meta.smallest).ToString().c_str(),
                  ExtractUserKey(meta.largest).ToString().c_str());
    }
  }
  // Touch every block of every sequence with checksums on, from one read
  // of the node.
  std::shared_ptr<const NodeData> image;
  s = reader->ReadNode(&image);
  if (!s.ok()) {
    std::fprintf(stderr, "%s: read failed: %s\n", fname.c_str(),
                 s.ToString().c_str());
    return 1;
  }
  uint64_t entries = 0;
  std::unique_ptr<Iterator> iter(reader->NewIterator(image));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) entries++;
  if (!iter->status().ok()) {
    std::fprintf(stderr, "%s: corruption: %s\n", fname.c_str(),
                 iter->status().ToString().c_str());
    return 1;
  }
  if (entries_out != nullptr) *entries_out = entries;
  return 0;
}

int CmdVerify(const std::string& dbdir) {
  RecoveredState state;
  Status s = RecoverManifest(Env::Default(), dbdir, &state);
  if (!s.ok()) {
    std::fprintf(stderr, "manifest recovery failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  int failures = 0;
  uint64_t total_entries = 0, nodes = 0;
  for (size_t level = 0; level < state.nodes.size(); level++) {
    for (const NodeEdit& node : state.nodes[level]) {
      if (node.file_number == 0) continue;
      uint64_t entries = 0;
      if (DumpTable(TableFileName(dbdir, node.file_number), node.meta_end,
                    /*verify_only=*/true, &entries) != 0) {
        failures++;
        continue;
      }
      total_entries += entries;
      nodes++;
    }
  }
  std::printf("verified %" PRIu64 " nodes, %" PRIu64
              " entries (incl. shadowed), %d failures\n",
              nodes, total_entries, failures);
  return failures == 0 ? 0 : 1;
}

int CmdScan(const std::string& dbdir, uint64_t limit) {
  Options options;
  options.env = Env::Default();
  options.create_if_missing = false;
  // The engine type only affects compaction; either engine can read a
  // recovered tree, but use AMT (superset reader: multi-sequence nodes).
  options.engine = EngineType::kAmt;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbdir, &db);
  if (!s.ok()) {
    // Retry as leveled (an L0-bearing directory needs overlap-aware reads).
    options.engine = EngineType::kLeveled;
    s = DB::Open(options, dbdir, &db);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  uint64_t n = 0;
  for (iter->SeekToFirst(); iter->Valid() && n < limit; iter->Next(), n++) {
    std::printf("%s => %zuB\n", iter->key().ToString().c_str(),
                iter->value().size());
  }
  if (!iter->status().ok()) {
    std::fprintf(stderr, "scan error: %s\n", iter->status().ToString().c_str());
    return 1;
  }
  std::printf("(%" PRIu64 " keys%s)\n", n, iter->Valid() ? ", truncated" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s manifest|tree|verify|scan <dbdir> | table "
                 "<file.mst> <meta_end>\n",
                 argv[0]);
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "manifest") return CmdManifest(argv[2]);
  if (cmd == "tree") return CmdTree(argv[2]);
  if (cmd == "verify") return CmdVerify(argv[2]);
  if (cmd == "scan") {
    uint64_t limit = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 100;
    return CmdScan(argv[2], limit);
  }
  if (cmd == "table" && argc >= 4) {
    return DumpTable(argv[2], std::strtoull(argv[3], nullptr, 10), false,
                     nullptr);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
