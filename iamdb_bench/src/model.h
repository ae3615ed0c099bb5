// Inputs and the correctness model of the benchmark.
//
// Keys are "user" + 16 hex digits of a bijective mix of (index, salt), so a
// load in index order arrives in hash order (the paper's YCSB hash load) and
// the salt — derived from --seed — changes which keys sort next to which.
// Values describe themselves: a header carries the key index and version,
// and every body word is derived from both, so any read can be checked
// against the per-key version model without storing the values.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/slice.h"

namespace iamdb::bench {

constexpr size_t kKeySize = 20;
constexpr size_t kValueSize = 1024;
// Logical bytes of one record, the denominator of space amplification.
constexpr uint64_t kRecordBytes = kKeySize + kValueSize;

// splitmix64 finalizer: a bijection on 64-bit integers.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class KeySpace {
 public:
  explicit KeySpace(uint64_t salt) : salt_(salt) {}

  // Position of the key in sort order (keys compare like their ranks).
  uint64_t Rank(uint64_t index) const { return Mix64(index + salt_); }
  std::string Key(uint64_t index) const { return KeyOfRank(Rank(index)); }
  static std::string KeyOfRank(uint64_t rank);
  // Inverse of KeyOfRank; false if `key` is not a benchmark key.
  static bool ParseRank(const Slice& key, uint64_t* rank);

 private:
  uint64_t salt_;
};

// Writes the value of (index, version) into *out (kValueSize bytes).
void MakeValue(uint64_t index, uint32_t version, std::string* out);

// True iff `value` is a well-formed benchmark value; fills index/version.
bool ParseValue(const Slice& value, uint64_t* index, uint32_t* version);

// YCSB scrambled zipfian over [0, n), theta 0.99 (Gray et al.).  Not
// shared with bench/workload, for the same reason as BenchOptions.
class ScrambledZipfian {
 public:
  ScrambledZipfian(uint64_t n, uint64_t seed);
  uint64_t Next();

 private:
  uint64_t n_;
  double zeta_n_, alpha_, eta_, half_pow_theta_;
  uint64_t salt_;
  Random64 rnd_;
};

// Per-key version model (0 = absent) and the live keys in key order.
// Keys written by the set-up load are kept in a sorted vector and keys
// inserted afterwards in a small ordered set, so walking them in order
// stays cheap next to the scans being checked.  Writers of distinct
// indexes may run concurrently only while every index they write is
// already live (the `serve` clients update keys they own and never insert).
class Model {
 public:
  Model(const KeySpace* keys, uint64_t capacity);

  const KeySpace& keys() const { return *keys_; }
  uint64_t capacity() const { return versions_.size(); }
  uint64_t live() const { return loaded_.size() + inserted_.size(); }
  uint32_t version(uint64_t index) const { return versions_[index]; }
  uint32_t NextVersion(uint64_t index) const { return versions_[index] + 1; }
  // Records an acknowledged write of NextVersion(index).
  void Bump(uint64_t index);
  // Ends the set-up load; needed before any ordered walk.
  void SealLoad();

  // Forward walk over the live keys' ranks from a start rank.
  class Cursor {
   public:
    Cursor(const Model& model, uint64_t start_rank);
    bool Valid() const { return a_ != a_end_ || b_ != b_end_; }
    uint64_t rank() const;
    void Next();

   private:
    std::vector<uint64_t>::const_iterator a_, a_end_;
    std::set<uint64_t>::const_iterator b_, b_end_;
  };

  // Exact check of a point read against the model.
  bool CheckRead(uint64_t index, const Slice& value) const;
  // Check of a read whose current version another writer owns: the value
  // must be well formed and belong to `index`.
  static bool CheckForeignRead(uint64_t index, const Slice& value);
  // Exact check of a record read where the model expects the key of
  // `rank`.
  bool CheckEntry(uint64_t rank, const Slice& key, const Slice& value) const;
  // Exact check of a forward scan of at most `limit` records that started
  // at `start` and returned `entries`: no missing, extra, reordered or
  // stale record.
  bool CheckScan(const Slice& start, size_t limit,
                 const std::pair<std::string, std::string>* entries,
                 size_t count) const;

 private:
  const KeySpace* keys_;
  std::vector<uint32_t> versions_;
  std::vector<uint64_t> loaded_;  // sorted once sealed_
  std::set<uint64_t> inserted_;
  bool sealed_ = false;
};

}  // namespace iamdb::bench
