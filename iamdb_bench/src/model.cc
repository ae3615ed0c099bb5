#include "model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace iamdb::bench {

namespace {

constexpr size_t kHeaderSize = 16;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;

uint64_t BodySeed(uint64_t index, uint32_t version) {
  return Mix64(index * kGolden ^ (static_cast<uint64_t>(version) << 40));
}

uint32_t HeaderCheck(uint64_t index, uint32_t version) {
  return static_cast<uint32_t>(
      Mix64(index ^ (uint64_t{version} << 32) ^ 0x5bd1e995));
}

}  // namespace

std::string KeySpace::KeyOfRank(uint64_t rank) {
  static const char kHex[] = "0123456789abcdef";
  std::string key = "user0000000000000000";
  for (int i = 0; i < 16; i++) {
    key[kKeySize - 1 - i] = kHex[(rank >> (4 * i)) & 0xf];
  }
  return key;
}

bool KeySpace::ParseRank(const Slice& key, uint64_t* rank) {
  if (key.size() != kKeySize || !key.starts_with("user")) return false;
  uint64_t r = 0;
  for (size_t i = 4; i < kKeySize; i++) {
    char c = key[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    r = (r << 4) | static_cast<uint64_t>(digit);
  }
  *rank = r;
  return true;
}

void MakeValue(uint64_t index, uint32_t version, std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  uint32_t check = HeaderCheck(index, version);
  std::memcpy(p, &index, 8);
  std::memcpy(p + 8, &version, 4);
  std::memcpy(p + 12, &check, 4);
  const uint64_t seed = BodySeed(index, version);
  for (size_t off = kHeaderSize; off < kValueSize; off += 8) {
    std::memcpy(p + off, &seed, 8);
  }
}

bool ParseValue(const Slice& value, uint64_t* index, uint32_t* version) {
  if (value.size() != kValueSize) return false;
  const char* p = value.data();
  uint32_t check;
  std::memcpy(index, p, 8);
  std::memcpy(version, p + 8, 4);
  std::memcpy(&check, p + 12, 4);
  if (*version == 0 || check != HeaderCheck(*index, *version)) return false;
  // The body repeats one word, so comparing it with itself shifted by one
  // word checks every byte at memcmp speed: checking every read must stay
  // cheap next to an in-memory Get.
  const uint64_t seed = BodySeed(*index, *version);
  return std::memcmp(p + kHeaderSize, &seed, 8) == 0 &&
         std::memcmp(p + kHeaderSize, p + kHeaderSize + 8,
                     kValueSize - kHeaderSize - 8) == 0;
}

ScrambledZipfian::ScrambledZipfian(uint64_t n, uint64_t seed)
    : n_(n), salt_(Mix64(seed ^ 0x2545f4914f6cdd1dull)), rnd_(seed) {
  constexpr double kTheta = 0.99;
  zeta_n_ = 0;
  for (uint64_t i = 0; i < n_; i++) {
    zeta_n_ += 1.0 / std::pow(static_cast<double>(i + 1), kTheta);
  }
  double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
  alpha_ = 1.0 / (1.0 - kTheta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - kTheta)) /
         (1.0 - zeta2 / zeta_n_);
  half_pow_theta_ = 1.0 + std::pow(0.5, kTheta);
}

uint64_t ScrambledZipfian::Next() {
  double u = rnd_.NextDouble();
  double uz = u * zeta_n_;
  uint64_t item;
  if (uz < 1.0) {
    item = 0;
  } else if (uz < half_pow_theta_) {
    item = 1;
  } else {
    item = static_cast<uint64_t>(static_cast<double>(n_) *
                                 std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  return Mix64(item ^ salt_) % n_;
}

Model::Model(const KeySpace* keys, uint64_t capacity)
    : keys_(keys), versions_(capacity, 0) {}

void Model::Bump(uint64_t index) {
  if (versions_[index]++ != 0) return;
  if (sealed_) {
    inserted_.insert(keys_->Rank(index));
  } else {
    loaded_.push_back(keys_->Rank(index));
  }
}

void Model::SealLoad() {
  std::sort(loaded_.begin(), loaded_.end());
  sealed_ = true;
}

Model::Cursor::Cursor(const Model& model, uint64_t start_rank)
    : a_(std::lower_bound(model.loaded_.begin(), model.loaded_.end(),
                          start_rank)),
      a_end_(model.loaded_.end()),
      b_(model.inserted_.lower_bound(start_rank)),
      b_end_(model.inserted_.end()) {}

uint64_t Model::Cursor::rank() const {
  if (b_ == b_end_) return *a_;
  if (a_ == a_end_) return *b_;
  return std::min(*a_, *b_);
}

void Model::Cursor::Next() {
  if (b_ == b_end_ || (a_ != a_end_ && *a_ < *b_)) {
    ++a_;
  } else {
    ++b_;
  }
}

bool Model::CheckRead(uint64_t index, const Slice& value) const {
  uint64_t got_index;
  uint32_t got_version;
  return ParseValue(value, &got_index, &got_version) && got_index == index &&
         got_version == versions_[index];
}

bool Model::CheckForeignRead(uint64_t index, const Slice& value) {
  uint64_t got_index;
  uint32_t got_version;
  return ParseValue(value, &got_index, &got_version) && got_index == index;
}

bool Model::CheckEntry(uint64_t rank, const Slice& key,
                       const Slice& value) const {
  uint64_t key_rank, index;
  uint32_t version;
  return KeySpace::ParseRank(key, &key_rank) && key_rank == rank &&
         ParseValue(value, &index, &version) && index < versions_.size() &&
         keys_->Rank(index) == rank && version == versions_[index];
}

bool Model::CheckScan(const Slice& start, size_t limit,
                      const std::pair<std::string, std::string>* entries,
                      size_t count) const {
  uint64_t start_rank;
  if (count > limit || !KeySpace::ParseRank(start, &start_rank)) return false;
  Cursor expect(*this, start_rank);
  for (size_t i = 0; i < count; i++, expect.Next()) {
    if (!expect.Valid() ||
        !CheckEntry(expect.rank(), entries[i].first, entries[i].second)) {
      return false;
    }
  }
  // A short scan must have reached the end of the key space.
  return count == limit || !expect.Valid();
}

}  // namespace iamdb::bench
