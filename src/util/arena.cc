#include "util/arena.h"

#include <cassert>

namespace iamdb {

static constexpr size_t kBlockSize = 4096;

Arena::Arena()
    : alloc_ptr_(nullptr), alloc_bytes_remaining_(0), memory_usage_(0) {}

char* Arena::AllocateFallback(size_t bytes) {
  if (bytes > kBlockSize / 4) {
    // Large objects get their own block to avoid wasting the current one.
    return AllocateNewBlock(bytes);
  }
  alloc_ptr_ = AllocateNewBlock(kBlockSize);
  alloc_bytes_remaining_ = kBlockSize;

  char* result = alloc_ptr_;
  alloc_ptr_ += bytes;
  alloc_bytes_remaining_ -= bytes;
  return result;
}

char* Arena::AllocateAligned(size_t bytes) {
  const size_t align = alignof(std::max_align_t) > 8
                           ? alignof(std::max_align_t)
                           : 8;
  static_assert((align & (align - 1)) == 0, "alignment must be a power of 2");
  size_t current_mod = reinterpret_cast<uintptr_t>(alloc_ptr_) & (align - 1);
  size_t slop = (current_mod == 0 ? 0 : align - current_mod);
  size_t needed = bytes + slop;
  char* result;
  if (needed <= alloc_bytes_remaining_) {
    result = alloc_ptr_ + slop;
    alloc_ptr_ += needed;
    alloc_bytes_remaining_ -= needed;
  } else {
    result = AllocateFallback(bytes);  // fresh blocks are aligned
  }
  assert((reinterpret_cast<uintptr_t>(result) & (align - 1)) == 0);
  return result;
}

char* Arena::AllocateNewBlock(size_t block_bytes) {
  // Not zero-filled: every caller writes the bytes it asks for before any
  // reader can reach them (SkipList::Insert sets every link before it
  // publishes a node), and a memtable entry larger than kBlockSize / 4
  // gets a block of its own, so zeroing would double the copy of a value.
  blocks_.push_back(std::make_unique_for_overwrite<char[]>(block_bytes));
  memory_usage_.fetch_add(block_bytes + sizeof(blocks_.back()),
                          std::memory_order_relaxed);
  return blocks_.back().get();
}

}  // namespace iamdb
