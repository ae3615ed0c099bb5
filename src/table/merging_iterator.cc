#include "table/merging_iterator.h"

#include <cassert>
#include <memory>
#include <vector>

namespace iamdb {

namespace {

// Plain byte order over user keys.
struct BytewiseOrder {
  int Compare(const Slice& a, const Slice& b) const { return a.compare(b); }
};

// The order is a template parameter so the merge loop compactions and
// scans run compiles to direct comparator calls.
template <typename Comparator>
class MergingIterator final : public Iterator {
 public:
  MergingIterator(Comparator comparator, Iterator** children, int n)
      : comparator_(comparator), current_(nullptr) {
    children_.reserve(n);
    for (int i = 0; i < n; i++) children_.emplace_back(children[i]);
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    FindSmallest(kAllMoved);
    direction_ = kForward;
  }

  void SeekToLast() override {
    for (auto& child : children_) child->SeekToLast();
    FindLargest(kAllMoved);
    direction_ = kReverse;
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    FindSmallest(kAllMoved);
    direction_ = kForward;
  }

  void Next() override {
    assert(Valid());
    const Iterator* moved = current_;
    if (direction_ != kForward) {
      moved = kAllMoved;
      // All non-current children must be repositioned after current's key.
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(key());
        if (child->Valid() &&
            comparator_.Compare(key(), child->key()) == 0) {
          child->Next();
        }
      }
      direction_ = kForward;
    }
    current_->Next();
    FindSmallest(moved);
  }

  void Prev() override {
    assert(Valid());
    const Iterator* moved = current_;
    if (direction_ != kReverse) {
      moved = kAllMoved;
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(key());
        if (child->Valid()) {
          child->Prev();  // entry strictly before key()
        } else {
          child->SeekToLast();  // everything in child is before key()
        }
      }
      direction_ = kReverse;
    }
    current_->Prev();
    FindLargest(moved);
  }

  Slice key() const override {
    assert(Valid());
    return current_->key();
  }

  Slice value() const override {
    assert(Valid());
    return current_->value();
  }

  Status status() const override {
    for (const auto& child : children_) {
      Status s = child->status();
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  // A child that failed ends the merge, invalid: its missing records may
  // hold the newest version of a key that another child has an older one
  // of.  A child stops, invalid, at its first error, so only children that
  // are invalid and were just moved need a status check: the one a step
  // moved, or every child after a seek (kAllMoved).
  static constexpr const Iterator* kAllMoved = nullptr;
  bool Failed(const Iterator* child, const Iterator* moved) const {
    return (moved == kAllMoved || child == moved) && !child->status().ok();
  }

  // Linear scan: child counts are small (sequences per node <= 2t) and this
  // keeps ties deterministic (lowest index wins).
  void FindSmallest(const Iterator* moved) {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (!child->Valid()) {
        if (Failed(child.get(), moved)) {
          current_ = nullptr;
          return;
        }
        continue;
      }
      if (smallest == nullptr ||
          comparator_.Compare(child->key(), smallest->key()) < 0) {
        smallest = child.get();
      }
    }
    current_ = smallest;
  }

  void FindLargest(const Iterator* moved) {
    Iterator* largest = nullptr;
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
      auto& child = *it;
      if (!child->Valid()) {
        if (Failed(child.get(), moved)) {
          current_ = nullptr;
          return;
        }
        continue;
      }
      if (largest == nullptr ||
          comparator_.Compare(child->key(), largest->key()) > 0) {
        largest = child.get();
      }
    }
    current_ = largest;
  }

  const Comparator comparator_;
  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_;
  Direction direction_ = kForward;
};

template <typename Comparator>
Iterator* NewMerging(Comparator comparator, Iterator** children, int n) {
  assert(n >= 0);
  if (n == 0) return NewEmptyIterator();
  if (n == 1) return children[0];
  return new MergingIterator<Comparator>(comparator, children, n);
}

}  // namespace

Iterator* NewMergingIterator(const InternalKeyComparator* comparator,
                             Iterator** children, int n) {
  return NewMerging(*comparator, children, n);
}

Iterator* NewBytewiseMergingIterator(Iterator** children, int n) {
  return NewMerging(BytewiseOrder(), children, n);
}

}  // namespace iamdb
