#include "table/two_level_iterator.h"

#include <memory>

namespace iamdb {

namespace {

class TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(Iterator* index_iter,
                   std::function<Iterator*(const Slice&)> block_function)
      : index_iter_(index_iter), block_function_(std::move(block_function)) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  void Prev() override {
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  // Steps over exhausted sub-iterators, but stops, invalid, at one that
  // failed: stepping past it would let a merge above this iterator yield
  // the records after the missing ones, or older versions of them.
  bool AtEndOrError() const {
    return !index_iter_->Valid() ||
           (data_iter_ != nullptr && !data_iter_->status().ok());
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (AtEndOrError()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (AtEndOrError()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void SetDataIterator(Iterator* iter) {
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      status_ = data_iter_->status();
    }
    data_iter_.reset(iter);
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
      return;
    }
    Slice handle = index_iter_->value();
    if (data_iter_ != nullptr && handle == current_index_value_) {
      return;  // already positioned in this block
    }
    SetDataIterator(block_function_(handle));
    current_index_value_ = handle.ToString();
  }

  std::unique_ptr<Iterator> index_iter_;
  std::function<Iterator*(const Slice&)> block_function_;
  std::unique_ptr<Iterator> data_iter_;
  std::string current_index_value_;
  Status status_;
};

}  // namespace

Iterator* NewTwoLevelIterator(
    Iterator* index_iter,
    std::function<Iterator*(const Slice& index_value)> block_function) {
  return new TwoLevelIterator(index_iter, std::move(block_function));
}

}  // namespace iamdb
