#include "core/version.h"

#include "core/filename.h"

namespace iamdb {

Status NodeMeta::OpenReader(Env* env, const TableOptions& options,
                            const InternalKeyComparator* cmp,
                            const std::string& dbname,
                            std::shared_ptr<MSTableReader>* out) const {
  if (empty()) {
    out->reset();
    return Status::InvalidArgument("node is empty");
  }
  if (!opened_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> l(reader_mu_);
    if (reader_ == nullptr) {
      Status s = MSTableReader::Open(env, options, cmp,
                                     TableFileName(dbname, file_number),
                                     file_number, meta_end, &reader_);
      if (!s.ok()) return s;
      opened_.store(true, std::memory_order_release);
    }
  }
  *out = reader_;
  return Status::OK();
}

std::shared_ptr<MSTableReader> NodeMeta::OpenedReader() const {
  if (!opened_.load(std::memory_order_acquire)) return nullptr;
  return reader_;
}

}  // namespace iamdb
