#include "core/version.h"

#include <cassert>

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

NodePtr NodeFromBuild(const MSTableBuildResult& result, uint64_t node_id,
                      uint64_t file_number,
                      std::shared_ptr<FileLifetime> lifetime) {
  assert(result.reader != nullptr);
  auto node = std::make_shared<NodeMeta>();
  node->node_id = node_id;
  node->file_number = file_number;
  node->meta_end = result.meta_end;
  const MSTableReader& reader = *result.reader;
  node->data_bytes = reader.total_data_bytes();
  node->num_entries = reader.total_entries();
  node->seq_count = static_cast<uint32_t>(reader.seq_count());
  node->smallest_ikey = reader.smallest().ToString();
  node->largest_ikey = reader.largest().ToString();
  node->range_lo = ExtractUserKey(reader.smallest()).ToString();
  node->range_hi = ExtractUserKey(reader.largest()).ToString();
  node->lifetime = std::move(lifetime);
  node->reader_ = result.reader;
  node->opened_.store(true, std::memory_order_release);
  return node;
}

NodeEdit ToEdit(const NodeMeta& node, int level) {
  NodeEdit e;
  static_cast<NodeImage&>(e) = node;
  e.level = level;
  return e;
}

NodePtr NodeFromEdit(const NodeEdit& e, Env* env, const std::string& dbname) {
  auto node = std::make_shared<NodeMeta>();
  static_cast<NodeImage&>(*node) = e;
  if (e.file_number != 0) {
    node->lifetime = std::make_shared<FileLifetime>(
        env, TableFileName(dbname, e.file_number));
  }
  return node;
}

}  // namespace iamdb
