#include "core/compaction_output.h"

#include <algorithm>
#include <mutex>

#include "core/db_impl.h"
#include "core/filename.h"
#include "util/task_group.h"

namespace iamdb {

CompactionOutput::CompactionOutput(DBImpl* db, uint64_t cut_bytes)
    : db_(db), cut_bytes_(cut_bytes) {}

Status CompactionOutput::AddStream(CompactionStream* stream,
                                   const std::string* stop) {
  while (status_.ok() && stream->Valid()) {
    Slice user_key = ExtractUserKey(stream->key());
    if (stop != nullptr && user_key.compare(Slice(*stop)) >= 0) break;
    if (cut_bytes_ != kNoCut) {
      if (writer_ != nullptr &&
          writer_->EstimatedDataBytes() >= cut_bytes_ &&
          user_key != Slice(last_user_key_) && !Cut().ok()) {
        break;
      }
      last_user_key_.assign(user_key.data(), user_key.size());
    }
    if (writer_ == nullptr) {
      {
        std::lock_guard<std::mutex> l(db_->mutex());
        file_number_ = db_->NewFileNumber();
        node_id_ = db_->NewNodeId();
      }
      writer_ = std::make_unique<MSTableWriter>(
          db_->env(), db_->options().table, db_->icmp(),
          TableFileName(db_->dbname(), file_number_), file_number_);
      status_ = writer_->Open();
      if (!status_.ok()) break;
    }
    status_ = writer_->Add(stream->key(), stream->value());
    if (!status_.ok()) break;
    stream->Next();
  }
  if (status_.ok()) status_ = stream->status();
  return status_;
}

Status CompactionOutput::Cut() {
  if (!status_.ok() || writer_ == nullptr) return status_;
  MSTableBuildResult result;
  status_ = writer_->Finish(/*sync=*/true, &result);
  if (!status_.ok()) return status_;  // Finish() abandons the file
  outputs_.push_back(NodeFromBuild(
      result, node_id_, file_number_,
      std::make_shared<FileLifetime>(
          db_->env(), TableFileName(db_->dbname(), file_number_))));
  data_bytes_ += result.reader->total_data_bytes();
  meta_bytes_ += result.meta_bytes;
  writer_.reset();
  return status_;
}

Status CompactionOutput::Finish() {
  Cut();
  if (!status_.ok()) {
    writer_.reset();  // abandons the open file
    for (const NodePtr& node : outputs_) node->lifetime->MarkObsolete();
  }
  return status_;
}

Status ReadInputNode(DBImpl* db, const NodeMeta& node, InputNode* input) {
  Status s = node.OpenReader(db->env(), db->options().table, db->icmp(),
                             db->dbname(), &input->reader);
  if (s.ok()) s = input->reader->ReadNode(&input->image);
  return s;
}

Status RunSubcompactions(
    DBImpl* db, const std::vector<uint64_t>& cost, TreeEngine::WorkLane lane,
    const std::function<Status(size_t begin, size_t end)>& run_group) {
  const Options& options = db->options();
  int fan = options.max_subcompactions > 0 ? options.max_subcompactions
                                           : options.background_threads;
  fan = std::min<int>(fan, static_cast<int>(cost.size()));
  if (fan <= 1) return run_group(0, cost.size());

  // Contiguous groups balanced by cost, each one pool task, so a skewed
  // unit doesn't serialize the job behind one shard.
  uint64_t total = 0;
  for (uint64_t c : cost) total += c;
  std::vector<size_t> group_begin = {0};
  const uint64_t per_group = total / fan + 1;
  uint64_t acc = 0;
  for (size_t i = 0; i < cost.size(); i++) {
    if (acc >= per_group && static_cast<int>(group_begin.size()) < fan) {
      group_begin.push_back(i);
      acc = 0;
    }
    acc += cost[i];
  }
  group_begin.push_back(cost.size());

  std::vector<std::function<Status()>> tasks;
  tasks.reserve(group_begin.size() - 1);
  for (size_t g = 0; g + 1 < group_begin.size(); g++) {
    tasks.push_back([&run_group, begin = group_begin[g],
                     end = group_begin[g + 1]]() -> Status {
      return run_group(begin, end);
    });
  }
  db->RecordSubcompactions(tasks.size());
  return TaskGroup::RunAll(db->pool(),
                           lane == TreeEngine::WorkLane::kFlush
                               ? ThreadPool::Lane::kHigh
                               : ThreadPool::Lane::kLow,
                           std::move(tasks));
}

}  // namespace iamdb
