#include "stats/io_stats.h"

namespace iamdb {

namespace {
thread_local OpIoContext* tls_op_ctx = nullptr;
}  // namespace

OpIoScope::OpIoScope() : prev_(tls_op_ctx) { tls_op_ctx = &ctx_; }

OpIoScope::~OpIoScope() { tls_op_ctx = prev_; }

const OpIoContext& OpIoScope::context() const { return ctx_; }

void IoStats::RecordRead(uint64_t bytes, uint64_t seeks) {
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  read_ops_.fetch_add(seeks, std::memory_order_relaxed);
  if (tls_op_ctx != nullptr) {
    tls_op_ctx->seeks += seeks;
    tls_op_ctx->bytes_read += bytes;
  }
}

void IoStats::RecordWrite(uint64_t bytes) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  write_ops_.fetch_add(1, std::memory_order_relaxed);
  if (tls_op_ctx != nullptr) tls_op_ctx->bytes_written += bytes;
}

void OpIoScope::RecordStall(uint64_t micros) {
  if (tls_op_ctx != nullptr) tls_op_ctx->stall_micros += micros;
}

}  // namespace iamdb
