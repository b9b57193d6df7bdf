#include "core/scheduler_queue.hpp"

#include <stdexcept>

#include "core/indexed_queue.hpp"
#include "core/queue_naive.hpp"

namespace woha::core {

const char* to_string(QueueKind kind) {
  switch (kind) {
    case QueueKind::kDsl: return "DSL";
    case QueueKind::kBst: return "BST";
    case QueueKind::kBstPlain: return "BSTplain";
    case QueueKind::kNaive: return "Naive";
  }
  return "?";
}

std::unique_ptr<SchedulerQueue> make_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kDsl: return std::make_unique<DslQueue>();
    case QueueKind::kBst: return std::make_unique<BstQueue>();
    case QueueKind::kBstPlain: return std::make_unique<BstPlainQueue>();
    case QueueKind::kNaive: return std::make_unique<NaiveQueue>();
  }
  throw std::invalid_argument("make_queue: unknown kind");
}

}  // namespace woha::core
