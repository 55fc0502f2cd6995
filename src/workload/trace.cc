#include "workload/trace.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

namespace lor {
namespace workload {

namespace {

const char* KindName(TraceOp::Kind kind) {
  switch (kind) {
    case TraceOp::Kind::kPut:
      return "put";
    case TraceOp::Kind::kSafeWrite:
      return "safewrite";
    case TraceOp::Kind::kGet:
      return "get";
    case TraceOp::Kind::kDelete:
      return "delete";
  }
  return "?";
}

/// Parses a decimal object size: digits only (from_chars takes no sign
/// for an unsigned type), within uint64.
bool ParseSize(const std::string& token, uint64_t* size) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *size);
  return ec == std::errc() && ptr == end;
}

}  // namespace

void Trace::Serialize(std::ostream& os) const {
  for (const TraceOp& op : ops_) {
    os << KindName(op.kind) << ' ' << op.key;
    if (op.kind == TraceOp::Kind::kPut ||
        op.kind == TraceOp::Kind::kSafeWrite) {
      os << ' ' << op.size;
    }
    os << '\n';
  }
}

Result<Trace> Trace::Deserialize(std::istream& is) {
  Trace trace;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string verb, key;
    ss >> verb >> key;
    if (verb.empty() || key.empty()) {
      return Status::InvalidArgument("malformed trace line " +
                                     std::to_string(line_no));
    }
    TraceOp op;
    op.key = key;
    if (verb == "put" || verb == "safewrite") {
      op.kind = verb == "put" ? TraceOp::Kind::kPut
                              : TraceOp::Kind::kSafeWrite;
      std::string size;
      if (!(ss >> size)) {
        return Status::InvalidArgument("missing size at trace line " +
                                       std::to_string(line_no));
      }
      if (!ParseSize(size, &op.size)) {
        return Status::InvalidArgument("bad size '" + size +
                                       "' at trace line " +
                                       std::to_string(line_no));
      }
    } else if (verb == "get") {
      op.kind = TraceOp::Kind::kGet;
    } else if (verb == "delete") {
      op.kind = TraceOp::Kind::kDelete;
    } else {
      return Status::InvalidArgument("unknown op at trace line " +
                                     std::to_string(line_no));
    }
    std::string extra;
    if (ss >> extra) {
      return Status::InvalidArgument("trailing '" + extra +
                                     "' at trace line " +
                                     std::to_string(line_no));
    }
    trace.Add(std::move(op));
  }
  return trace;
}

Status Trace::Replay(core::ObjectRepository* repo) const {
  for (const TraceOp& op : ops_) {
    switch (op.kind) {
      case TraceOp::Kind::kPut:
        LOR_RETURN_IF_ERROR(repo->Put(op.key, op.size));
        break;
      case TraceOp::Kind::kSafeWrite:
        LOR_RETURN_IF_ERROR(repo->SafeWrite(op.key, op.size));
        break;
      case TraceOp::Kind::kGet:
        LOR_RETURN_IF_ERROR(repo->Get(op.key));
        break;
      case TraceOp::Kind::kDelete:
        LOR_RETURN_IF_ERROR(repo->Delete(op.key));
        break;
    }
  }
  return Status::OK();
}

uint64_t Trace::BytesWritten() const {
  uint64_t total = 0;
  for (const TraceOp& op : ops_) {
    if (op.kind == TraceOp::Kind::kPut ||
        op.kind == TraceOp::Kind::kSafeWrite) {
      total += op.size;
    }
  }
  return total;
}

Status RecordingRepository::Put(const std::string& key, uint64_t size,
                                std::span<const uint8_t> data) {
  Status s = inner_->Put(key, size, data);
  if (s.ok()) trace_->Add({TraceOp::Kind::kPut, key, size});
  return s;
}

Status RecordingRepository::SafeWrite(const std::string& key, uint64_t size,
                                      std::span<const uint8_t> data) {
  Status s = inner_->SafeWrite(key, size, data);
  if (s.ok()) trace_->Add({TraceOp::Kind::kSafeWrite, key, size});
  return s;
}

Status RecordingRepository::Get(const std::string& key,
                                std::vector<uint8_t>* out) {
  Status s = inner_->Get(key, out);
  if (s.ok()) trace_->Add({TraceOp::Kind::kGet, key, 0});
  return s;
}

Status RecordingRepository::Delete(const std::string& key) {
  Status s = inner_->Delete(key);
  if (s.ok()) trace_->Add({TraceOp::Kind::kDelete, key, 0});
  return s;
}

Status RecordingRepository::Get(const core::ObjectHandle& handle,
                                std::vector<uint8_t>* out) {
  Status s = inner_->Get(handle, out);
  if (s.ok()) trace_->Add({TraceOp::Kind::kGet, handle.key(), 0});
  return s;
}

Status RecordingRepository::SafeWrite(const core::ObjectHandle& handle,
                                      uint64_t size,
                                      std::span<const uint8_t> data) {
  Status s = inner_->SafeWrite(handle, size, data);
  if (s.ok()) trace_->Add({TraceOp::Kind::kSafeWrite, handle.key(), size});
  return s;
}

Status RecordingRepository::Delete(core::ObjectHandle* handle) {
  // Delete consumes the handle: read its key first.
  std::string key = handle != nullptr ? handle->key() : std::string();
  Status s = inner_->Delete(handle);
  if (s.ok()) trace_->Add({TraceOp::Kind::kDelete, std::move(key), 0});
  return s;
}

}  // namespace workload
}  // namespace lor
