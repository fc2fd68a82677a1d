#include "src/io/wire.hpp"

namespace emi::io {

core::Status LineFramer::feed(std::string_view bytes) {
  if (poisoned_) {
    return core::Status(core::ErrorCode::kFailedPrecondition, "io.wire",
                        "framer poisoned by an oversized line");
  }
  buf_.append(bytes);
  // Compact once consumed lines dominate the buffer, so a long-lived
  // connection does not grow it monotonically.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  if (buf_.size() - pos_ > max_line_ &&
      buf_.find('\n', pos_) == std::string::npos) {
    poisoned_ = true;
    return core::Status(core::ErrorCode::kInvalidArgument, "io.wire",
                        "line exceeds " + std::to_string(max_line_) + " bytes");
  }
  return core::Status();
}

std::optional<std::string> LineFramer::next_line() {
  if (poisoned_) return std::nullopt;
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) return std::nullopt;
  std::size_t end = nl;
  if (end > pos_ && buf_[end - 1] == '\r') --end;
  std::string line = buf_.substr(pos_, end - pos_);
  pos_ = nl + 1;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return line;
}

}  // namespace emi::io
