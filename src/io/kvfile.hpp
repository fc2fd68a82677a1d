// Checksummed key/value state files: the persistence primitive behind the
// service's per-job `job.state` records. Same durability recipe as the flow
// checkpoint - the io::line_record checksum envelope and atomic publication
// through io::AtomicFileWriter - so a record on disk is either a complete,
// validated snapshot or rejected with a line-numbered kParseError. Never
// half-loaded.
//
// Format:
//
//   <magic>                       e.g. "EMIJOB 1"
//   kv <key> <value...>           value = rest of line, may contain spaces
//   ...
//   checksum <fnv64-hex16>
//
// Records preserve order and allow duplicate keys; interpretation is the
// caller's. Keys and values are flattened to one line on write
// (io::one_line).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/status.hpp"

namespace emi::io {

using KvRecord = std::pair<std::string, std::string>;

std::string serialize_kv(std::string_view magic, std::span<const KvRecord> records);

// Validate checksum + magic, then parse. kParseError ("line N: ...") on any
// corruption or a magic mismatch (wrong file kind / format version).
[[nodiscard]] core::Result<std::vector<KvRecord>> parse_kv(std::string_view magic,
                                             const std::string& text);

// Atomic write; kIoError on filesystem failure. Deliberately *not* wired to
// a fault-injection tear site: the atomic protocol makes torn job state
// impossible by construction, and the service's no-lost-jobs invariant
// depends on that (the per-job flow checkpoint keeps its own tear site).
[[nodiscard]] core::Status save_kv_file(const std::string& path, std::string_view magic,
                          std::span<const KvRecord> records);
[[nodiscard]] core::Result<std::vector<KvRecord>> load_kv_file(const std::string& path,
                                                 std::string_view magic);

}  // namespace emi::io
