#include "src/io/kvfile.hpp"

#include <sstream>

#include "src/io/atomic_writer.hpp"
#include "src/io/line_record.hpp"

namespace emi::io {

namespace {

constexpr std::string_view kStage = "io.kvfile";

}  // namespace

std::string serialize_kv(std::string_view magic, std::span<const KvRecord> records) {
  std::ostringstream out;
  out << magic << '\n';
  for (const auto& [key, value] : records) {
    out << "kv " << one_line(key) << ' ' << one_line(value) << '\n';
  }
  return seal(std::move(out).str());
}

core::Result<std::vector<KvRecord>> parse_kv(std::string_view magic,
                                             const std::string& text) {
  const core::Result<std::string_view> payload = open_sealed(text, kStage);
  if (!payload.ok()) return payload.status();

  LineCursor r(payload.value(), kStage);
  const std::optional<std::string_view> first = r.next_line();
  if (first != magic) {
    return r.error("expected magic '" + std::string(magic) + "', got '" +
                   std::string(first.value_or("")) + "'");
  }
  std::vector<KvRecord> records;
  std::vector<std::string> t;
  while (!r.at_end()) {
    if (core::Status st = r.next("kv", 2, t); !st.ok()) return st;
    const std::optional<std::string_view> value = r.rest(2);
    if (!value) return r.error("kv record missing value");
    records.emplace_back(t[1], *value);
  }
  return records;
}

core::Status save_kv_file(const std::string& path, std::string_view magic,
                          std::span<const KvRecord> records) {
  AtomicFileWriter w(path);
  return w.commit_content(serialize_kv(magic, records));
}

core::Result<std::vector<KvRecord>> load_kv_file(const std::string& path,
                                                 std::string_view magic) {
  const core::Result<std::string> text = read_file(path, kStage);
  if (!text.ok()) return text.status();
  return parse_kv(magic, text.value());
}

}  // namespace emi::io
