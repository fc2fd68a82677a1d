// ASCII design interchange format - the library equivalent of the paper's
// "ASCII-file interface" through which "all placement relevant circuit data
// (e.g. 3D description of the components, net list) and given design rules
// are read in".
//
// Line-oriented, '#' starts a comment. Keywords:
//
//   boards N
//   clearance MM
//   component NAME W D H [key=value ...]
//       keys: axis=DEG group=NAME board=N rot=0,90,180,270 prefrot=0,90
//             areas=A1,A2 prefareas=A1
//   pin COMPONENT PIN DX DY
//   net NAME [maxlen=MM] COMP[.PIN] COMP[.PIN] ...
//   area NAME BOARD X1 Y1 X2 Y2 X3 Y3 [...]
//   keepout NAME BOARD XLO YLO XHI YHI [ZLO ZHI]
//   pemd COMP_A COMP_B MM
//   place COMP X Y ROT BOARD          (optional preplacement / saved layout)
//
// `place` lines inside a design file mark the component preplaced; the same
// syntax is used by save_layout()/try_load_layout() for placement results.
#pragma once

#include <iosfwd>
#include <string>

#include "src/core/status.hpp"
#include "src/place/design.hpp"

namespace emi::io {

struct LoadedDesign {
  place::Design design;
  place::Layout layout;  // preplacements applied; others unplaced
};

// Every malformed input - truncated lines, non-numeric or non-finite
// fields, duplicate names, out-of-range counts - comes back as a kParseError
// Status whose message carries the line number (kIoError for unreadable
// files). Nothing escapes as an exception.
[[nodiscard]] core::Result<LoadedDesign> try_load_design(std::istream& in);
[[nodiscard]] core::Result<LoadedDesign> try_load_design_file(const std::string& path);
[[nodiscard]] core::Result<place::Layout> try_load_layout(std::istream& in, const place::Design& d);

void save_design(std::ostream& out, const place::Design& d,
                 const place::Layout* layout = nullptr);
// Crash-safe: commits through io::AtomicFileWriter (tmp + fsync + rename),
// so an interrupted save leaves the previous file intact.
[[nodiscard]] core::Status try_save_design_file(const std::string& path, const place::Design& d,
                                  const place::Layout* layout = nullptr);

// Layout-only writer (place lines); try_load_layout reads them back.
void save_layout(std::ostream& out, const place::Design& d, const place::Layout& l);

}  // namespace emi::io
