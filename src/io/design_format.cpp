#include "src/io/design_format.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "src/core/fault_injection.hpp"
#include "src/io/atomic_writer.hpp"

namespace emi::io {

namespace {

// Thrown by the line parsers below and turned into a kParseError Status at
// the try_* boundary; never escapes this file.
struct ParseError : std::runtime_error {
  ParseError(std::size_t line, const std::string& msg)
      : std::runtime_error("line " + std::to_string(line) + ": " + msg) {}
};

// Guardrails against absurd counts: a parse diagnostic beats an allocation
// of a billion placement slots.
constexpr int kMaxBoards = 1024;
constexpr int kMaxBoardIndex = 4095;

// Stable io fault key: token text and line number, independent of threads.
std::uint64_t io_fault_key(const std::string& s, std::size_t line) {
  std::uint64_t h = core::fault::mix(0, static_cast<std::uint64_t>(line));
  for (const char c : s) h = core::fault::mix(h, static_cast<std::uint64_t>(c));
  return h;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;
    out.push_back(tok);
  }
  return out;
}

double to_double(const std::string& s, std::size_t line) {
  if (core::fault::armed() &&
      core::fault::should_fire(core::FaultSite::kIo, io_fault_key(s, line))) {
    throw ParseError(line, "injected parse fault (EMI_FAULT_INJECT site io)");
  }
  double v = 0.0;
  try {
    std::size_t pos = 0;
    v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("");
  } catch (...) {
    throw ParseError(line, "expected a number, got '" + s + "'");
  }
  // NaN/Inf fields would silently poison downstream geometry and MNA.
  if (!std::isfinite(v)) throw ParseError(line, "non-finite number '" + s + "'");
  return v;
}

int to_int(const std::string& s, std::size_t line) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("");
    return v;
  } catch (...) {
    throw ParseError(line, "expected an integer, got '" + s + "'");
  }
}

int to_board(const std::string& s, std::size_t line, int lo = 0) {
  const int v = to_int(s, line);
  if (v < lo || v > kMaxBoardIndex) {
    throw ParseError(line, "board index out of range [" + std::to_string(lo) + "," +
                               std::to_string(kMaxBoardIndex) + "]: " + s);
  }
  return v;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// key=value option parser for component lines.
bool split_kv(const std::string& tok, std::string& key, std::string& value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return false;
  key = tok.substr(0, eq);
  value = tok.substr(eq + 1);
  return true;
}

LoadedDesign parse_design(std::istream& in) {
  LoadedDesign out;
  place::Design& d = out.design;
  struct PendingPlace {
    std::string comp;
    place::Placement p;
    std::size_t line;
  };
  std::vector<PendingPlace> places;
  struct PendingPin {
    std::string comp, pin;
    geom::Vec2 off;
    std::size_t line;
  };
  std::vector<PendingPin> pins;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    try {
      if (kw == "boards") {
        if (toks.size() != 2) throw ParseError(line_no, "boards N");
        const int n = to_int(toks[1], line_no);
        if (n < 1 || n > kMaxBoards) {
          throw ParseError(line_no, "board count out of range [1," +
                                        std::to_string(kMaxBoards) + "]: " + toks[1]);
        }
        d.set_board_count(n);
      } else if (kw == "clearance") {
        if (toks.size() != 2) throw ParseError(line_no, "clearance MM");
        const double mm = to_double(toks[1], line_no);
        if (mm < 0.0) throw ParseError(line_no, "negative clearance: " + toks[1]);
        d.set_clearance(place::Millimeters{mm});
      } else if (kw == "component") {
        if (toks.size() < 5) throw ParseError(line_no, "component NAME W D H [opts]");
        place::Component c;
        c.name = toks[1];
        c.width_mm = to_double(toks[2], line_no);
        c.depth_mm = to_double(toks[3], line_no);
        c.height_mm = to_double(toks[4], line_no);
        for (std::size_t i = 5; i < toks.size(); ++i) {
          std::string key, value;
          if (!split_kv(toks[i], key, value)) {
            throw ParseError(line_no, "expected key=value, got '" + toks[i] + "'");
          }
          if (key == "axis") {
            c.axis_deg = to_double(value, line_no);
          } else if (key == "group") {
            c.group = value;
          } else if (key == "board") {
            c.board = to_board(value, line_no, /*lo=*/-1);
          } else if (key == "rot") {
            c.allowed_rotations.clear();
            for (const auto& r : split_csv(value)) {
              c.allowed_rotations.push_back(to_double(r, line_no));
            }
          } else if (key == "prefrot") {
            for (const auto& r : split_csv(value)) {
              c.preferred_rotations.push_back(to_double(r, line_no));
            }
          } else if (key == "areas") {
            c.allowed_areas = split_csv(value);
          } else if (key == "prefareas") {
            c.preferred_areas = split_csv(value);
          } else {
            throw ParseError(line_no, "unknown component option '" + key + "'");
          }
        }
        d.add_component(std::move(c));
      } else if (kw == "pin") {
        if (toks.size() != 5) throw ParseError(line_no, "pin COMP PIN DX DY");
        pins.push_back({toks[1], toks[2],
                        {to_double(toks[3], line_no), to_double(toks[4], line_no)},
                        line_no});
      } else if (kw == "net") {
        if (toks.size() < 3) throw ParseError(line_no, "net NAME [maxlen=MM] PINS...");
        place::Net n;
        n.name = toks[1];
        std::size_t start = 2;
        std::string key, value;
        if (split_kv(toks[2], key, value) && key == "maxlen") {
          n.max_length_mm = to_double(value, line_no);
          start = 3;
        }
        for (std::size_t i = start; i < toks.size(); ++i) {
          const auto dot = toks[i].find('.');
          if (dot == std::string::npos) {
            n.pins.push_back({toks[i], ""});
          } else {
            n.pins.push_back({toks[i].substr(0, dot), toks[i].substr(dot + 1)});
          }
        }
        d.add_net(std::move(n));
      } else if (kw == "area") {
        if (toks.size() < 9 || (toks.size() - 3) % 2 != 0) {
          throw ParseError(line_no, "area NAME BOARD X1 Y1 X2 Y2 X3 Y3 [...]");
        }
        place::Area a;
        a.name = toks[1];
        a.board = to_board(toks[2], line_no);
        std::vector<geom::Vec2> pts;
        for (std::size_t i = 3; i + 1 < toks.size(); i += 2) {
          pts.push_back({to_double(toks[i], line_no), to_double(toks[i + 1], line_no)});
        }
        a.shape = geom::Polygon(std::move(pts));
        d.add_area(std::move(a));
      } else if (kw == "keepout") {
        if (toks.size() != 7 && toks.size() != 9) {
          throw ParseError(line_no, "keepout NAME BOARD XLO YLO XHI YHI [ZLO ZHI]");
        }
        place::Keepout k;
        k.name = toks[1];
        k.board = to_board(toks[2], line_no);
        k.volume.base = geom::Rect::from_corners(
            {to_double(toks[3], line_no), to_double(toks[4], line_no)},
            {to_double(toks[5], line_no), to_double(toks[6], line_no)});
        if (toks.size() == 9) {
          k.volume.z_lo = to_double(toks[7], line_no);
          k.volume.z_hi = to_double(toks[8], line_no);
        }
        d.add_keepout(std::move(k));
      } else if (kw == "pemd") {
        if (toks.size() != 4) throw ParseError(line_no, "pemd A B MM");
        d.add_emd_rule(toks[1], toks[2], place::Millimeters{to_double(toks[3], line_no)});
      } else if (kw == "place") {
        if (toks.size() != 6) throw ParseError(line_no, "place COMP X Y ROT BOARD");
        PendingPlace pp;
        pp.comp = toks[1];
        pp.p.position = {to_double(toks[2], line_no), to_double(toks[3], line_no)};
        pp.p.rot_deg = to_double(toks[4], line_no);
        pp.p.board = to_board(toks[5], line_no);
        pp.p.placed = true;
        pp.line = line_no;
        places.push_back(std::move(pp));
      } else {
        throw ParseError(line_no, "unknown keyword '" + kw + "'");
      }
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      throw ParseError(line_no, e.what());
    }
  }

  for (const auto& pp : pins) {
    const auto idx = d.find_component(pp.comp);
    if (!idx) throw ParseError(pp.line, "pin references unknown component " + pp.comp);
    d.components()[*idx].pins.push_back({pp.pin, pp.off});
  }

  out.layout = place::Layout::unplaced(d);
  for (const auto& pp : places) {
    const auto idx = d.find_component(pp.comp);
    if (!idx) throw ParseError(pp.line, "place references unknown component " + pp.comp);
    out.layout.placements[*idx] = pp.p;
    d.components()[*idx].preplaced = true;
  }
  return out;
}

place::Layout parse_layout(std::istream& in, const place::Design& d) {
  place::Layout layout = place::Layout::unplaced(d);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    if (toks[0] != "place") throw ParseError(line_no, "expected 'place' lines only");
    if (toks.size() != 6) throw ParseError(line_no, "place COMP X Y ROT BOARD");
    const auto idx = d.find_component(toks[1]);
    if (!idx) throw ParseError(line_no, "unknown component " + toks[1]);
    place::Placement p;
    p.position = {to_double(toks[2], line_no), to_double(toks[3], line_no)};
    p.rot_deg = to_double(toks[4], line_no);
    p.board = to_board(toks[5], line_no);
    p.placed = true;
    layout.placements[*idx] = p;
  }
  return layout;
}

}  // namespace

void save_design(std::ostream& out, const place::Design& d,
                 const place::Layout* layout) {
  out << "# emiplace design file\n";
  out << "boards " << d.board_count() << "\n";
  out << "clearance " << d.clearance().raw() << "\n";
  for (const place::Component& c : d.components()) {
    out << "component " << c.name << ' ' << c.width_mm << ' ' << c.depth_mm << ' '
        << c.height_mm << " axis=" << c.axis_deg;
    if (!c.group.empty()) out << " group=" << c.group;
    if (c.board >= 0) out << " board=" << c.board;
    out << " rot=";
    for (std::size_t i = 0; i < c.allowed_rotations.size(); ++i) {
      out << (i ? "," : "") << c.allowed_rotations[i];
    }
    if (!c.preferred_rotations.empty()) {
      out << " prefrot=";
      for (std::size_t i = 0; i < c.preferred_rotations.size(); ++i) {
        out << (i ? "," : "") << c.preferred_rotations[i];
      }
    }
    if (!c.allowed_areas.empty()) {
      out << " areas=";
      for (std::size_t i = 0; i < c.allowed_areas.size(); ++i) {
        out << (i ? "," : "") << c.allowed_areas[i];
      }
    }
    if (!c.preferred_areas.empty()) {
      out << " prefareas=";
      for (std::size_t i = 0; i < c.preferred_areas.size(); ++i) {
        out << (i ? "," : "") << c.preferred_areas[i];
      }
    }
    out << "\n";
    for (const place::Pin& p : c.pins) {
      out << "pin " << c.name << ' ' << p.name << ' ' << p.offset.x << ' '
          << p.offset.y << "\n";
    }
  }
  for (const place::Net& n : d.nets()) {
    out << "net " << n.name;
    if (std::isfinite(n.max_length_mm)) out << " maxlen=" << n.max_length_mm;
    for (const place::NetPin& p : n.pins) {
      out << ' ' << p.component;
      if (!p.pin.empty()) out << '.' << p.pin;
    }
    out << "\n";
  }
  for (const place::Area& a : d.areas()) {
    out << "area " << a.name << ' ' << a.board;
    for (const geom::Vec2& v : a.shape.points()) out << ' ' << v.x << ' ' << v.y;
    out << "\n";
  }
  for (const place::Keepout& k : d.keepouts()) {
    out << "keepout " << k.name << ' ' << k.board << ' ' << k.volume.base.lo.x << ' '
        << k.volume.base.lo.y << ' ' << k.volume.base.hi.x << ' ' << k.volume.base.hi.y
        << ' ' << k.volume.z_lo << ' ' << k.volume.z_hi << "\n";
  }
  for (const place::EmdRule& r : d.emd_rules()) {
    out << "pemd " << r.comp_a << ' ' << r.comp_b << ' ' << r.pemd.raw() << "\n";
  }
  if (layout != nullptr) save_layout(out, d, *layout);
}

core::Status try_save_design_file(const std::string& path, const place::Design& d,
                                  const place::Layout* layout) {
  return write_file_atomic(path,
                           [&](std::ostream& o) { save_design(o, d, layout); });
}

void save_layout(std::ostream& out, const place::Design& d, const place::Layout& l) {
  for (std::size_t i = 0; i < d.components().size(); ++i) {
    const place::Placement& p = l.placements[i];
    if (!p.placed) continue;
    out << "place " << d.components()[i].name << ' ' << p.position.x << ' '
        << p.position.y << ' ' << p.rot_deg << ' ' << p.board << "\n";
  }
}

core::Result<LoadedDesign> try_load_design(std::istream& in) {
  try {
    return parse_design(in);
  } catch (const ParseError& e) {
    return core::Status(core::ErrorCode::kParseError, "io.design_format", e.what());
  } catch (const std::exception& e) {
    return core::Status(core::ErrorCode::kIoError, "io.design_format", e.what());
  }
}

core::Result<LoadedDesign> try_load_design_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return core::Status(core::ErrorCode::kIoError, "io.design_format",
                        "cannot open design file: " + path);
  }
  return try_load_design(in);
}

core::Result<place::Layout> try_load_layout(std::istream& in, const place::Design& d) {
  try {
    return parse_layout(in, d);
  } catch (const ParseError& e) {
    return core::Status(core::ErrorCode::kParseError, "io.design_format", e.what());
  } catch (const std::exception& e) {
    return core::Status(core::ErrorCode::kIoError, "io.design_format", e.what());
  }
}

}  // namespace emi::io
