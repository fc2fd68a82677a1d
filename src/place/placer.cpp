#include "src/place/placer.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "src/core/deadline.hpp"
#include "src/core/parallel.hpp"

namespace emi::place {

namespace {

// Nets touching each component, precomputed once per run.
std::vector<std::vector<std::size_t>> nets_by_component(const Design& d) {
  std::vector<std::vector<std::size_t>> out(d.components().size());
  for (std::size_t ni = 0; ni < d.nets().size(); ++ni) {
    for (const NetPin& p : d.nets()[ni].pins) {
      out[d.component_index(p.component)].push_back(ni);
    }
  }
  return out;
}

}  // namespace

std::vector<std::size_t> SequentialPlacer::priority_order() const {
  const Design& d = *design_;
  const std::size_t n = d.components().size();

  std::vector<double> emd_budget(n, 0.0);
  for (const EmdRule& r : d.emd_rules()) {
    const std::size_t i = d.component_index(r.comp_a);
    const std::size_t j = d.component_index(r.comp_b);
    emd_budget[i] += r.pemd.raw();
    emd_budget[j] += r.pemd.raw();
  }
  std::vector<std::size_t> degree(n, 0);
  for (const Net& net : d.nets()) {
    for (const NetPin& p : net.pins) ++degree[d.component_index(p.component)];
  }

  // Components of one functional group are placed consecutively so the
  // group packs a coherent region before the next group starts - placing
  // groups interleaved lets their bounding boxes wall each other in.
  // Ungrouped components behave as singleton groups. Groups are ordered by
  // their most constrained member (largest EMD budget first).
  std::map<std::string, double> group_rank;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& g = d.components()[i].group;
    if (g.empty()) continue;
    auto it = group_rank.try_emplace(g, 0.0).first;
    it->second = std::max(it->second, emd_budget[i]);
  }
  const auto rank_of = [&](std::size_t i) {
    const std::string& g = d.components()[i].group;
    return g.empty() ? emd_budget[i] : group_rank.at(g);
  };

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double ra = rank_of(a);
    const double rb = rank_of(b);
    if (ra != rb) return ra > rb;
    const std::string& ga = d.components()[a].group;
    const std::string& gb = d.components()[b].group;
    if (ga != gb) return ga < gb;  // keep equal-rank groups contiguous
    if (emd_budget[a] != emd_budget[b]) return emd_budget[a] > emd_budget[b];
    const double area_a = d.components()[a].width_mm * d.components()[a].depth_mm;
    const double area_b = d.components()[b].width_mm * d.components()[b].depth_mm;
    if (area_a != area_b) return area_a > area_b;
    return degree[a] > degree[b];
  });
  return order;
}

bool SequentialPlacer::is_legal(const Layout& layout, std::size_t comp,
                                const Placement& cand) const {
  const Design& d = *design_;
  const Component& c = d.components()[comp];
  const geom::Rect fp = d.footprint(comp, cand);

  // Inside an allowed area.
  bool inside = false;
  for (const Area* a : d.areas_for(comp, cand.board)) {
    if (geom::inside_area(fp, a->shape, 0.0)) {
      inside = true;
      break;
    }
  }
  if (!inside) return false;

  // Keepouts on this board.
  for (const Keepout& k : d.keepouts()) {
    if (k.board == cand.board && k.volume.blocks(fp, c.height_mm)) return false;
  }

  // Clearance + EMD against all placed components.
  for (std::size_t j = 0; j < d.components().size(); ++j) {
    if (j == comp) continue;
    const Placement& pj = layout.placements[j];
    if (!pj.placed || pj.board != cand.board) continue;
    const geom::Rect fj = d.footprint(j, pj);
    if (!geom::clearance_ok(fp, fj, d.clearance().raw())) return false;
    const double emd = d.effective_emd(comp, cand, j, pj).raw();
    if (emd > 0.0 && geom::distance(cand.position, pj.position) < emd) return false;
  }

  // Maximum net length: the candidate must not push any of its nets over
  // the cap, counting the pins already placed. Since every insertion
  // re-checks the nets it touches, a fully placed layout satisfies all caps.
  for (const Net& net : d.nets()) {
    if (!std::isfinite(net.max_length_mm)) continue;
    bool mine = false;
    for (const NetPin& np : net.pins) {
      if (d.component_index(np.component) == comp) {
        mine = true;
        break;
      }
    }
    if (!mine) continue;
    std::vector<geom::Vec2> pts;
    bool spans_boards = false;
    for (const NetPin& np : net.pins) {
      const std::size_t ci = d.component_index(np.component);
      if (ci == comp) {
        pts.push_back(d.pin_position(ci, np.pin, cand));
      } else if (layout.placements[ci].placed) {
        spans_boards |= layout.placements[ci].board != cand.board;
        pts.push_back(d.pin_position(ci, np.pin, layout.placements[ci]));
      }
    }
    // Nets crossing boards go through the connector; skip their cap here.
    if (spans_boards) continue;
    if (geom::hpwl(pts) > net.max_length_mm) return false;
  }

  // Functional groups must end up in separate coherent areas: reject a
  // candidate whose group bounding box, grown by this footprint, would
  // overlap another group's current box. Maintaining the invariant at every
  // insertion keeps the final layout free of GROUP_SPLIT violations.
  if (!c.group.empty()) {
    geom::Rect own = fp;
    std::vector<std::pair<const std::string*, geom::Rect>> others;
    for (std::size_t j = 0; j < d.components().size(); ++j) {
      if (j == comp) continue;
      const Component& cj = d.components()[j];
      const Placement& pj = layout.placements[j];
      if (cj.group.empty() || !pj.placed || pj.board != cand.board) continue;
      if (cj.group == c.group) {
        own.expand(d.footprint(j, pj));
        continue;
      }
      bool found = false;
      for (auto& [gname, box] : others) {
        if (*gname == cj.group) {
          box.expand(d.footprint(j, pj));
          found = true;
          break;
        }
      }
      if (!found) others.emplace_back(&cj.group, d.footprint(j, pj));
    }
    for (const auto& [gname, box] : others) {
      if (own.overlaps(box)) return false;
    }
  }
  return true;
}

PlaceStats SequentialPlacer::place(Layout& layout, const std::vector<double>& rotations,
                                   const std::vector<int>& boards,
                                   const PlacerOptions& opt) const {
  const Design& d = *design_;
  const std::size_t n = d.components().size();
  if (layout.placements.size() != n || rotations.size() != n || boards.size() != n) {
    throw std::invalid_argument("SequentialPlacer::place: size mismatch");
  }
  const auto t0 = std::chrono::steady_clock::now();
  PlaceStats stats;

  const auto comp_nets = nets_by_component(d);

  // Pack anchor per functional group: groups are steered towards distinct
  // corners of their board's placement region, in priority order, so each
  // group claims a coherent region instead of competing for the same
  // bottom-left corner. Ungrouped components pack bottom-left.
  std::map<std::pair<int, std::string>, geom::Vec2> group_anchor;
  {
    std::map<int, geom::Rect> board_bbox;
    for (const Area& a : d.areas()) {
      auto it = board_bbox.try_emplace(a.board, geom::Rect::empty()).first;
      it->second.expand(a.shape.bbox());
    }
    // Capacity of each corner quadrant: sampled free area (inside some
    // placement area, outside low keepouts). Groups claim corners in
    // priority order, highest-capacity corner first, so a space-hungry
    // group is not steered into a keepout-dominated quadrant.
    std::map<int, std::array<double, 4>> corner_capacity;
    for (const auto& [board, bb] : board_bbox) {
      std::array<double, 4>& cap = corner_capacity[board];
      cap.fill(0.0);
      const double step = std::max(4.0, std::max(bb.width(), bb.height()) / 24.0);
      for (double y = bb.lo.y + step / 2; y < bb.hi.y; y += step) {
        for (double x = bb.lo.x + step / 2; x < bb.hi.x; x += step) {
          const geom::Vec2 p{x, y};
          bool free = false;
          for (const Area& a : d.areas()) {
            if (a.board == board && a.shape.contains(p)) {
              free = true;
              break;
            }
          }
          if (!free) continue;
          for (const Keepout& k : d.keepouts()) {
            // Count a point as blocked if a component of modest height
            // could not sit there.
            if (k.board == board && k.volume.blocks(
                    geom::Rect::from_center(p, step, step), 10.0)) {
              free = false;
              break;
            }
          }
          if (!free) continue;
          const int cx = (x - bb.lo.x) * 2.0 < bb.width() ? 0 : 1;
          const int cy = (y - bb.lo.y) * 2.0 < bb.height() ? 0 : 1;
          cap[static_cast<std::size_t>(cy * 2 + cx)] += step * step;
        }
      }
    }
    std::map<int, std::array<bool, 4>> corner_used;
    for (std::size_t comp : priority_order()) {
      const std::string& g = d.components()[comp].group;
      if (g.empty()) continue;
      const int board = boards[comp];
      const auto key = std::make_pair(board, g);
      if (group_anchor.count(key)) continue;
      const geom::Rect bb = board_bbox.count(board) ? board_bbox[board]
                                                    : geom::Rect{{0, 0}, {0, 0}};
      const geom::Vec2 corners[4] = {
          bb.lo, {bb.hi.x, bb.lo.y}, {bb.lo.x, bb.hi.y}, bb.hi};
      const auto& cap = corner_capacity[board];
      auto& used = corner_used[board];
      std::size_t best = 0;
      double best_cap = -1.0;
      for (std::size_t ci = 0; ci < 4; ++ci) {
        if (used[ci]) continue;
        if (cap[ci] > best_cap) {
          best_cap = cap[ci];
          best = ci;
        }
      }
      if (best_cap < 0.0) best = 0;  // more than 4 groups: reuse corner 0
      used[best] = true;
      group_anchor[key] = corners[best];
    }
  }

  // Running group bounding boxes (seeded by preplaced members). The group
  // cost below charges a candidate for how much it grows its group's box,
  // which keeps each functional group a compact blob instead of a sprawl
  // that walls the later groups in.
  std::map<std::string, geom::Rect> group_bbox;
  const auto note_group = [&](std::size_t i) {
    const std::string& g = d.components()[i].group;
    if (g.empty()) return;
    auto it = group_bbox.try_emplace(g, geom::Rect::empty()).first;
    it->second.expand(d.footprint(i, layout.placements[i]));
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (layout.placements[i].placed) note_group(i);
  }

  // Cost of a legal candidate.
  const auto cost_of = [&](std::size_t comp, const Placement& cand,
                           const Area& area) {
    double cost = 0.0;
    // Net length: HPWL over placed pins of each net touching the component,
    // with the candidate position substituted in.
    for (std::size_t ni : comp_nets[comp]) {
      std::vector<geom::Vec2> pts;
      for (const NetPin& p : d.nets()[ni].pins) {
        const std::size_t ci = d.component_index(p.component);
        if (ci == comp) {
          pts.push_back(d.pin_position(ci, p.pin, cand));
        } else if (layout.placements[ci].placed) {
          pts.push_back(d.pin_position(ci, p.pin, layout.placements[ci]));
        }
      }
      cost += opt.w_netlength * geom::hpwl(pts);
    }
    // Group cohesion: cost of growing the group's bounding box.
    const std::string& g = d.components()[comp].group;
    if (!g.empty()) {
      const auto it = group_bbox.find(g);
      if (it != group_bbox.end() && !it->second.is_empty()) {
        geom::Rect grown = it->second;
        grown.expand(d.footprint(comp, cand));
        const double growth = (grown.width() + grown.height()) -
                              (it->second.width() + it->second.height());
        cost += opt.w_group * growth;
      }
    }
    // Compactness: pack towards the group's anchor corner (or bottom-left
    // for ungrouped parts). Pulling towards the area centroid instead would
    // plant the first component in the middle of the board and strangle the
    // remaining free space.
    geom::Vec2 anchor = area.shape.bbox().lo;
    if (!g.empty()) {
      const auto it = group_anchor.find({cand.board, g});
      if (it != group_anchor.end()) anchor = it->second;
    }
    cost += opt.w_pack * geom::distance(cand.position, anchor);
    return cost;
  };

  // Candidate positions for a component within one area: contact positions
  // around every placed footprint plus a bbox grid sample.
  const auto candidates_in_area = [&](std::size_t comp, const Placement& proto,
                                      const Area& area, double step) {
    std::vector<geom::Vec2> cands;
    const geom::Rect fp0 = d.footprint(comp, proto);
    const double hw = fp0.width() / 2.0;
    const double hh = fp0.height() / 2.0;
    const double cl = d.clearance().raw() + 1e-6;

    // Contact candidates: slide against each placed component's footprint.
    for (std::size_t j = 0; j < n; ++j) {
      if (j == comp || !layout.placements[j].placed) continue;
      if (layout.placements[j].board != proto.board) continue;
      const geom::Rect fj = d.footprint(j, layout.placements[j]);
      const geom::Rect blocked = fj.inflated(cl);
      const double xs[] = {blocked.lo.x - hw, blocked.hi.x + hw};
      const double ys[] = {blocked.lo.y - hh, blocked.hi.y + hh};
      const geom::Vec2 cj = fj.center();
      for (double x : xs) {
        cands.push_back({x, cj.y});
        for (double y : ys) cands.push_back({x, y});
      }
      for (double y : ys) cands.push_back({cj.x, y});
    }
    // Area corner candidates: footprint tucked into each polygon vertex,
    // offset per axis towards the interior.
    for (const geom::Vec2& v : area.shape.points()) {
      const geom::Vec2 c = area.shape.centroid();
      const double sx = c.x >= v.x ? 1.0 : -1.0;
      const double sy = c.y >= v.y ? 1.0 : -1.0;
      cands.push_back({v.x + sx * hw, v.y + sy * hh});
    }
    // Grid fallback over the area bbox.
    const geom::Rect bb = area.shape.bbox();
    for (double y = bb.lo.y + hh; y <= bb.hi.y - hh + 1e-9; y += step) {
      for (double x = bb.lo.x + hw; x <= bb.hi.x - hw + 1e-9; x += step) {
        cands.push_back({x, y});
      }
    }
    return cands;
  };

  // Candidate evaluation below polls the scope per candidate; the
  // per-component check here raises on the submitting thread, so a stopped
  // placement run exits before committing a component placed with a
  // partially evaluated candidate set.
  const core::CancelScope* cscope = core::CancelScope::current();
  for (std::size_t comp : priority_order()) {
    core::CancelScope::check("place.sequential");
    if (layout.placements[comp].placed) continue;  // preplaced = obstacle
    const Component& c = d.components()[comp];

    Placement proto;
    proto.rot_deg = rotations[comp];
    proto.board = boards[comp];
    proto.placed = true;

    std::vector<double> rots{proto.rot_deg};
    if (opt.try_all_rotations) rots = c.allowed_rotations;

    bool placed = false;
    double best_cost = std::numeric_limits<double>::infinity();
    Placement best;

    double step = opt.grid_step_mm;
    // One extra pass beyond the grid refinements re-opens the rotation
    // choice: the globally optimal rotations can be locally unplaceable on a
    // tight board, and a different angle (different EMD reductions) often
    // is. This keeps step 1's optimum where it fits and degrades gracefully
    // where it does not.
    for (std::size_t attempt = 0; attempt <= opt.max_refines + 1 && !placed; ++attempt) {
      if (attempt == opt.max_refines + 1) {
        if (rots.size() == c.allowed_rotations.size()) break;
        rots = c.allowed_rotations;
        step = opt.grid_step_mm * opt.refine_factor;
      }
      // Gather the attempt's full candidate list, evaluate legality + cost
      // in parallel batches (both are read-only against the layout), then
      // scan serially in generation order. The scan keeps the serial
      // tie-break (first candidate wins at equal cost), so results are
      // identical for any thread count.
      struct Candidate {
        Placement placement;
        const Area* area;
      };
      std::vector<Candidate> cands;
      for (const Area* area : d.areas_for(comp, proto.board)) {
        for (double rot : rots) {
          Placement cand = proto;
          cand.rot_deg = rot;
          for (const geom::Vec2& pos : candidates_in_area(comp, cand, *area, step)) {
            cand.position = pos;
            cands.push_back({cand, area});
          }
        }
      }
      stats.candidates_evaluated += cands.size();
      std::vector<double> cand_cost(cands.size(),
                                    std::numeric_limits<double>::infinity());
      core::parallel_for(
          0, cands.size(),
          [&](std::size_t ci) {
            // Per-candidate poll: a stopped scope leaves the cost at
            // infinity; the check at the top of the component loop then
            // raises before the half-evaluated attempt can be committed.
            if (cscope != nullptr && cscope->should_stop()) return;
            if (!is_legal(layout, comp, cands[ci].placement)) return;
            cand_cost[ci] = cost_of(comp, cands[ci].placement, *cands[ci].area);
          },
          /*grain=*/16);
      for (std::size_t ci = 0; ci < cands.size(); ++ci) {
        if (cand_cost[ci] < best_cost) {
          best_cost = cand_cost[ci];
          best = cands[ci].placement;
          placed = true;
        }
      }
      step *= opt.refine_factor;
    }

    if (placed) {
      layout.placements[comp] = best;
      note_group(comp);
      ++stats.placed;
    } else {
      ++stats.failed;
      stats.failed_components.push_back(c.name);
    }
  }

  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return stats;
}

PlaceStats auto_place(const Design& d, Layout& layout, const AutoPlaceOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  if (layout.placements.size() != d.components().size()) {
    throw std::invalid_argument("auto_place: layout size mismatch");
  }

  // Step 1: optimal rotation.
  const RotationOptimizer rot_opt(d);
  const RotationResult rot = rot_opt.optimize(layout, opt.rotation);
  core::CancelScope::check("place.auto");

  // Step 2: partitioning (two boards only).
  std::vector<int> boards(d.components().size(), 0);
  std::size_t cut_nets = 0;
  if (d.board_count() == 2 && opt.run_partitioning) {
    const Partitioner part(d);
    const PartitionResult pr = part.bipartition(opt.partition);
    boards = pr.board;
    cut_nets = pr.cut_nets;
  } else {
    for (std::size_t i = 0; i < d.components().size(); ++i) {
      boards[i] = std::max(0, d.components()[i].board);
      if (layout.placements[i].placed) boards[i] = layout.placements[i].board;
    }
  }

  // Step 3: sequential placement.
  core::CancelScope::check("place.auto");
  const SequentialPlacer placer(d);
  PlaceStats stats = placer.place(layout, rot.rotation_deg, boards, opt.placer);
  stats.rotation_emd_before_mm = rot.initial_emd_mm;
  stats.rotation_emd_after_mm = rot.total_emd_mm;
  stats.cut_nets = cut_nets;
  stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return stats;
}

}  // namespace emi::place
