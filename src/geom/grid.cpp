#include "geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expects.hpp"

namespace uwb::geom {

namespace {

std::uint32_t lane(std::int32_t v) {
  return static_cast<std::uint32_t>(v);
}

// Cell side for a segment set: about one segment per cell of its bounding
// box, never so small that collinear segments each span many cells.
double segment_cell_size(const std::vector<Segment>& segments) {
  if (segments.empty()) return 1.0;
  double x0 = std::numeric_limits<double>::infinity(), x1 = -x0;
  double y0 = x0, y1 = -x0;
  for (const Segment& s : segments) {
    x0 = std::min({x0, s.a.x, s.b.x});
    x1 = std::max({x1, s.a.x, s.b.x});
    y0 = std::min({y0, s.a.y, s.b.y});
    y1 = std::max({y1, s.a.y, s.b.y});
  }
  UWB_EXPECTS(std::isfinite(x0) && std::isfinite(x1) && std::isfinite(y0) &&
              std::isfinite(y1));
  const double w = x1 - x0;
  const double h = y1 - y0;
  const double n = static_cast<double>(segments.size());
  const double side = std::max(std::sqrt(w * h / n), std::max(w, h) / n);
  return side > 0.0 ? side : 1.0;
}

}  // namespace

CellKey UniformGrid::pack(std::int32_t ix, std::int32_t iy) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(lane(ix)) << 32) |
      static_cast<std::uint64_t>(lane(iy)));
}

std::int32_t UniformGrid::cell_ix(CellKey key) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(key) >> 32));
}

std::int32_t UniformGrid::cell_iy(CellKey key) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(key) & 0xFFFFFFFFull));
}

std::int32_t UniformGrid::coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_size_m_));
}

UniformGrid::UniformGrid(const std::vector<Vec2>& points, double cell_size_m)
    : cell_size_m_(cell_size_m), point_count_(points.size()) {
  UWB_EXPECTS(cell_size_m > 0.0);
  std::vector<std::pair<CellKey, std::int32_t>> entries;
  entries.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    entries.emplace_back(key_of(points[i]), static_cast<std::int32_t>(i));
  }
  bucket(std::move(entries));
}

UniformGrid::UniformGrid(const std::vector<Segment>& segments)
    : cell_size_m_(segment_cell_size(segments)),
      point_count_(segments.size()) {
  // Cell coordinates of every padded box must fit the 32-bit lanes.
  constexpr double kMaxCoord = 1e9;
  std::vector<std::pair<CellKey, std::int32_t>> entries;
  entries.reserve(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    const double x0 = std::min(s.a.x, s.b.x) - kSegmentPadM;
    const double x1 = std::max(s.a.x, s.b.x) + kSegmentPadM;
    const double y0 = std::min(s.a.y, s.b.y) - kSegmentPadM;
    const double y1 = std::max(s.a.y, s.b.y) + kSegmentPadM;
    UWB_EXPECTS(std::abs(x0 / cell_size_m_) < kMaxCoord &&
                std::abs(x1 / cell_size_m_) < kMaxCoord &&
                std::abs(y0 / cell_size_m_) < kMaxCoord &&
                std::abs(y1 / cell_size_m_) < kMaxCoord);
    const std::int32_t ix1 = coord(x1);
    const std::int32_t iy1 = coord(y1);
    for (std::int32_t ix = coord(x0); ix <= ix1; ++ix)
      for (std::int32_t iy = coord(y0); iy <= iy1; ++iy)
        entries.emplace_back(pack(ix, iy), static_cast<std::int32_t>(i));
  }
  bucket(std::move(entries));
}

void UniformGrid::bucket(
    std::vector<std::pair<CellKey, std::int32_t>> entries) {
  // Sorting (key, index) pairs leaves each cell's indices ascending.
  std::sort(entries.begin(), entries.end());
  entry_count_ = entries.size();
  for (const auto& [key, index] : entries) {
    if (cells_.empty() || cells_.back().key != key) {
      cells_.push_back(Cell{key, {}});
    }
    cells_.back().indices.push_back(index);
  }
  if (cells_.empty()) return;
  min_ix_ = max_ix_ = cell_ix(cells_.front().key);
  min_iy_ = max_iy_ = cell_iy(cells_.front().key);
  for (const Cell& cell : cells_) {
    min_ix_ = std::min(min_ix_, cell_ix(cell.key));
    max_ix_ = std::max(max_ix_, cell_ix(cell.key));
    min_iy_ = std::min(min_iy_, cell_iy(cell.key));
    max_iy_ = std::max(max_iy_, cell_iy(cell.key));
  }
}

CellKey UniformGrid::key_of(Vec2 p) const {
  UWB_EXPECTS(cell_size_m_ > 0.0);
  return pack(coord(p.x), coord(p.y));
}

const UniformGrid::Cell* UniformGrid::find(CellKey key) const {
  auto it = std::lower_bound(
      cells_.begin(), cells_.end(), key,
      [](const Cell& c, CellKey k) { return c.key < k; });
  if (it == cells_.end() || it->key != key) return nullptr;
  return &*it;
}

void UniformGrid::neighborhood(Vec2 p, std::vector<std::int32_t>& out) const {
  if (cells_.empty()) return;
  const std::int32_t cx = coord(p.x);
  const std::int32_t cy = coord(p.y);
  const std::size_t first = out.size();
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      if (const Cell* cell = find(pack(cx + dx, cy + dy))) {
        out.insert(out.end(), cell->indices.begin(), cell->indices.end());
      }
    }
  }
  // Cells were visited in (dx, dy) order, not index order; receivers must be
  // scheduled in ascending node order to keep event tie-breaks stable.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

bool UniformGrid::in_neighborhood(Vec2 p, CellKey key) const {
  const std::int32_t cx = coord(p.x);
  const std::int32_t cy = coord(p.y);
  const std::int32_t kx = cell_ix(key);
  const std::int32_t ky = cell_iy(key);
  return kx >= cx - 1 && kx <= cx + 1 && ky >= cy - 1 && ky <= cy + 1;
}

void UniformGrid::along_segment(const Segment& s,
                                std::vector<std::int32_t>& out) const {
  if (cells_.empty()) return;
  // Cell coordinates stay floating point, clamped to the occupied range,
  // until the cast: a segment may reach far outside the grid (and a NaN
  // coordinate matches no cell, as it crosses no obstacle in the full loop).
  const auto cell_range = [this](double lo, double hi, std::int32_t min_c,
                                 std::int32_t max_c, std::int32_t& first_c,
                                 std::int32_t& last_c) {
    const double c0 = std::floor((lo - kSegmentPadM) / cell_size_m_);
    const double c1 = std::floor((hi + kSegmentPadM) / cell_size_m_);
    if (!(c1 >= min_c && c0 <= max_c)) return false;
    first_c =
        static_cast<std::int32_t>(std::max(c0, static_cast<double>(min_c)));
    last_c =
        static_cast<std::int32_t>(std::min(c1, static_cast<double>(max_c)));
    return true;
  };
  std::int32_t ix0 = 0, ix1 = 0;
  if (!cell_range(std::min(s.a.x, s.b.x), std::max(s.a.x, s.b.x), min_ix_,
                  max_ix_, ix0, ix1))
    return;
  const double dx = s.b.x - s.a.x;
  const double dy = s.b.y - s.a.y;
  const std::size_t first = out.size();
  for (std::int32_t ix = ix0; ix <= ix1; ++ix) {
    // The part of s over this column, widened by the pad on both sides.
    double y0 = s.a.y, y1 = s.b.y;
    if (dx != 0.0) {
      const double left =
          static_cast<double>(ix) * cell_size_m_ - kSegmentPadM;
      const double right =
          static_cast<double>(ix + 1) * cell_size_m_ + kSegmentPadM;
      const double t0 = std::clamp((left - s.a.x) / dx, 0.0, 1.0);
      const double t1 = std::clamp((right - s.a.x) / dx, 0.0, 1.0);
      y0 = s.a.y + t0 * dy;
      y1 = s.a.y + t1 * dy;
    }
    std::int32_t iy0 = 0, iy1 = 0;
    if (!cell_range(std::min(y0, y1), std::max(y0, y1), min_iy_, max_iy_, iy0,
                    iy1))
      continue;
    for (std::int32_t iy = iy0; iy <= iy1; ++iy) {
      if (const Cell* cell = find(pack(ix, iy))) {
        out.insert(out.end(), cell->indices.begin(), cell->indices.end());
      }
    }
  }
  // A segment spanning several visited cells was appended once per cell.
  const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, out.end());
  out.erase(std::unique(begin, out.end()), out.end());
}

}  // namespace uwb::geom
