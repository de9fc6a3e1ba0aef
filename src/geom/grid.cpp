#include "geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

/// A slot table is built when the occupied range holds at most this many
/// slots per entry, plus kSlotSlack: memory stays linear in the entries.
constexpr std::uint64_t kSlotsPerEntry = 8;
constexpr std::uint64_t kSlotSlack = 64;

/// Call fn(i, ix, iy) for every cell (ix, iy) of every box i, in
/// ascending i.
template <class Box, class Fn>
void for_each_entry(const std::vector<Box>& boxes, Fn&& fn) {
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    const Box& b = boxes[i];
    for (std::int64_t ix = b.ix0; ix <= b.ix1; ++ix)
      for (std::int64_t iy = b.iy0; iy <= b.iy1; ++iy)
        fn(static_cast<std::int32_t>(i), static_cast<std::int32_t>(ix),
           static_cast<std::int32_t>(iy));
  }
}

/// Number of integers in [lo, hi] (hi >= lo).
std::uint64_t span(std::int32_t lo, std::int32_t hi) {
  return static_cast<std::uint64_t>(std::int64_t{hi} - lo) + 1;
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
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(key) & 0xFFFFFFFFull));
}

std::int32_t UniformGrid::coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_size_m_));
}

UniformGrid::UniformGrid(const std::vector<Vec2>& points, double cell_size_m)
    : cell_size_m_(cell_size_m), point_count_(points.size()) {
  UWB_EXPECTS(cell_size_m > 0.0);
  std::vector<Box> boxes;
  boxes.reserve(points.size());
  for (const Vec2& p : points) {
    const std::int32_t ix = coord(p.x), iy = coord(p.y);
    boxes.push_back({ix, ix, iy, iy});
  }
  bucket(boxes);
}

UniformGrid::UniformGrid(const std::vector<Segment>& segments)
    : cell_size_m_(segment_cell_size(segments)),
      point_count_(segments.size()) {
  // Cell coordinates of every padded box must fit the 32-bit lanes.
  constexpr double kMaxCoord = 1e9;
  std::vector<Box> boxes;
  boxes.reserve(segments.size());
  for (const Segment& s : segments) {
    const double x0 = std::min(s.a.x, s.b.x) - kSegmentPadM;
    const double x1 = std::max(s.a.x, s.b.x) + kSegmentPadM;
    const double y0 = std::min(s.a.y, s.b.y) - kSegmentPadM;
    const double y1 = std::max(s.a.y, s.b.y) + kSegmentPadM;
    UWB_EXPECTS(std::abs(x0 / cell_size_m_) < kMaxCoord &&
                std::abs(x1 / cell_size_m_) < kMaxCoord &&
                std::abs(y0 / cell_size_m_) < kMaxCoord &&
                std::abs(y1 / cell_size_m_) < kMaxCoord);
    boxes.push_back({coord(x0), coord(x1), coord(y0), coord(y1)});
  }
  bucket(boxes);
  // The cell side puts at most n cells along either side of the set's
  // bounding box and about n in its area, so the padded range holds about
  // 5n + 4 cells (DESIGN.md Sect. 13.5): always within the slot table's
  // limit.
  UWB_ENSURES(cells_.empty() || !slots_.empty());
}

void UniformGrid::bucket(const std::vector<Box>& boxes) {
  if (boxes.empty()) return;
  std::uint64_t entries = 0;
  min_ix_ = min_iy_ = std::numeric_limits<std::int32_t>::max();
  max_ix_ = max_iy_ = std::numeric_limits<std::int32_t>::min();
  for (const Box& b : boxes) {
    entries += span(b.ix0, b.ix1) * span(b.iy0, b.iy1);
    min_ix_ = std::min(min_ix_, b.ix0);
    max_ix_ = std::max(max_ix_, b.ix1);
    min_iy_ = std::min(min_iy_, b.iy0);
    max_iy_ = std::max(max_iy_, b.iy1);
  }
  // Cell runs are addressed by 32-bit offsets and indices are int32.
  UWB_EXPECTS(entries <= static_cast<std::uint64_t>(
                             std::numeric_limits<std::int32_t>::max()));
  indices_.resize(static_cast<std::size_t>(entries));
  const std::uint64_t columns = span(min_ix_, max_ix_);
  const std::uint64_t rows = span(min_iy_, max_iy_);
  const std::uint64_t limit = kSlotsPerEntry * entries + kSlotSlack;
  if (columns <= limit && rows <= limit / columns) {
    slots_.assign(static_cast<std::size_t>(columns * rows), 0);
    bucket_by_slot(boxes);
  } else {
    bucket_by_sort(boxes);
  }
}

std::size_t UniformGrid::slot_of(std::int32_t ix, std::int32_t iy) const {
  return static_cast<std::size_t>(std::int64_t{ix} - min_ix_) *
             static_cast<std::size_t>(span(min_iy_, max_iy_)) +
         static_cast<std::size_t>(std::int64_t{iy} - min_iy_);
}

void UniformGrid::bucket_by_slot(const std::vector<Box>& boxes) {
  std::size_t occupied = 0;
  for_each_entry(boxes, [&](std::int32_t, std::int32_t ix, std::int32_t iy) {
    if (slots_[slot_of(ix, iy)]++ == 0) ++occupied;
  });
  // Lay the cells out in key order, each count becoming its run's offset
  // and each slot the cell's ordinal. pack() orders iy as an unsigned lane,
  // so a column's cells run 0 .. max_iy first, then min_iy .. -1.
  cells_.reserve(occupied);
  std::uint32_t first = 0;
  const auto lay_out = [&](std::int32_t ix, std::int64_t iy0,
                           std::int64_t iy1) {
    for (std::int64_t y = iy0; y <= iy1; ++y) {
      const auto iy = static_cast<std::int32_t>(y);
      std::uint32_t& s = slots_[slot_of(ix, iy)];
      if (s == 0) continue;
      cells_.push_back({pack(ix, iy), first, 0});
      first += s;
      s = static_cast<std::uint32_t>(cells_.size());
    }
  };
  for (std::int64_t ix = min_ix_; ix <= max_ix_; ++ix) {
    lay_out(static_cast<std::int32_t>(ix), std::max(min_iy_, 0), max_iy_);
    lay_out(static_cast<std::int32_t>(ix), min_iy_, std::min(max_iy_, -1));
  }
  // Fill in ascending entry index, so each run comes out ascending.
  for_each_entry(boxes, [&](std::int32_t i, std::int32_t ix, std::int32_t iy) {
    Cell& cell = cells_[slots_[slot_of(ix, iy)] - 1];
    indices_[cell.first + cell.count++] = i;
  });
}

void UniformGrid::bucket_by_sort(const std::vector<Box>& boxes) {
  std::vector<std::pair<CellKey, std::int32_t>> entries;
  entries.reserve(indices_.size());
  for_each_entry(boxes, [&](std::int32_t i, std::int32_t ix, std::int32_t iy) {
    entries.emplace_back(pack(ix, iy), i);
  });
  // Sorting (key, index) pairs leaves each cell's indices ascending.
  std::sort(entries.begin(), entries.end());
  std::uint32_t k = 0;
  for (const auto& [key, index] : entries) {
    if (cells_.empty() || cells_.back().key != key) {
      cells_.push_back({key, k, 0});
    }
    indices_[k++] = index;
    ++cells_.back().count;
  }
}

CellKey UniformGrid::key_of(Vec2 p) const {
  UWB_EXPECTS(cell_size_m_ > 0.0);
  return pack(coord(p.x), coord(p.y));
}

const UniformGrid::Cell* UniformGrid::find(CellKey key) const {
  return cell_at(cell_ix(key), cell_iy(key));
}

const UniformGrid::Cell* UniformGrid::cell_at(std::int32_t ix,
                                              std::int32_t iy) const {
  if (slots_.empty()) {
    const CellKey key = pack(ix, iy);
    auto it = std::lower_bound(
        cells_.begin(), cells_.end(), key,
        [](const Cell& c, CellKey k) { return c.key < k; });
    if (it == cells_.end() || it->key != key) return nullptr;
    return &*it;
  }
  if (ix < min_ix_ || ix > max_ix_ || iy < min_iy_ || iy > max_iy_)
    return nullptr;
  const std::uint32_t s = slots_[slot_of(ix, iy)];
  return s == 0 ? nullptr : &cells_[s - 1];
}

void UniformGrid::neighborhood(Vec2 p, std::vector<std::int32_t>& out) const {
  if (cells_.empty()) return;
  const std::int32_t cx = coord(p.x);
  const std::int32_t cy = coord(p.y);
  const std::size_t first = out.size();
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      if (const Cell* cell = cell_at(cx + dx, cy + dy)) {
        const auto run = indices(*cell);
        out.insert(out.end(), run.begin(), run.end());
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
      if (const Cell* cell = cell_at(ix, iy)) {
        const auto run = indices(*cell);
        out.insert(out.end(), run.begin(), run.end());
      }
    }
  }
  // A segment spanning several visited cells was appended once per cell.
  const auto begin = out.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, out.end());
  out.erase(std::unique(begin, out.end()), out.end());
}

}  // namespace uwb::geom
