// Uniform spatial grid over 2-D points or segments (DESIGN.md Sect. 13).
//
// Points: buckets a fixed point set into square cells whose side equals the
// query radius, so every point within Euclidean distance `cell_size_m` of a
// query position lies in the 3x3 cell neighborhood around it.
//
// Segments: buckets each segment into every cell its bounding box, padded
// by kSegmentPadM, touches; a segment query lists the segments bucketed in
// the cells the padded query segment passes through (DESIGN.md Sect. 13.5).
//
// Both share one cell-key scheme and one flat layout: the occupied cells,
// ascending by packed key, each naming its run of one index array. A slot
// table over the occupied cell range finds a cell in O(1); a point set too
// sparse for the table falls back to binary search over the keys. No
// hashing, no pointer-chasing, no allocation per cell.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.hpp"

namespace uwb::geom {

/// Packed (ix, iy) integer cell coordinate: two 32-bit lanes in one key.
/// Keys of adjacent cells are not adjacent numbers; use cell_ix/cell_iy to
/// unpack.
using CellKey = std::int64_t;

class UniformGrid {
 public:
  /// Padding of segment bounding boxes and segment queries [m]: orders of
  /// magnitude above the roundoff of the strict crossing test and of the
  /// query's column clipping at floor-plan coordinates, orders below any
  /// cell side.
  static constexpr double kSegmentPadM = 1e-6;

  /// One occupied cell: packed coordinate plus the run of the grid's index
  /// array that holds its indices (into the point or segment set the grid
  /// was built from); read them with indices(cell).
  struct Cell {
    CellKey key = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// An empty grid: no cells, every query returns nothing.
  UniformGrid() = default;

  /// Bucket `points` into square cells of side `cell_size_m` (> 0).
  UniformGrid(const std::vector<Vec2>& points, double cell_size_m);

  /// Bucket segment i into every cell its bounding box, padded by
  /// kSegmentPadM on every side, touches. The cell side follows from the
  /// set: sqrt(bounding-box area / count), at least the longer
  /// bounding-box side / count (segments along one line), and 1 m when
  /// that is zero (no segments, or all on one point).
  explicit UniformGrid(const std::vector<Segment>& segments);

  double cell_size_m() const { return cell_size_m_; }
  /// Number of points or segments the grid was built from.
  std::size_t point_count() const { return point_count_; }
  /// Total indices over all cells: the most one segment query appends.
  std::size_t entry_count() const { return indices_.size(); }

  /// Packed cell coordinate containing `p`.
  CellKey key_of(Vec2 p) const;

  /// Occupied cells, ascending by key.
  const std::vector<Cell>& cells() const { return cells_; }

  /// The indices bucketed in `cell` (one of cells()), ascending.
  std::span<const std::int32_t> indices(const Cell& cell) const {
    return {indices_.data() + cell.first, cell.count};
  }

  /// Cell with exactly `key`, or nullptr when unoccupied.
  const Cell* find(CellKey key) const;

  /// Append the indices of every point in the 3x3 cell neighborhood of `p`
  /// to `out`, in ascending index order. Guarantee: contains every point
  /// within Euclidean distance cell_size_m of `p` (plus near misses from
  /// the square cells).
  void neighborhood(Vec2 p, std::vector<std::int32_t>& out) const;

  /// True when cell `key` is one of the 9 neighborhood cells of `p`.
  bool in_neighborhood(Vec2 p, CellKey key) const;

  /// Append to `out`, ascending and unique, the indices bucketed in every
  /// cell that `s`, padded by kSegmentPadM on every side, passes through
  /// (segment grids). Guarantee: contains every segment that shares a
  /// point with `s`, with kSegmentPadM to spare for the roundoff of the
  /// cell bounds. Does not allocate when `out` has capacity for
  /// entry_count() more indices.
  void along_segment(const Segment& s, std::vector<std::int32_t>& out) const;

  /// Pack / unpack cell coordinates (exposed for tests and reporting).
  static CellKey pack(std::int32_t ix, std::int32_t iy);
  static std::int32_t cell_ix(CellKey key);
  static std::int32_t cell_iy(CellKey key);

 private:
  /// The cells one point or padded segment covers, inclusive.
  struct Box {
    std::int32_t ix0, ix1, iy0, iy1;
  };

  std::int32_t coord(double v) const;
  /// Bucket entry i into every cell of boxes[i] and record the occupied
  /// range: by counting sort through the slot table when the range is
  /// small enough, else by sorting (key, index) pairs.
  void bucket(const std::vector<Box>& boxes);
  void bucket_by_slot(const std::vector<Box>& boxes);
  void bucket_by_sort(const std::vector<Box>& boxes);
  /// Slot of cell (ix, iy) inside the occupied range.
  std::size_t slot_of(std::int32_t ix, std::int32_t iy) const;
  /// Occupied cell at (ix, iy), or nullptr.
  const Cell* cell_at(std::int32_t ix, std::int32_t iy) const;

  double cell_size_m_ = 0.0;
  std::size_t point_count_ = 0;
  std::vector<Cell> cells_;            // ascending by key
  std::vector<std::int32_t> indices_;  // cell by cell, each run ascending
  // Dense grids: slot (ix - min_ix) * rows + (iy - min_iy) of the occupied
  // range holds 1 + the cell's position in cells_, 0 when it is empty.
  // Empty for a sparse grid, which binary-searches cells_ instead.
  std::vector<std::uint32_t> slots_;
  // Occupied cell-coordinate range; segment queries clamp to it.
  std::int32_t min_ix_ = 0, max_ix_ = -1, min_iy_ = 0, max_iy_ = -1;
};

}  // namespace uwb::geom
