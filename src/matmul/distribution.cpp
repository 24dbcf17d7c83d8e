#include "matmul/distribution.hpp"

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace camb::mm {

BlockDist1D::BlockDist1D(i64 total, i64 parts)
    : total_(total), parts_(parts), base_(0), extra_(0) {
  CAMB_CHECK_MSG(total >= 0 && parts >= 1, "bad 1D distribution");
  base_ = total / parts;
  extra_ = total % parts;
}

i64 BlockDist1D::size(i64 i) const {
  CAMB_CHECK(i >= 0 && i < parts_);
  return base_ + (i < extra_ ? 1 : 0);
}

i64 BlockDist1D::start(i64 i) const {
  CAMB_CHECK(i >= 0 && i <= parts_);
  return i * base_ + std::min(i, extra_);
}

i64 BlockDist1D::owner(i64 g) const {
  CAMB_CHECK(g >= 0 && g < total_);
  // Pieces [0, extra_) have size base_+1, the rest base_.
  const i64 boundary = extra_ * (base_ + 1);
  if (g < boundary) return g / (base_ + 1);
  CAMB_CHECK_MSG(base_ > 0, "index beyond all non-empty pieces");
  return extra_ + (g - boundary) / base_;
}

std::vector<i64> BlockDist1D::counts() const {
  std::vector<i64> out(static_cast<std::size_t>(parts_));
  for (i64 i = 0; i < parts_; ++i) out[static_cast<std::size_t>(i)] = size(i);
  return out;
}

GridMap::GridMap(const Grid3& grid) : grid_(grid) {
  CAMB_CHECK_MSG(grid.p1 >= 1 && grid.p2 >= 1 && grid.p3 >= 1,
                 "grid dimensions must be >= 1");
}

int GridMap::rank_of(i64 q1, i64 q2, i64 q3) const {
  CAMB_CHECK(q1 >= 0 && q1 < grid_.p1 && q2 >= 0 && q2 < grid_.p2 && q3 >= 0 &&
             q3 < grid_.p3);
  return static_cast<int>((q1 * grid_.p2 + q2) * grid_.p3 + q3);
}

std::array<i64, 3> GridMap::coords_of(int rank) const {
  CAMB_CHECK(rank >= 0 && rank < nprocs());
  const i64 r = rank;
  return {r / (grid_.p2 * grid_.p3), (r / grid_.p3) % grid_.p2, r % grid_.p3};
}

std::vector<int> GridMap::fiber(int axis, i64 q1, i64 q2, i64 q3) const {
  std::array<i64, 3> coord = {q1, q2, q3};
  const std::array<i64, 3> extents = {grid_.p1, grid_.p2, grid_.p3};
  CAMB_CHECK(axis >= 0 && axis < 3);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(extents[static_cast<std::size_t>(axis)]));
  for (i64 t = 0; t < extents[static_cast<std::size_t>(axis)]; ++t) {
    coord[static_cast<std::size_t>(axis)] = t;
    out.push_back(rank_of(coord[0], coord[1], coord[2]));
  }
  return out;
}

BlockChunk full_block(const BlockDist1D& rows, i64 ri, const BlockDist1D& cols,
                      i64 ci) {
  BlockChunk chunk;
  chunk.row0 = rows.start(ri);
  chunk.col0 = cols.start(ci);
  chunk.rows = rows.size(ri);
  chunk.cols = cols.size(ci);
  chunk.flat_start = 0;
  chunk.flat_size = chunk.rows * chunk.cols;
  return chunk;
}

template <typename T>
std::vector<T> fill_chunk_indexed(const BlockChunk& chunk) {
  std::vector<T> out(static_cast<std::size_t>(chunk.flat_size));
  for (i64 f = 0; f < chunk.flat_size; ++f) {
    const i64 flat = chunk.flat_start + f;
    out[static_cast<std::size_t>(f)] = indexed_entry<T>(
        chunk.row0 + flat / chunk.cols, chunk.col0 + flat % chunk.cols);
  }
  return out;
}

#define CAMB_INSTANTIATE(T) \
  template std::vector<T> fill_chunk_indexed<T>(const BlockChunk&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE)
#undef CAMB_INSTANTIATE

template <typename T>
std::vector<T> fill_chunk_indexed_int(const BlockChunk& chunk) {
  std::vector<T> out(static_cast<std::size_t>(chunk.flat_size));
  for (i64 f = 0; f < chunk.flat_size; ++f) {
    const i64 flat = chunk.flat_start + f;
    out[static_cast<std::size_t>(f)] = indexed_int_entry<T>(
        chunk.row0 + flat / chunk.cols, chunk.col0 + flat % chunk.cols);
  }
  return out;
}

#define CAMB_INSTANTIATE_INT(T) \
  template std::vector<T> fill_chunk_indexed_int<T>(const BlockChunk&);
CAMB_FOR_EACH_SCALAR(CAMB_INSTANTIATE_INT)
#undef CAMB_INSTANTIATE_INT

}  // namespace camb::mm
