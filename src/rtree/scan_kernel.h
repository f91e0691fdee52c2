// Node-scan kernel used by the batch executor.
//
// A node visit in the batched path tests one page's entries against many
// query rectangles. Entry coordinates live interleaved on the page (40-byte
// stride, see node.h); scanning them with NodeView::Intersects costs a
// strided load pattern per query. The kernel instead gathers the page's
// rects once into a structure-of-arrays scratch (xlo/ylo/xhi/yhi as dense
// double arrays) and then answers each query with a branch-free sweep over
// those columns, amortizing the gather over every query that shares the
// visit.
//
// Semantics match NodeView::Intersects exactly for a non-empty query `q`:
// slot i matches iff
//
//   xlo[i] <= q.hi.x && xhi[i] >= q.lo.x &&
//   ylo[i] <= q.hi.y && yhi[i] >= q.lo.y &&
//   xhi[i] >= xlo[i] && yhi[i] >= ylo[i]      (the entry is non-empty)
//
// The entry-validity term does not depend on the query, so it is computed
// once per gather and stored as a bitmask.
//
// The sweep is one plain loop compiled twice: portably, and with
// `target("avx2")` on x86-64. Each instantiation builds its hit mask in
// the form the compiler vectorizes at that width (see scan_kernel.cc). The gather
// has a portable loop and a hand-written AVX2 4x4 transpose. A cpuid check
// picks the AVX2 pair once per process; nothing else selects a kernel.

#ifndef RTB_RTREE_SCAN_KERNEL_H_
#define RTB_RTREE_SCAN_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/rect.h"
#include "rtree/node.h"

namespace rtb::rtree {

class ScanScratch;

namespace detail {
// The variants behind ScanScratch::Load and ScanIntersecting, exposed for
// tests. The Avx2 ones exist on x86-64 only and need an AVX2 CPU.
void GatherPortable(NodeView view, ScanScratch* scratch);
size_t SweepPortable(const ScanScratch& scratch, const geom::Rect& q,
                     uint32_t* out);
#if defined(__x86_64__)
void GatherAvx2(NodeView view, ScanScratch* scratch);
size_t SweepAvx2(const ScanScratch& scratch, const geom::Rect& q,
                 uint32_t* out);
#endif
}  // namespace detail

/// Structure-of-arrays copy of one node's entry rects plus a validity
/// bitmask. Reused across visits: Load() only grows its buffers, so a
/// scratch that lives for a whole batch run performs no steady-state heap
/// allocation. One scratch per thread (it is plain mutable state).
class ScanScratch {
 public:
  /// Gathers every entry rect of `view` (and recomputes the validity mask).
  /// The scratch holds a copy; the page bytes may be unpinned afterwards.
  void Load(NodeView view);

  uint16_t count() const { return count_; }
  uint16_t level() const { return level_; }
  bool is_leaf() const { return level_ == 0; }

  /// Entry id passthrough, captured at Load() time.
  uint64_t id(size_t i) const { return ids_[i]; }

  const double* xlo() const { return xlo_.data(); }
  const double* ylo() const { return ylo_.data(); }
  const double* xhi() const { return xhi_.data(); }
  const double* yhi() const { return yhi_.data(); }

  /// Bit i set when entry i is a non-empty rect. Word-packed, 64 per word.
  const uint64_t* valid() const { return valid_.data(); }

 private:
  friend void detail::GatherPortable(NodeView, ScanScratch*);
#if defined(__x86_64__)
  friend void detail::GatherAvx2(NodeView, ScanScratch*);
#endif

  // Sizes the buffers for `view` and clears its validity words.
  void Reset(NodeView view);
  // Fills slots [begin, count) one entry at a time.
  void GatherTail(NodeView view, size_t begin);

  std::vector<double> xlo_, ylo_, xhi_, yhi_;
  std::vector<uint64_t> ids_;
  std::vector<uint64_t> valid_;
  uint16_t count_ = 0;
  uint16_t level_ = 0;
};

/// Writes the slot indices of all entries in `scratch` intersecting the
/// non-empty query `q` to `out` (ascending order) and returns how many.
/// `out` must have room for scratch.count() indices.
size_t ScanIntersecting(const ScanScratch& scratch, const geom::Rect& q,
                        uint32_t* out);

}  // namespace rtb::rtree

#endif  // RTB_RTREE_SCAN_KERNEL_H_
