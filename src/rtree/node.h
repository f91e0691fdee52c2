// In-memory R-tree node representation and its on-page binary layout.
//
// One node occupies exactly one page (paper Section 2.1). The layout is:
//
//   offset  size  field
//   0       4     magic (0x52545250, "RTRP")
//   4       2     level (0 = leaf, increasing toward the root)
//   6       2     count (number of entries)
//   8       8     reserved (zero)
//   16      40*i  entries: {lo.x, lo.y, hi.x, hi.y : f64} + {id : u64}
//
// At the leaf level an entry's id is the application object id; at internal
// levels it is the PageId of the child node and the rect is the child's MBR.

#ifndef RTB_RTREE_NODE_H_
#define RTB_RTREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "geom/rect.h"
#include "storage/page.h"
#include "util/macros.h"
#include "util/result.h"

namespace rtb::rtree {

/// Application-level object identifier stored in leaf entries.
using ObjectId = uint64_t;

/// One slot of a node: a rectangle plus a child pointer / object id.
struct Entry {
  geom::Rect rect;
  uint64_t id = 0;
};

inline bool operator==(const Entry& a, const Entry& b) {
  return a.rect == b.rect && a.id == b.id;
}

/// A decoded node. `level` is the height above the leaves (leaf = 0).
struct Node {
  uint16_t level = 0;
  std::vector<Entry> entries;

  bool is_leaf() const { return level == 0; }

  /// MBR of all entries; Rect::Empty() for an empty node.
  geom::Rect Mbr() const {
    geom::Rect mbr = geom::Rect::Empty();
    for (const Entry& e : entries) mbr = geom::Union(mbr, e.rect);
    return mbr;
  }
};

/// Size in bytes of the fixed node header.
inline constexpr size_t kNodeHeaderSize = 16;

/// Size in bytes of one serialized entry.
inline constexpr size_t kEntrySize = 5 * 8;

/// Maximum entries a node can hold in a page of `page_size` bytes.
inline constexpr uint32_t NodeCapacity(size_t page_size) {
  return page_size < kNodeHeaderSize
             ? 0
             : static_cast<uint32_t>((page_size - kNodeHeaderSize) /
                                     kEntrySize);
}

/// Serializes `node` into `out` (page_size bytes, zero-padded). Fails when
/// the entries do not fit.
Status SerializeNode(const Node& node, size_t page_size, uint8_t* out);

/// Decodes a node from a page image into an owning Node (heap-allocated
/// entry vector). This is the mutation-path decoder: inserts, deletes and
/// splits materialize a Node, edit its entries, and re-serialize. Read
/// paths use NodeView instead.
Result<Node> DeserializeNode(const uint8_t* data, size_t page_size);

/// Zero-copy reader over a serialized node image.
///
/// Create() validates the header once (magic, entry count vs. page
/// capacity); the accessors then index straight into the page bytes with no
/// decoding pass, no entry vector, and no heap allocation. This is the
/// read-path representation: a query visits a node by wrapping the pinned
/// frame's bytes in a NodeView and scanning slots in place.
///
/// A NodeView borrows the page image — it is valid only while the bytes it
/// was created over stay alive and unmodified, i.e. no longer than the
/// PageGuard (or caller-owned scratch buffer) it came from. It is a
/// two-word value type; pass it by value.
class NodeView {
 public:
  NodeView() = default;

  /// Wraps `data` (a page image of `page_size` bytes). Returns
  /// Status::Corruption for a bad magic, a truncated page, or an entry
  /// count that would overflow the page.
  static Result<NodeView> Create(const uint8_t* data, size_t page_size);

  uint16_t level() const { return level_; }
  bool is_leaf() const { return level_ == 0; }
  uint16_t count() const { return count_; }

  /// Rectangle of slot `i` (copied out of the page; 4 doubles, no heap).
  geom::Rect rect(size_t i) const {
    RTB_DCHECK(i < count_);
    geom::Rect r;
    std::memcpy(&r, entries_ + i * kEntrySize, 4 * sizeof(double));
    return r;
  }

  /// Child page id (internal levels) or object id (leaves) of slot `i`.
  uint64_t id(size_t i) const {
    RTB_DCHECK(i < count_);
    uint64_t v;
    std::memcpy(&v, entries_ + i * kEntrySize + 4 * sizeof(double),
                sizeof(v));
    return v;
  }

  /// Slot `i` as an Entry value.
  Entry entry(size_t i) const { return Entry{rect(i), id(i)}; }

  /// First entry's raw bytes (count() * kEntrySize readable). For bulk
  /// readers (the scan-kernel gather) that stride the page themselves.
  const uint8_t* raw_entries() const { return entries_; }

  /// Equivalent to rect(i).Intersects(q) for a non-empty `q`, but reads
  /// coordinates straight off the page with per-axis early exit: the common
  /// miss costs one or two loads instead of a 4-double copy plus a full
  /// Rect comparison. The tests are written as negated ordered compares, so
  /// an entry with a NaN coordinate matches nothing, as in Rect.
  bool Intersects(size_t i, const geom::Rect& q) const {
    RTB_DCHECK(i < count_);
    const uint8_t* p = entries_ + i * kEntrySize;
    double lox, loy, hix, hiy;
    std::memcpy(&lox, p, sizeof(double));
    if (!(lox <= q.hi.x)) return false;
    std::memcpy(&hix, p + 2 * sizeof(double), sizeof(double));
    if (!(hix >= q.lo.x && hix >= lox)) return false;  // Disjoint or empty.
    std::memcpy(&loy, p + sizeof(double), sizeof(double));
    if (!(loy <= q.hi.y)) return false;
    std::memcpy(&hiy, p + 3 * sizeof(double), sizeof(double));
    return hiy >= q.lo.y && hiy >= loy;
  }

  /// MBR of all slots; Rect::Empty() for an empty node.
  geom::Rect Mbr() const {
    geom::Rect mbr = geom::Rect::Empty();
    for (size_t i = 0; i < count_; ++i) mbr = geom::Union(mbr, rect(i));
    return mbr;
  }

 private:
  NodeView(const uint8_t* entries, uint16_t level, uint16_t count)
      : entries_(entries), level_(level), count_(count) {}

  const uint8_t* entries_ = nullptr;  // First entry (page + header).
  uint16_t level_ = 0;
  uint16_t count_ = 0;
};

}  // namespace rtb::rtree

#endif  // RTB_RTREE_NODE_H_
