#include "rtree/scan_kernel.h"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rtb::rtree {

namespace {

// The sweep body. Each block of up to 64 slots evaluates every slot with
// no early exit, using ordered compares (NaN-false, matching
// NodeView::Intersects), into a 64-bit hit mask; the mask is ANDed with the
// block's validity word (which folds in the entry-non-empty term, see
// header, and has no bits past the node's count) and the set bits are
// emitted in ascending order. The two instantiations build the mask
// differently, each the form g++ vectorizes at its width:
//   * kBytePack (portable): the compares become 0/1 doubles whose product
//     lands in a byte lane, and eight lanes pack into eight mask bits per
//     multiply (byte k's low bit lands in bit 56 + k). At the x86-64
//     baseline this emits packed compares, where a bool-valued or
//     variable-shift form stays scalar; it needs this file's
//     -fno-trapping-math, without which g++ will not if-convert the
//     compares.
//   * otherwise (AVX2): each slot's bit is shifted straight into the mask
//     (vpsllvq). At AVX2 width this beats the byte lanes: 1.02-1.23M
//     against 0.69-0.74M queries/s on micro_batch_query's
//     region_resident_batched_simd row.
template <bool kBytePack>
[[gnu::always_inline]] inline size_t Sweep(const ScanScratch& s,
                                           const geom::Rect& q,
                                           uint32_t* out) {
  const double* xlo = s.xlo();
  const double* ylo = s.ylo();
  const double* xhi = s.xhi();
  const double* yhi = s.yhi();
  const size_t count = s.count();
  size_t n = 0;
  for (size_t base = 0; base < count; base += 64) {
    const size_t len = std::min<size_t>(64, count - base);
    uint64_t hits = 0;
    if constexpr (kBytePack) {
      alignas(16) uint8_t lane[64] = {};
      for (size_t j = 0; j < len; ++j) {
        const size_t i = base + j;
        const double hit = static_cast<double>(xlo[i] <= q.hi.x) *
                           static_cast<double>(xhi[i] >= q.lo.x) *
                           static_cast<double>(ylo[i] <= q.hi.y) *
                           static_cast<double>(yhi[i] >= q.lo.y);
        lane[j] = static_cast<uint8_t>(static_cast<int32_t>(hit));
      }
      for (size_t w = 0; w < 8; ++w) {
        uint64_t bytes;
        std::memcpy(&bytes, lane + 8 * w, sizeof(bytes));
        hits |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * w);
      }
    } else {
      for (size_t j = 0; j < len; ++j) {
        const size_t i = base + j;
        const bool hit = (xlo[i] <= q.hi.x) & (xhi[i] >= q.lo.x) &
                         (ylo[i] <= q.hi.y) & (yhi[i] >= q.lo.y);
        hits |= uint64_t{hit} << j;
      }
    }
    for (hits &= s.valid()[base >> 6]; hits != 0; hits &= hits - 1) {
      out[n++] = static_cast<uint32_t>(base + __builtin_ctzll(hits));
    }
  }
  return n;
}

using GatherFn = void (*)(NodeView, ScanScratch*);
using SweepFn = size_t (*)(const ScanScratch&, const geom::Rect&, uint32_t*);

struct Kernels {
  GatherFn gather;
  SweepFn sweep;
};

Kernels ResolveKernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) {
    return {detail::GatherAvx2, detail::SweepAvx2};
  }
#endif
  return {detail::GatherPortable, detail::SweepPortable};
}

const Kernels& ActiveKernels() {
  static const Kernels kernels = ResolveKernels();
  return kernels;
}

}  // namespace

namespace detail {

void GatherPortable(NodeView view, ScanScratch* scratch) {
  scratch->Reset(view);
  scratch->GatherTail(view, 0);
}

size_t SweepPortable(const ScanScratch& scratch, const geom::Rect& q,
                     uint32_t* out) {
  return Sweep</*kBytePack=*/true>(scratch, q, out);
}

#if defined(__x86_64__)

__attribute__((target("avx2"))) size_t SweepAvx2(const ScanScratch& scratch,
                                                 const geom::Rect& q,
                                                 uint32_t* out) {
  return Sweep</*kBytePack=*/false>(scratch, q, out);
}

// Gathers 4 entries per step: each entry's rect is 4 contiguous doubles at
// a 40-byte stride, so four unaligned row loads plus a 4x4 transpose yield
// the xlo/ylo/xhi/yhi columns directly. Validity (hi >= lo per axis, quiet
// NaN-false like the portable test) is computed on the transposed columns.
// The tail of fewer than 4 entries goes through the portable loop.
__attribute__((target("avx2"))) void GatherAvx2(NodeView view,
                                                ScanScratch* scratch) {
  scratch->Reset(view);
  const uint8_t* entries = view.raw_entries();
  const size_t n = scratch->count_;
  double* xlo = scratch->xlo_.data();
  double* ylo = scratch->ylo_.data();
  double* xhi = scratch->xhi_.data();
  double* yhi = scratch->yhi_.data();
  uint64_t* ids = scratch->ids_.data();
  uint64_t* valid = scratch->valid_.data();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* p = entries + i * kEntrySize;
    const __m256d e0 = _mm256_loadu_pd(reinterpret_cast<const double*>(p));
    const __m256d e1 =
        _mm256_loadu_pd(reinterpret_cast<const double*>(p + kEntrySize));
    const __m256d e2 =
        _mm256_loadu_pd(reinterpret_cast<const double*>(p + 2 * kEntrySize));
    const __m256d e3 =
        _mm256_loadu_pd(reinterpret_cast<const double*>(p + 3 * kEntrySize));
    const __m256d t0 = _mm256_unpacklo_pd(e0, e1);  // xlo0 xlo1 xhi0 xhi1
    const __m256d t1 = _mm256_unpackhi_pd(e0, e1);  // ylo0 ylo1 yhi0 yhi1
    const __m256d t2 = _mm256_unpacklo_pd(e2, e3);
    const __m256d t3 = _mm256_unpackhi_pd(e2, e3);
    const __m256d cxlo = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d cxhi = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d cylo = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d cyhi = _mm256_permute2f128_pd(t1, t3, 0x31);
    _mm256_storeu_pd(xlo + i, cxlo);
    _mm256_storeu_pd(xhi + i, cxhi);
    _mm256_storeu_pd(ylo + i, cylo);
    _mm256_storeu_pd(yhi + i, cyhi);
    for (size_t j = 0; j < 4; ++j) {
      std::memcpy(ids + i + j,
                  p + j * kEntrySize + 4 * sizeof(double), sizeof(uint64_t));
    }
    const __m256d ok =
        _mm256_and_pd(_mm256_cmp_pd(cxhi, cxlo, _CMP_GE_OQ),
                      _mm256_cmp_pd(cyhi, cylo, _CMP_GE_OQ));
    const uint64_t bits = static_cast<unsigned>(_mm256_movemask_pd(ok));
    valid[i >> 6] |= bits << (i & 63);  // Step 4: never straddles a word.
  }
  scratch->GatherTail(view, i);
}

#endif  // defined(__x86_64__)

}  // namespace detail

void ScanScratch::Reset(NodeView view) {
  count_ = view.count();
  level_ = view.level();
  const size_t n = count_;
  if (xlo_.size() < n) {
    xlo_.resize(n);
    ylo_.resize(n);
    xhi_.resize(n);
    yhi_.resize(n);
    ids_.resize(n);
  }
  const size_t words = (n + 63) / 64;
  if (valid_.size() < words) valid_.resize(words);
  std::fill(valid_.begin(), valid_.begin() + words, 0);
}

void ScanScratch::GatherTail(NodeView view, size_t begin) {
  for (size_t i = begin; i < count_; ++i) {
    const geom::Rect r = view.rect(i);
    xlo_[i] = r.lo.x;
    ylo_[i] = r.lo.y;
    xhi_[i] = r.hi.x;
    yhi_[i] = r.hi.y;
    ids_[i] = view.id(i);
    if (r.hi.x >= r.lo.x && r.hi.y >= r.lo.y) {
      valid_[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

void ScanScratch::Load(NodeView view) { ActiveKernels().gather(view, this); }

size_t ScanIntersecting(const ScanScratch& scratch, const geom::Rect& q,
                        uint32_t* out) {
  return ActiveKernels().sweep(scratch, q, out);
}

}  // namespace rtb::rtree
